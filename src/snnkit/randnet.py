"""Seeded random network generators for verification sweeps and benchmarks.

Everything here is deterministic in the seed: the same seed always yields
the same network, which keeps sweep results and traces reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .model import (
    ExplicitSchedule,
    Network,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
)

_LEAKS = (
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(3, 4),
)

# Synapses out of each body neuron of a sparse benchmark network; a driver has twice as many.
_SPARSE_FANOUT = 3


def _random_schedule(rng: Random):
    if rng.random() < 0.5:
        return PeriodicSchedule(offset=rng.randint(0, 3), period=rng.randint(1, 4))
    times = sorted(rng.sample(range(0, 12), rng.randint(1, 4)))
    return ExplicitSchedule(tuple(times))


def random_network(
    seed: int,
    max_neurons: int = 20,
    max_synapses: int = 60,
    accept_reset_below_threshold: bool = False,
) -> Network:
    """A small random network with designated regular accept/reject neurons.

    Parameters are small exact rationals covering the full model surface:
    mixed leaks, inhibitory weights, delays up to 5, periodic and explicit
    drivers, and occasional synapses into programmed neurons (which the
    semantics ignore). With `accept_reset_below_threshold` the accept
    neuron is constrained to reset strictly below its threshold, the
    precondition of the meter gadget's acceptance guarantee.
    """
    rng = Random(seed)
    n_prog = rng.randint(1, 3)
    n_reg = rng.randint(2, max(2, max_neurons - n_prog))
    regular = [f"r{i}" for i in range(n_reg)]
    drivers = [f"p{i}" for i in range(n_prog)]

    neurons = []
    for name in regular:
        threshold = Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))
        reset = Fraction(rng.randint(0, 4), rng.choice((1, 2)))
        neurons.append(NeuronSpec(name, threshold, reset, rng.choice(_LEAKS)))
    accept, reject = rng.sample(regular, 2)
    if accept_reset_below_threshold:
        idx = regular.index(accept)
        spec = neurons[idx]
        threshold = spec.reset + Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        neurons[idx] = NeuronSpec(spec.id, threshold, spec.reset, spec.leak)

    programmed = {name: _random_schedule(rng) for name in drivers}
    everyone = regular + drivers
    synapses = []
    for _ in range(rng.randint(n_reg, max_synapses)):
        pre = rng.choice(everyone)
        # A small share of synapses lands on programmed neurons to exercise
        # the inputs-are-ignored rule.
        post = rng.choice(drivers) if rng.random() < 0.1 else rng.choice(regular)
        synapses.append(
            SynapseSpec(
                pre,
                post,
                delay=rng.randint(1, 5),
                weight=Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
            )
        )
    return Network(
        neurons=tuple(neurons),
        programmed=programmed,
        synapses=tuple(synapses),
        accept=accept,
        reject=reject,
    )


def sparse_benchmark_network(neurons: int, seed: int) -> Network:
    """A large sparse network with sustained activity and a fixed step count.

    Built for wall-clock scaling measurements: integer weights and leaks in
    {0, 1} keep the exact arithmetic in small integers, and the designated
    verdict neurons are unreachable so a run always lasts exactly max_steps.
    """
    if neurons < 10:
        raise ValueError("benchmark network needs at least 10 neurons")
    rng = Random(seed)
    n_drivers = max(4, neurons // 50)
    body = [f"n{i}" for i in range(neurons - n_drivers - 2)]
    specs = []
    for name in body:
        specs.append(
            NeuronSpec(
                name,
                # Thresholds above the unit weight plus a share of inhibitory
                # synapses keep propagation subcritical, so steady activity
                # settles at a moderate driver-sustained level.
                threshold=Fraction(rng.choice((2, 3, 3, 4))),
                reset=Fraction(rng.choice((0, 0, 1))),
                leak=Fraction(rng.choice((1, 1, 1, 0))),
            )
        )
    # Verdict neurons with no incoming synapses: they can never fire, so the
    # run always times out at the step cap.
    specs.append(NeuronSpec("halt_acc"))
    specs.append(NeuronSpec("halt_rej"))
    programmed = {
        f"drv{i}": PeriodicSchedule(offset=rng.randint(0, 2), period=rng.randint(2, 5))
        for i in range(n_drivers)
    }
    synapses = []
    for name in body:
        for _ in range(_SPARSE_FANOUT):
            synapses.append(
                SynapseSpec(
                    name,
                    rng.choice(body),
                    delay=rng.randint(1, 8),
                    weight=Fraction(rng.choice((1, 1, 1, -1))),
                )
            )
    for name in programmed:
        for _ in range(_SPARSE_FANOUT * 2):
            synapses.append(
                SynapseSpec(
                    name,
                    rng.choice(body),
                    delay=rng.randint(1, 4),
                    weight=Fraction(rng.choice((1, 1, 2))),
                )
            )
    return Network(
        neurons=tuple(specs),
        programmed=programmed,
        synapses=tuple(synapses),
        accept="halt_acc",
        reject="halt_rej",
    )
