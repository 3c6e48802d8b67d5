"""Brute-force reference simulator used as an independent oracle.

Deliberately naive and structurally unlike the package engine: it iterates
over every neuron on every step, keeps potentials as Fractions, and stores
each delivery individually. Agreement between this and the event-driven
kernels is the main correctness check for the engine. Besides the firings it
logs the exact state after every step, so the kernels' integer-scaled
potentials and pending deliveries can be checked once converted back.
"""

from dataclasses import dataclass
from fractions import Fraction

from snnkit.model import ExplicitSchedule, Network


def fires_at(sched, t: int) -> bool:
    """Whether a programmed neuron on schedule `sched` fires at step t."""
    if isinstance(sched, ExplicitSchedule):
        return t in sched.times
    return t >= sched.offset and (t - sched.offset) % sched.period == 0


@dataclass
class ReferenceRun:
    verdict: str
    time: int
    energy: int
    payload_energy: int
    fired_log: list  # list of (t, tuple of fired ids)
    state_log: list  # per executed step: ({id: potential}, {(arrival, post): summed weight})


def simulate_reference(network: Network, max_steps: int) -> ReferenceRun:
    regular = {spec.id: spec for spec in network.neurons}
    all_ids = sorted(set(regular) | set(network.programmed))
    potentials = {name: Fraction(0) for name in regular}
    pending = []  # (arrival, post, weight)
    energy = 0
    payload = 0
    fired_log = []
    state_log = []
    verdict = "timeout"
    time = max_steps
    zero = Fraction(0)
    for t in range(max_steps):
        inputs = {}
        still_pending = []
        for arrival, post, weight in pending:
            if arrival == t:
                inputs[post] = inputs.get(post, zero) + weight
            else:
                still_pending.append((arrival, post, weight))
        pending = still_pending
        fired = []
        for name in all_ids:
            if name in network.programmed:
                if fires_at(network.programmed[name], t):
                    fired.append(name)
                continue
            spec = regular[name]
            v = spec.leak * potentials[name] + inputs.get(name, zero)
            if v < 0:
                v = zero
            if v >= spec.threshold:
                fired.append(name)
                potentials[name] = spec.reset
            else:
                potentials[name] = v
        for name in fired:
            energy += 1
            if name not in network.gadget_tags:
                payload += 1
            for syn in network.synapses:
                if syn.pre == name:
                    pending.append((t + syn.delay, syn.post, syn.weight))
        if fired:
            fired_log.append((t, tuple(fired)))
        summed = {}
        for arrival, post, weight in pending:
            summed[(arrival, post)] = summed.get((arrival, post), zero) + weight
        state_log.append((dict(potentials), summed))
        acc = network.accept is not None and network.accept in fired
        rej = network.reject is not None and network.reject in fired
        if acc or rej:
            verdict = "ambiguous" if (acc and rej) else ("accept" if acc else "reject")
            time = t + 1
            break
    return ReferenceRun(verdict, time, energy, payload, fired_log, state_log)
