"""Reusable network fragments and resource-guard augmentations.

The fragment constructors build the standard small circuits: a continuously
firing neuron, a clock with period K, and the temporal encoding of a natural
number n < K as a fixed lag of n+1 steps behind the clock. Both clock-style
circuits are driven by a one-shot programmed neuron through a delay-1
synapse, so their output phase is offset by one step: the clock ticks at
t = 1, 1+K, 1+2K, ...

`attach_timer` and `attach_meter` bolt a hard step deadline / spike budget
onto an existing decision network. Each adds a single instrumentation
neuron (tagged as a gadget so its spikes are excluded from payload energy),
wired to the verdict neurons by the same two guard synapses:

* timer: a one-shot programmed neuron whose delayed synapses inhibit accept
  and excite reject at step t_bound + 1, forcing a verdict by then. When the
  network has no reject neuron, a default one is created and designated.
* meter: an integrator E with threshold = reset = e_bound and leak 1 that
  counts every payload spike via weight-1 delay-1 synapses. Once the count
  reaches e_bound, E fires every step, inhibiting accept (cancelling any
  possible input sum) and exciting reject.

The meter's acceptance guarantee is conditional: the inhibition cancels
current inputs but not stored potential, so it only blocks acceptance when
the accept neuron's reset lies below its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .model import Network, NetworkBuilder, NeuronSpec, SynapseSpec, one_shot


@dataclass(frozen=True)
class Fragment:
    """A network piece with a named output neuron.

    `network` is the network the fragment's builder built. It carries no
    accept/reject designation; `merge` composes fragments (and whole
    networks) into a runnable network.
    """

    network: Network
    output: str

    def to_network(self) -> Network:
        return self.network


def fresh_id(base: str, taken: Iterable[str]) -> str:
    """Smallest non-colliding id of the form base, base_2, base_3, ..."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def make_constant_firer(prefix: str = "const") -> Fragment:
    """A clock of period 1: its output fires at every t >= 1."""
    return make_clock(1, prefix)


def make_clock(period: int, prefix: str = "clk") -> Fragment:
    """Clock ticking at t = 1, 1+K, 1+2K, ... via a self-synapse of delay K."""
    if period < 1:
        raise ValueError("clock period must be >= 1")
    builder = NetworkBuilder()
    seed = builder.add_input(f"{prefix}_seed", one_shot(0))
    out = builder.add_neuron(f"{prefix}_out")
    builder.add_synapse(seed, out)
    builder.add_synapse(out, out, delay=period)
    return Fragment(builder.build(validate=False), out)


def make_number(value: int, period: int, prefix: str = "num") -> Fragment:
    """Temporal encoding of value < period: output lags the clock by value+1 steps.

    Fire times are 2 + value + j*period; the (clock output, number output)
    pair encodes the number as the fixed lag.
    """
    if value < 0:
        raise ValueError("encoded value must be >= 0")
    if value >= period:
        raise ValueError("encoded value must be < the clock period")
    clock = make_clock(period, prefix=f"{prefix}_clk")
    builder = NetworkBuilder()
    builder.add_network(clock.network)
    out = builder.add_neuron(f"{prefix}_out")
    builder.add_synapse(clock.output, out, delay=value + 1)
    return Fragment(builder.build(validate=False), out)


def _guard_builder(network: Network, gadget: str) -> NetworkBuilder:
    """A builder holding `network`, whose verdict neurons a guard can drive.

    The network needs an accept neuron, and each verdict neuron must be a
    regular neuron of it, since programmed neurons ignore their inputs. An
    id the builder refuses, or a verdict that names no regular neuron,
    raises ValueError.
    """
    if network.accept is None:
        raise ValueError(f"{gadget} needs a network with an accept neuron")
    builder = NetworkBuilder()
    builder.add_network(network)
    for name in (network.accept, network.reject):
        if name is not None and (not builder.has(name) or name in network.programmed):
            why = "; programmed neurons ignore inputs" if builder.has(name) else ""
            raise ValueError(f"{gadget} needs a regular {name!r} verdict neuron{why}")
    return builder


def _wire_guard(
    builder: NetworkBuilder,
    network: Network,
    guard: str,
    delay: int,
    reject: NeuronSpec | None,
) -> None:
    """Synapses by which a spike of `guard` blocks accept and fires reject `delay` steps later.

    The synapse into accept carries -(sum of |w| into accept), cancelling
    any possible excitation; the one into reject carries reject's threshold
    plus the sum of |w| into it, guaranteeing a reject spike.
    """
    accept = network.accept
    verdicts = (accept,) if reject is None else (accept, reject.id)
    magnitude = network.incoming_weight_magnitudes(verdicts)
    builder.add_synapse(guard, accept, delay, -magnitude[accept])
    if reject is not None:
        builder.add_synapse(guard, reject.id, delay, reject.threshold + magnitude[reject.id])


def attach_timer(network: Network, t_bound: int) -> Network:
    """Force a verdict by step t_bound + 1 (inclusive).

    Adds one gadget-tagged one-shot timer neuron whose guard synapses have
    delay t_bound + 1. A missing reject neuron is created with default
    parameters and designated.
    """
    if t_bound < 0:
        raise ValueError("t_bound must be >= 0")
    builder = _guard_builder(network, "attach_timer")
    taken = network.ids()
    timer = fresh_id("timer", taken)
    builder.add_input(timer, one_shot(0))
    builder.tag_gadget(timer)
    if network.reject is None:
        reject = NeuronSpec(fresh_id("rej", taken | {timer}))
        builder.add_neuron(reject.id)
        builder.tag_gadget(reject.id)
    else:
        reject = network.neuron(network.reject)
    _wire_guard(builder, network, timer, t_bound + 1, reject)
    builder.set_accept(network.accept)
    builder.set_reject(reject.id)
    return builder.build(validate=False)


def attach_meter(network: Network, e_bound: int) -> Network:
    """Cut off acceptance once payload spikes reach e_bound.

    Adds one gadget-tagged counter neuron fed (delay 1, weight 1) by every
    pre-existing payload neuron, with delay-1 guard synapses. Instrumentation
    neurons, including the counter itself and any timer, do not feed the
    counter: self-counting would corrupt the budget.
    """
    if e_bound < 1:
        raise ValueError("e_bound must be >= 1")
    builder = _guard_builder(network, "attach_meter")
    reject = None if network.reject is None else network.neuron(network.reject)
    ids = network.ids()
    meter = fresh_id("meter", ids)
    bound = Fraction(e_bound)
    builder.add_neuron(meter, threshold=bound, reset=bound)
    builder.tag_gadget(meter)
    for name in ids - network.gadget_tags:
        builder.add_synapse(name, meter)
    _wire_guard(builder, network, meter, 1, reject)
    builder.set_accept(network.accept)
    builder.set_reject(network.reject)
    return builder.build(validate=False)


def merge(
    parts: Iterable[Union[Fragment, Network]],
    cross_synapses: Iterable[SynapseSpec] = (),
    accept: str | None = None,
    reject: str | None = None,
) -> Network:
    """Disjoint union of fragments/networks plus caller-supplied wiring.

    Part ids must be pairwise disjoint (fragments are namespaced by their
    construction prefix). Verdict designations come from the caller only;
    designations carried by merged networks are discarded. The result is
    validated, so dangling cross-synapse endpoints are rejected.
    """
    builder = NetworkBuilder()
    for part in parts:
        builder.add_network(part.network if isinstance(part, Fragment) else part)
    for syn in cross_synapses:
        builder.add_synapse(syn.pre, syn.post, syn.delay, syn.weight)
    builder.set_accept(accept)
    builder.set_reject(reject)
    return builder.build()
