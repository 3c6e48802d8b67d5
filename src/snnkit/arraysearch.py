"""Instance-to-network compilers for array membership search.

Given an array A of naturals and a target value i (all below an exclusive
bound V), the compiled network accepts iff i occurs in A. Three variants
trade generality against spikes:

* variant a: both A and i baked into the network as one-shot spike times;
* variant b: A baked in, i supplied at run time on a value port;
* variant c: only the array length fixed; A and i both supplied on ports.

All variants share the coincidence detector: element spikes reach it with
weight 1/n and the value spike with weight 1 through delay-1 synapses, and
its threshold 1 + 1/n (memoryless, leak 0) is crossed exactly when the
value spike lands together with at least one element spike. The 1/n element
weights keep any number of duplicate elements alone below threshold.
Acceptance therefore happens at step i + 1.

Rejection fires on a deadline after every possible accept: in variant a the
value neuron excites reject at the build-time-known step V + 2; in b/c the
excitation travels i + (V+1) steps while the detector's inhibition travels
(i+1) + V steps, landing together and cancelling exactly when a match
occurred. Measured payload spikes stay within n+2 / n+3 / 2n+2 for a/b/c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import (
    ExplicitSchedule,
    Network,
    NetworkBuilder,
    one_shot,
)

VARIANTS = ("a", "b", "c")

VALUE_PORT = "val"
DETECTOR = "acc"
REJECTOR = "rej"


def element_port(j: int) -> str:
    return f"a{j}"


@dataclass(frozen=True)
class ArrayInstance:
    """A search instance: elements, target, and the exclusive value bound."""

    elements: tuple[int, ...]
    target: int
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if not 0 <= self.target < self.bound:
            raise ValueError("target must satisfy 0 <= target < bound")
        for value in self.elements:
            if not 0 <= value < self.bound:
                raise ValueError("array elements must satisfy 0 <= element < bound")

    @property
    def size(self) -> int:
        return len(self.elements)


def contains_target(instance: ArrayInstance) -> bool:
    """Brute-force membership reference the networks are checked against."""
    return instance.target in instance.elements


@dataclass(frozen=True)
class CompiledSearch:
    """A compiled network with open input ports awaiting spike schedules."""

    network: Network
    variant: str
    input_ports: tuple[str, ...]
    size: int
    bound: int

    def check_ports(self, schedules: Mapping[str, object]) -> None:
        """Raise ValueError unless `schedules` names exactly the input ports."""
        unknown = set(schedules) - set(self.input_ports)
        if unknown:
            raise ValueError(f"unknown input ports: {sorted(unknown)}")
        missing = set(self.input_ports) - set(schedules)
        if missing:
            raise ValueError(f"ports left unbound: {sorted(missing)}")

    def bind(self, schedules: Mapping[str, object]) -> Network:
        """Fill every port with a schedule; arity must match exactly."""
        self.check_ports(schedules)
        return self.network.bind_schedules(schedules)


def _detector_weight(n: int) -> Fraction:
    return Fraction(1, max(n, 1))


def _wire_common(builder: NetworkBuilder, n: int) -> None:
    # Detector fires only on value+element coincidence; duplicates alone
    # sum to at most n * (1/n) = 1 < threshold.
    weight = _detector_weight(n)
    builder.add_neuron(DETECTOR, threshold=1 + weight, reset=0, leak=0)
    builder.add_neuron(REJECTOR)
    for j in range(n):
        builder.add_synapse(element_port(j), DETECTOR, weight=weight)
    if n >= 1:
        builder.add_synapse(VALUE_PORT, DETECTOR)
    builder.set_accept(DETECTOR)
    builder.set_reject(REJECTOR)


def compile_search_embedded(
    instance: ArrayInstance, builder: NetworkBuilder | None = None
) -> Network:
    """Variant a: the whole instance is encoded in the network."""
    builder = builder if builder is not None else NetworkBuilder()
    for j, value in enumerate(instance.elements):
        builder.add_input(element_port(j), one_shot(value))
    builder.add_input(VALUE_PORT, one_shot(instance.target))
    _wire_common(builder, instance.size)
    # Deadline step V+2 is computable at build time because i is embedded.
    builder.add_synapse(VALUE_PORT, REJECTOR, delay=instance.bound + 2 - instance.target)
    if instance.size >= 1:
        builder.add_synapse(
            DETECTOR, REJECTOR, delay=instance.bound + 1 - instance.target, weight=-1
        )
    return builder.build()


def compile_search_value_input(
    elements: Iterable[int], bound: int, builder: NetworkBuilder | None = None
) -> CompiledSearch:
    """Variant b: elements embedded, the value arrives on an open port."""
    elements = tuple(elements)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for value in elements:
        if not 0 <= value < bound:
            raise ValueError("array elements must satisfy 0 <= element < bound")
    builder = builder if builder is not None else NetworkBuilder()
    for j, value in enumerate(elements):
        builder.add_input(element_port(j), one_shot(value))
    builder.add_input(VALUE_PORT, ExplicitSchedule())
    n = len(elements)
    _wire_common(builder, n)
    _wire_delay_invariant_reject(builder, n, bound)
    return CompiledSearch(
        network=builder.build(),
        variant="b",
        input_ports=(VALUE_PORT,),
        size=n,
        bound=bound,
    )


def compile_search_full_input(
    size: int, bound: int, builder: NetworkBuilder | None = None
) -> CompiledSearch:
    """Variant c: only the array length is fixed; everything arrives on ports."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    builder = builder if builder is not None else NetworkBuilder()
    for j in range(size):
        builder.add_input(element_port(j), ExplicitSchedule())
    builder.add_input(VALUE_PORT, ExplicitSchedule())
    _wire_common(builder, size)
    _wire_delay_invariant_reject(builder, size, bound)
    return CompiledSearch(
        network=builder.build(),
        variant="c",
        input_ports=tuple(element_port(j) for j in range(size)) + (VALUE_PORT,),
        size=size,
        bound=bound,
    )


def _wire_delay_invariant_reject(builder: NetworkBuilder, n: int, bound: int) -> None:
    # Excitation (via value, delay V+1) and inhibition (via detector, delay V)
    # both land at step i + V + 1 whatever i is, cancelling iff a match fired
    # the detector at i + 1.
    builder.add_synapse(VALUE_PORT, REJECTOR, delay=bound + 1)
    if n >= 1:
        builder.add_synapse(DETECTOR, REJECTOR, delay=bound, weight=-1)


def encode_input(
    variant: str,
    *,
    bound: int,
    target: int | None = None,
    elements: Iterable[int] | None = None,
) -> dict[str, ExplicitSchedule]:
    """Turn instance values into one-spike port schedules (spike at the value)."""
    if variant == "b":
        if target is None or elements is not None:
            raise ValueError("variant b encodes exactly the target value")
        if not 0 <= target < bound:
            raise ValueError("target must satisfy 0 <= target < bound")
        return {VALUE_PORT: one_shot(target)}
    if variant == "c":
        if target is None or elements is None:
            raise ValueError("variant c encodes the elements and the target value")
        schedules = {}
        for j, value in enumerate(elements):
            if not 0 <= value < bound:
                raise ValueError("array elements must satisfy 0 <= element < bound")
            schedules[element_port(j)] = one_shot(value)
        if not 0 <= target < bound:
            raise ValueError("target must satisfy 0 <= target < bound")
        schedules[VALUE_PORT] = one_shot(target)
        return schedules
    raise ValueError(f"no input encoding for variant {variant!r}")


def payload_energy_bound(variant: str, size: int) -> int:
    """Guaranteed per-run payload spike ceiling for each variant."""
    if variant == "a":
        return size + 2
    if variant == "b":
        return size + 3
    if variant == "c":
        return 2 * size + 2
    raise ValueError(f"unknown variant {variant!r}")


def step_limit(variant: str, bound: int) -> int:
    """Safe max_steps: every compiled network reaches a verdict within this."""
    # Latest verdict: reject at V+2 (a) or at i+V+1 <= 2V (b, c).
    return 2 * bound + 4


def expected_accept_step(instance: ArrayInstance) -> int:
    return instance.target + 1


def expected_reject_step(variant: str, instance: ArrayInstance) -> int:
    if variant == "a":
        return instance.bound + 2
    return instance.target + instance.bound + 1
