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

The module also registers the three compilers with the harness as
`array-search-a|b|c`, each with its brute-force reference, its instance
enumerator and sampler for equivalence sweeps, and the split of an instance
into compile arguments and port schedules that lets a sweep share one
compiled structure among instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Mapping

from .harness import (
    CompiledStructure,
    CompilerEntry,
    Domain,
    composed_build,
    register_compiler,
)
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


def _check_values(bound: int, target: int | None = None, elements: Iterable[int] = ()) -> None:
    """Raise ValueError unless bound >= 1 and the target and elements lie below it."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if target is not None and not 0 <= target < bound:
        raise ValueError("target must satisfy 0 <= target < bound")
    for value in elements:
        if not 0 <= value < bound:
            raise ValueError("array elements must satisfy 0 <= element < bound")


@dataclass(frozen=True)
class ArrayInstance:
    """A search instance: elements, target, and the exclusive value bound."""

    elements: tuple[int, ...]
    target: int
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        _check_values(self.bound, self.target, self.elements)

    def __str__(self) -> str:
        return f"array={','.join(map(str, self.elements))} target={self.target} bound={self.bound}"

    @property
    def size(self) -> int:
        return len(self.elements)


def contains_target(instance: ArrayInstance) -> bool:
    """Brute-force membership reference the networks are checked against."""
    return instance.target in instance.elements


# The family's name for its compiled structures: the package exports it and
# perfbench's tracer patches its `bind`.
CompiledSearch = CompiledStructure


# Exact constants, so building a network coerces no parameter.
_ZERO, _INHIBIT = Fraction(0), Fraction(-1)


@lru_cache(maxsize=64)
def _detector_parameters(m: int) -> tuple[Fraction, Fraction]:
    """The detector's element weight 1/m and threshold (m+1)/m, built once per m."""
    return Fraction(1, m), Fraction(m + 1, m)


def _wire_common(builder: NetworkBuilder, n: int) -> None:
    # Detector fires only on value+element coincidence; duplicates alone
    # sum to at most n * (1/n) = 1 < threshold 1 + 1/n.
    weight, threshold = _detector_parameters(max(n, 1))
    builder.add_neuron(DETECTOR, threshold=threshold, reset=_ZERO, leak=_ZERO)
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
            DETECTOR, REJECTOR, delay=instance.bound + 1 - instance.target, weight=_INHIBIT
        )
    return builder.build()


def compile_search_value_input(
    elements: Iterable[int], bound: int, builder: NetworkBuilder | None = None
) -> CompiledSearch:
    """Variant b: elements embedded, the value arrives on an open port."""
    elements = tuple(elements)
    _check_values(bound, elements=elements)
    builder = builder if builder is not None else NetworkBuilder()
    for j, value in enumerate(elements):
        builder.add_input(element_port(j), one_shot(value))
    builder.add_input(VALUE_PORT, ExplicitSchedule())
    n = len(elements)
    _wire_common(builder, n)
    _wire_delay_invariant_reject(builder, n, bound)
    return CompiledSearch(builder.build(), (VALUE_PORT,))


def compile_search_full_input(
    size: int, bound: int, builder: NetworkBuilder | None = None
) -> CompiledSearch:
    """Variant c: only the array length is fixed; everything arrives on ports."""
    if size < 0:
        raise ValueError("size must be >= 0")
    _check_values(bound)
    builder = builder if builder is not None else NetworkBuilder()
    for j in range(size):
        builder.add_input(element_port(j), ExplicitSchedule())
    builder.add_input(VALUE_PORT, ExplicitSchedule())
    _wire_common(builder, size)
    _wire_delay_invariant_reject(builder, size, bound)
    ports = tuple(element_port(j) for j in range(size)) + (VALUE_PORT,)
    return CompiledSearch(builder.build(), ports)


def _wire_delay_invariant_reject(builder: NetworkBuilder, n: int, bound: int) -> None:
    # Excitation (via value, delay V+1) and inhibition (via detector, delay V)
    # both land at step i + V + 1 whatever i is, cancelling iff a match fired
    # the detector at i + 1.
    builder.add_synapse(VALUE_PORT, REJECTOR, delay=bound + 1)
    if n >= 1:
        builder.add_synapse(DETECTOR, REJECTOR, delay=bound, weight=_INHIBIT)


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
        _check_values(bound, target)
        return {VALUE_PORT: one_shot(target)}
    if variant == "c":
        if target is None or elements is None:
            raise ValueError("variant c encodes the elements and the target value")
        elements = tuple(elements)
        _check_values(bound, target, elements)
        schedules = {element_port(j): one_shot(value) for j, value in enumerate(elements)}
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


def _instance_in_range(elements: tuple[int, ...], target: int, bound: int) -> ArrayInstance:
    """An ArrayInstance built without its checks, for values already known in range.

    The caller guarantees what `ArrayInstance.__post_init__` would check:
    `elements` is a tuple, bound >= 1, and every value lies in range(bound).
    """
    instance = object.__new__(ArrayInstance)  # skips the frozen __init__ and its checks
    object.__setattr__(instance, "elements", elements)
    object.__setattr__(instance, "target", target)
    object.__setattr__(instance, "bound", bound)
    return instance


def _enumerate_array_instances(domain: Domain) -> Iterator[ArrayInstance]:
    # Every value is drawn from range(V), and Domain has checked V >= 1, so
    # each instance is in range by construction and is not checked again.
    bound = domain.max_val
    values = range(bound)
    for length in range(domain.max_len + 1):
        for elements in itertools.product(values, repeat=length):
            for target in values:
                yield _instance_in_range(elements, target, bound)


def _sample_array_instance(rng: Random, domain: Domain) -> ArrayInstance:
    length = rng.randint(0, domain.random_max_len)
    bound = domain.random_max_val
    elements = tuple(rng.randrange(bound) for _ in range(length))
    return ArrayInstance(elements, rng.randrange(bound), bound)


def _array_search_entry(variant: str) -> CompilerEntry:
    # The compilers and encode_input are looked up as module globals at call
    # time, so wrappers installed on this module (profilers, tracers) see
    # every call.
    if variant == "a":
        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            return (instance,), {}

        def compile(instance: ArrayInstance, builder: NetworkBuilder) -> CompiledSearch:
            return CompiledSearch(compile_search_embedded(instance, builder), ())

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            raise ValueError("variant a needs --target")
    elif variant == "b":
        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            schedules = encode_input("b", bound=instance.bound, target=instance.target)
            return (instance.elements, instance.bound), schedules

        def compile(elements, bound: int, builder: NetworkBuilder) -> CompiledSearch:
            return compile_search_value_input(elements, bound, builder)

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            return (array, bound)
    else:
        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            schedules = encode_input(
                "c", bound=instance.bound, target=instance.target, elements=instance.elements
            )
            return (instance.size, instance.bound), schedules

        def compile(size: int, bound: int, builder: NetworkBuilder) -> CompiledSearch:
            return compile_search_full_input(size, bound, builder)

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            return (len(array) if size is None else size, bound)

    def from_flags(
        array: tuple[int, ...], size: int | None, target: int | None, bound: int
    ) -> tuple[tuple, Mapping[str, object] | None]:
        # --size only stands in for variant c's element ports when neither
        # elements nor a target are given; otherwise it must match --array.
        stands_in = variant == "c" and not array and target is None
        if size is not None and size != len(array) and not stands_in:
            raise ValueError("--size disagrees with --array")
        if target is None:
            return unbound(array, size, bound), None
        return split(ArrayInstance(array, target, bound))

    return CompilerEntry(
        name=f"array-search-{variant}",
        size_of=lambda instance: instance.size,
        build=composed_build(split, compile),
        reference=contains_target,
        step_limit=lambda instance: step_limit(variant, instance.bound),
        enumerate_domain=_enumerate_array_instances,
        sample=_sample_array_instance,
        payload_bound=lambda instance: payload_energy_bound(variant, instance.size),
        split=split,
        compile=compile,
        from_flags=from_flags,
    )


for _variant in VARIANTS:
    register_compiler(_array_search_entry(_variant))
