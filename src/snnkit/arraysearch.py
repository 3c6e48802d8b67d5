"""Instance-to-network compilers for array membership search.

Given an array A of naturals and a target value i (all below an exclusive
bound V), the compiled network accepts iff i occurs in A. Three variants
trade generality against spikes:

* variant a: both A and i baked into the network as one-shot spike times;
* variant b: A baked in, i supplied at run time on a value port;
* variant c: only the array length fixed; A and i both supplied on ports.

The variants compile one network and differ only in which spikes they bind
at compile time and in reject's deadline. Each compiler takes only its
compile arguments and returns a `CompiledSearch`, the network and its open
input ports: none in a, the value port in b, every port in c.

Element spikes reach the coincidence detector with weight 1/n and the value
spike with weight 1 through delay-1 synapses, and its threshold 1 + 1/n
(memoryless, leak 0) is crossed exactly when the value spike lands together
with at least one element spike. The 1/n element weights keep any number of
duplicate elements alone below threshold. Acceptance therefore happens at
step i + 1.

Excitation reaches reject `deadline` steps after the value spike and the
detector's inhibition one step sooner, so the two cancel exactly on a match.
The deadline is V + 2 - i in a, which knows i, and V + 1 in b and c, so
reject fires at V + 2 (a) or i + V + 1 (b, c). Each variant's caps for
length n and bound V are declared once, in `_declared_caps`: TIME V+3 (a)
or 2V+1 (b, c), SPACE n+3 and payload ENERGY n+2, each reached on some
instance.

The module also registers the three compilers with the harness as
`array-search-a|b|c`, each with its brute-force reference, its instance
enumerator and sampler for equivalence sweeps, and the split of an instance
into compile arguments and port schedules that lets a sweep share one
compiled structure among instances. That split is the one input encoder:
b's and c's run-time values go on their ports as one-spike schedules, each
spike at the value.
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
    ResourceCaps,
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
    """Raise ValueError unless bound >= 1 and the target and elements lie below it, all ints."""
    if type(bound) is not int:
        raise ValueError("bound must be an integer")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if target is not None:
        if type(target) is not int:
            raise ValueError("target must be an integer")
        if not 0 <= target < bound:
            raise ValueError("target must satisfy 0 <= target < bound")
    for value in elements:
        if type(value) is not int:
            raise ValueError("array elements must be integers")
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
# `one_shot(value)`, one shared object per value: a schedule is frozen.
_spike_at = lru_cache(maxsize=256)(one_shot)


@lru_cache(maxsize=64)
def _detector_parameters(m: int) -> tuple[Fraction, Fraction]:
    """The detector's element weight 1/m and threshold (m+1)/m, built once per m."""
    return Fraction(1, m), Fraction(m + 1, m)


def _build_search(
    elements: list[ExplicitSchedule], value: ExplicitSchedule, deadline: int
) -> Network:
    """The one search network: port a<j> spikes on `elements[j]`, the value port on `value`.

    A variant leaves a port open by passing an `ExplicitSchedule()` placeholder.
    """
    builder = NetworkBuilder()
    # Detector fires only on value+element coincidence; duplicates alone
    # sum to at most n * (1/n) = 1 < threshold 1 + 1/n.
    weight, threshold = _detector_parameters(max(len(elements), 1))
    builder.add_neuron(DETECTOR, threshold=threshold, reset=_ZERO, leak=_ZERO)
    builder.add_neuron(REJECTOR)
    for j, schedule in enumerate(elements):
        builder.add_input(element_port(j), schedule)
        builder.add_synapse(element_port(j), DETECTOR, weight=weight)
    builder.add_input(VALUE_PORT, value)
    if elements:
        builder.add_synapse(VALUE_PORT, DETECTOR)
    builder.add_synapse(VALUE_PORT, REJECTOR, delay=deadline)
    if elements:
        builder.add_synapse(DETECTOR, REJECTOR, delay=deadline - 1, weight=_INHIBIT)
    builder.set_accept(DETECTOR)
    builder.set_reject(REJECTOR)
    return builder.build()


def compile_search_embedded(instance: ArrayInstance) -> CompiledSearch:
    """Variant a: the whole instance is encoded in the network, which has no open port."""
    elements = [_spike_at(value) for value in instance.elements]
    deadline = instance.bound + 2 - instance.target
    return CompiledSearch(_build_search(elements, _spike_at(instance.target), deadline), ())


def compile_search_value_input(elements: Iterable[int], bound: int) -> CompiledSearch:
    """Variant b: elements embedded, the value arrives on an open port."""
    elements = tuple(elements)
    _check_values(bound, elements=elements)
    schedules = [_spike_at(value) for value in elements]
    network = _build_search(schedules, ExplicitSchedule(), bound + 1)
    return CompiledSearch(network, (VALUE_PORT,))


def compile_search_full_input(size: int, bound: int) -> CompiledSearch:
    """Variant c: only the array length is fixed; everything arrives on ports."""
    if type(size) is not int:
        raise ValueError("size must be an integer")
    if size < 0:
        raise ValueError("size must be >= 0")
    _check_values(bound)
    network = _build_search([ExplicitSchedule()] * size, ExplicitSchedule(), bound + 1)
    return CompiledSearch(network, tuple(map(element_port, range(size))) + (VALUE_PORT,))


@lru_cache(maxsize=256)
def _declared_caps(variant: str, size: int, bound: int) -> ResourceCaps:
    """TIME runs to the latest verdict, a reject at V+2 (a) or at i+V+1 <= 2V (b, c)."""
    time = bound + 3 if variant == "a" else 2 * bound + 1
    return ResourceCaps(time=time, space=size + 3, energy=size + 2)


def step_limit(variant: str, bound: int) -> int:
    """Safe max_steps: every compiled network reaches a verdict within this."""
    return 2 * bound + 4


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
    # The compiler is looked up as a module global at call time, so
    # wrappers installed on this module (profilers, tracers) see every call.
    # `split` writes its port schedules straight from the instance, which
    # `ArrayInstance` or the sweep's `_instance_in_range` has already checked.
    if variant == "a":
        compiler = "compile_search_embedded"

        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            return (instance,), {}

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            raise ValueError("variant a needs --target")
    elif variant == "b":
        compiler = "compile_search_value_input"

        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            return (instance.elements, instance.bound), {VALUE_PORT: _spike_at(instance.target)}

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            return (array, bound)
    else:
        compiler = "compile_search_full_input"

        def split(instance: ArrayInstance) -> tuple[tuple, Mapping[str, object]]:
            schedules = {element_port(j): _spike_at(v) for j, v in enumerate(instance.elements)}
            schedules[VALUE_PORT] = _spike_at(instance.target)
            return (instance.size, instance.bound), schedules

        def unbound(array: tuple[int, ...], size: int | None, bound: int) -> tuple:
            _check_values(bound, elements=array)
            return (len(array) if size is None else size, bound)

    def compile(*args) -> CompiledSearch:
        return globals()[compiler](*args)

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
        caps=lambda instance: _declared_caps(variant, instance.size, instance.bound),
        split=split,
        compile=compile,
        from_flags=from_flags,
    )


for _variant in VARIANTS:
    register_compiler(_array_search_entry(_variant))
