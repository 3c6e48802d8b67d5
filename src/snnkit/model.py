"""Core model types for the spiking-network machine.

A network is a labeled digraph of neurons and synapses. Regular neurons carry
exact-rational dynamics parameters (threshold, reset, leak); programmed
neurons fire on a predetermined schedule and ignore their inputs entirely.
All numeric parameters are `fractions.Fraction` values, never floats, so
simulation is exact and bit-for-bit reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Union

DEFAULT_THRESHOLD = Fraction(1)
DEFAULT_RESET = Fraction(0)
DEFAULT_LEAK = Fraction(1)
DEFAULT_DELAY = 1
DEFAULT_WEIGHT = Fraction(1)

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


class InvalidNetworkError(ValueError):
    """A network violates one or more structural invariants."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def is_valid_id(name: object) -> bool:
    """Identifiers are nonempty strings over letters, digits, underscore."""
    return isinstance(name, str) and bool(_ID_RE.match(name))


def parse_int(text: str) -> int:
    """Parse an ASCII integer `-?[0-9]+`; `+4`, `1_0` and non-ASCII digits raise ValueError."""
    if not _INT_RE.match(text):
        raise ValueError(f"malformed integer {text!r} (expected -?[0-9]+)")
    return int(text)  # also ValueError with more digits than int() converts


def parse_rational(text: str) -> Fraction:
    """Parse `p` or `p/q` (q > 0) into an exact fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed rational {text!r} (expected p or p/q)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"malformed rational {text!r} (zero denominator)")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Lowest-terms text form: `p` when the denominator is 1, else `p/q`."""
    return str(Fraction(value))


def _rat(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class NeuronSpec:
    """A regular neuron: threshold, reset voltage, and leakage constant."""

    id: str
    threshold: Fraction = DEFAULT_THRESHOLD
    reset: Fraction = DEFAULT_RESET
    leak: Fraction = DEFAULT_LEAK

    def __post_init__(self):
        # Most specs are built from values that are already Fractions.
        if type(self.threshold) is not Fraction:
            object.__setattr__(self, "threshold", _rat(self.threshold))
        if type(self.reset) is not Fraction:
            object.__setattr__(self, "reset", _rat(self.reset))
        if type(self.leak) is not Fraction:
            object.__setattr__(self, "leak", _rat(self.leak))


# A NamedTuple class may not define `__new__`, so the coercing constructor
# lives in the subclass below.
class _SynapseFields(NamedTuple):
    pre: str
    post: str
    delay: int = DEFAULT_DELAY
    weight: Fraction = DEFAULT_WEIGHT


class SynapseSpec(_SynapseFields):
    """A directed connection with a whole-step delay and a signed weight.

    A synapse is the model's 4-tuple `(pre, post, delay, weight)`, so it
    equals the plain tuple of its fields and sorts by them in that order.
    Every constructor, `_make` and `_replace` included, coerces the weight to
    a Fraction.
    """

    __slots__ = ()

    def __new__(
        cls,
        pre: str,
        post: str,
        delay: int = DEFAULT_DELAY,
        weight: object = DEFAULT_WEIGHT,
    ):
        if type(weight) is not Fraction:
            weight = _rat(weight)
        return tuple.__new__(cls, (pre, post, delay, weight))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "SynapseSpec":
        # The inherited `_replace` builds through `_make`, so it coerces too.
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class ExplicitSchedule:
    """Finite spike train: a strictly increasing sequence of step numbers."""

    times: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.times) is not tuple:
            object.__setattr__(self, "times", tuple(self.times))


@dataclass(frozen=True, slots=True)
class PeriodicSchedule:
    """Infinite spike train firing at offset, offset+period, offset+2*period, ..."""

    offset: int
    period: int


SpikeSchedule = Union[ExplicitSchedule, PeriodicSchedule]


def one_shot(t: int) -> ExplicitSchedule:
    """Schedule with a single spike at step t."""
    return ExplicitSchedule((t,))


def as_schedule(value: object) -> SpikeSchedule:
    """Coerce an iterable of step numbers into an explicit schedule."""
    if isinstance(value, (ExplicitSchedule, PeriodicSchedule)):
        return value
    if isinstance(value, Iterable):
        return ExplicitSchedule(tuple(value))
    raise TypeError(f"cannot interpret {value!r} as a spike schedule")


def _hashable(name: object) -> bool:
    try:
        hash(name)
    except TypeError:
        return False
    return True


def _id_order(name: object) -> tuple[bool, str]:
    """One order for ids of any type: strings first, then the rest by `str`."""
    return (not isinstance(name, str), str(name))


@dataclass(frozen=True)
class Network:
    """Immutable network value: neurons, schedules, synapses, designations.

    Construction canonicalizes ordering (neurons by id, synapses by
    (pre, post, delay, weight)) so that structurally equal networks compare
    equal and serialize identically. `gadget_tags` marks instrumentation
    neurons whose spikes are excluded from payload energy accounting.
    """

    neurons: tuple[NeuronSpec, ...] = ()
    programmed: Mapping[str, SpikeSchedule] = field(default_factory=dict)
    synapses: tuple[SynapseSpec, ...] = ()
    accept: str | None = None
    reject: str | None = None
    gadget_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        neurons, names, synapses = list(self.neurons), list(self.programmed), list(self.synapses)
        try:
            neurons.sort(key=attrgetter("id"))
            names.sort()
            synapses.sort()
        except TypeError:
            # Only ids or delays of mixed types fail to compare, and
            # `validate_network` lists those, so valid networks never get here.
            neurons.sort(key=lambda spec: _id_order(spec.id))
            names.sort(key=_id_order)
            synapses.sort(key=lambda syn: (*map(_id_order, syn[:3]), syn.weight))
        object.__setattr__(self, "neurons", tuple(neurons))
        object.__setattr__(self, "programmed", {k: self.programmed[k] for k in names})
        object.__setattr__(self, "synapses", tuple(synapses))
        object.__setattr__(self, "gadget_tags", frozenset(self.gadget_tags))

    def ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.neurons) | frozenset(self.programmed)

    def neuron(self, name: str) -> NeuronSpec:
        for spec in self.neurons:
            if spec.id == name:
                return spec
        raise KeyError(name)

    def size(self) -> int:
        """Network size = neuron count (synapses are reported separately)."""
        return len(self.neurons) + len(self.programmed)

    def incoming_weight_magnitudes(self, posts: Iterable[str]) -> dict[str, Fraction]:
        """Sum of |weight| over the synapses into each of `posts`, in one walk.

        Each sum is an integer over a running common denominator, so the one
        reduction per name happens when its result is built. An unhashable
        post, which `validate_network` lists, is none of `posts`.
        """
        sums = dict.fromkeys(posts, (0, 1))
        for syn in self.synapses:
            try:
                hit = syn.post in sums
            except TypeError:
                continue
            if hit:
                total, den = sums[syn.post]
                p, q = syn.weight.as_integer_ratio()
                if den % q:
                    scale = lcm(den, q) // den
                    total *= scale
                    den *= scale
                sums[syn.post] = (total + abs(p) * (den // q), den)
        return {post: Fraction(total, den) for post, (total, den) in sums.items()}

    def bind_schedules(self, bindings: Mapping[str, object]) -> "Network":
        """Replace the schedules of existing programmed neurons, checked by `checked_bindings`."""
        if not bindings:
            return self
        checked = checked_bindings(self.programmed, bindings)
        network = object.__new__(type(self))  # copy and swap: keys and their order stay
        vars(network).update(vars(self), programmed={**self.programmed, **checked})
        return network


def neuron_violations(spec: NeuronSpec) -> tuple[str, ...]:
    """Reasons a regular neuron's threshold, reset and leak break the model; () when none do.

    Each reason names its rule only; callers prefix where it was found.
    """
    reasons = ()
    if spec.threshold.numerator < 0:
        reasons += ("threshold must be >= 0",)
    if spec.reset.numerator < 0:
        reasons += ("reset must be >= 0",)
    if not 0 <= spec.leak.numerator <= spec.leak.denominator:
        reasons += ("leak must be in [0, 1]",)
    return reasons


def schedule_violations(sched: object) -> tuple[str, ...]:
    """Reasons a spike schedule breaks the model's rules; () when none do.

    Each reason names its rule only; callers prefix where it was found.
    """
    if isinstance(sched, ExplicitSchedule):
        increasing, prev = True, -1
        for t in sched.times:
            if type(t) is not int or t < 0:
                return ("schedule times must be integers >= 0",)
            increasing = increasing and t > prev
            prev = t
        return () if increasing else ("schedule times must be strictly increasing",)
    if not isinstance(sched, PeriodicSchedule):
        return ("not a spike schedule",)
    reasons = ()
    if type(sched.offset) is not int or sched.offset < 0:
        reasons += ("offset must be an integer >= 0",)
    if type(sched.period) is not int or sched.period < 1:
        reasons += ("period must be an integer >= 1",)
    return reasons


def delay_violations(delay: object) -> tuple[str, ...]:
    """Reasons a synapse delay breaks the model; () when it is an int >= 1."""
    return () if type(delay) is int and delay >= 1 else ("delay must be >= 1",)


def checked_bindings(
    programmed: Mapping[str, object], bindings: Mapping[str, object]
) -> dict[str, SpikeSchedule]:
    """Each binding as a schedule: the one rule for rebinding programmed neurons.

    Raises KeyError for a name that is not in `programmed`, and
    InvalidNetworkError with the messages `validate_network` gives for a
    malformed schedule.
    """
    checked = {}
    for name, value in bindings.items():
        if name not in programmed:
            raise KeyError(f"no programmed neuron {name!r} to bind")
        sched = as_schedule(value)
        reasons = schedule_violations(sched)
        if reasons:
            raise InvalidNetworkError(f"input {name}: {reason}" for reason in reasons)
        checked[name] = sched
    return checked


def validate_network(network: Network) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the network is well-formed. Messages name the
    offending element so violations can be traced back.
    """
    out: list[str] = []
    seen: set[str] = set()
    for spec in network.neurons:
        if not is_valid_id(spec.id):
            out.append(f"invalid neuron id {spec.id!r}")
            continue
        if spec.id in seen:
            out.append(f"duplicate id {spec.id!r}")
        seen.add(spec.id)
        for reason in neuron_violations(spec):
            out.append(f"neuron {spec.id}: {reason}")
    for name, sched in network.programmed.items():
        if not is_valid_id(name):
            out.append(f"invalid neuron id {name!r}")
            continue
        if name in seen:
            out.append(f"duplicate id {name!r}")
        seen.add(name)
        for reason in schedule_violations(sched):
            out.append(f"input {name}: {reason}")
    # `seen` holds valid ids only, all strings. An unhashable name makes the
    # quick pass raise; then every synapse takes the full check, types first.
    try:
        suspects = [
            syn for syn in network.synapses
            if delay_violations(syn.delay) or syn.pre not in seen or syn.post not in seen
        ]
    except TypeError:
        suspects = network.synapses
    for syn in suspects:
        label = f"synapse {syn.pre}->{syn.post}"
        if not (isinstance(syn.pre, str) and syn.pre in seen):
            out.append(f"{label}: unknown pre neuron {syn.pre!r}")
        if not (isinstance(syn.post, str) and syn.post in seen):
            out.append(f"{label}: unknown post neuron {syn.post!r}")
        for reason in delay_violations(syn.delay):
            out.append(f"{label}: {reason}")
    for role, name in (("accept", network.accept), ("reject", network.reject)):
        if name is not None and not (isinstance(name, str) and name in seen):
            out.append(f"{role} names unknown neuron {name!r}")
    if network.accept is not None and network.accept == network.reject:
        out.append(f"accept and reject are both {network.accept!r}")
    for name in sorted(network.gadget_tags, key=_id_order):
        if name not in seen:
            out.append(f"gadget tag names unknown neuron {name!r}")
    return out


def check_network(network: Network) -> Network:
    """Raise InvalidNetworkError unless the network is well-formed."""
    violations = validate_network(network)
    if violations:
        raise InvalidNetworkError(violations)
    return network


class NetworkBuilder:
    """Incremental network construction with duplicate-id detection.

    Whole networks go in through `add_network`, which is how the gadgets
    compose. `build()` validates the assembled network and raises on any
    violation, so networks produced through the builder are always
    well-formed. An unhashable id is refused where it is added, with
    `validate_network`'s `invalid neuron id` ValueError, adding nothing.
    """

    def __init__(self):
        self._neurons: list[NeuronSpec] = []
        self._programmed: dict[str, SpikeSchedule] = {}
        self._ids: set[str] = set()
        self._synapses: list[SynapseSpec] = []
        self._accept: str | None = None
        self._reject: str | None = None
        self._gadget_tags: set[str] = set()

    def has(self, name: str) -> bool:
        try:
            return name in self._ids
        except TypeError:  # unhashable, so never an id
            return False

    def _claim(self, name: object) -> None:
        """Raise ValueError unless `name` can be added as a new id."""
        try:
            taken = name in self._ids
        except TypeError:
            raise ValueError(f"invalid neuron id {name!r}") from None
        if taken:
            raise ValueError(f"duplicate id {name!r}")

    def add_neuron(
        self,
        name: str,
        threshold: object = DEFAULT_THRESHOLD,
        reset: object = DEFAULT_RESET,
        leak: object = DEFAULT_LEAK,
    ) -> str:
        self._claim(name)
        self._neurons.append(NeuronSpec(name, threshold, reset, leak))
        self._ids.add(name)
        return name

    def add_input(self, name: str, schedule: object) -> str:
        self._claim(name)
        self._programmed[name] = as_schedule(schedule)
        self._ids.add(name)
        return name

    def add_synapse(
        self,
        pre: str,
        post: str,
        delay: int = DEFAULT_DELAY,
        weight: object = DEFAULT_WEIGHT,
    ) -> None:
        self._synapses.append(SynapseSpec(pre, post, delay, weight))

    def add_network(self, network: Network) -> None:
        """Add a network's neurons, inputs, synapses and gadget tags, not its designations.

        Raises ValueError, adding nothing, when one of its ids is taken or unhashable.
        """
        names = [spec.id for spec in network.neurons]
        names.extend(network.programmed)
        try:
            taken = self._ids.intersection(names)
        except TypeError:
            unhashable = [name for name in names if not _hashable(name)]
            raise ValueError(f"invalid neuron id {unhashable[0]!r}") from None
        if taken:
            raise ValueError(f"id collision between merged parts: {sorted(taken, key=_id_order)}")
        self._neurons.extend(network.neurons)
        self._programmed.update(network.programmed)
        self._ids.update(names)
        self._synapses.extend(network.synapses)
        self._gadget_tags.update(network.gadget_tags)

    def set_accept(self, name: str) -> None:
        self._accept = name

    def set_reject(self, name: str) -> None:
        self._reject = name

    def tag_gadget(self, name: str) -> None:
        try:
            self._gadget_tags.add(name)
        except TypeError:
            raise ValueError(f"invalid neuron id {name!r}") from None

    def build(self, validate: bool = True) -> Network:
        network = Network(
            neurons=tuple(self._neurons),
            programmed=dict(self._programmed),
            synapses=tuple(self._synapses),
            accept=self._accept,
            reject=self._reject,
            gadget_tags=frozenset(self._gadget_tags),
        )
        if validate:
            check_network(network)
        return network
