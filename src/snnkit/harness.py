"""Resource-bounded generation harness and the network-halting oracle.

A problem is decided in this model by a metered generator that maps each
instance to a network, which then decides the instance within declared
TIME/SPACE/ENERGY budgets. The harness meters generation by the size of the
network the generator produced (one elementary operation per neuron,
synapse and scheduled spike, a stand-in for machine time), runs the
network, and compares every measured resource against its declared bound.

A compiler's `compile` takes only its compile arguments and returns a
`CompiledStructure`: a network with its open input ports, if any, and the one
rule for binding them.

The harness imports no problem family: each family's module (array search
in `arraysearch`) registers its own `CompilerEntry` records. The one entry
defined here, `constant-accept`, is the degenerate generator that shows why
generation must be metered at all.

`network_halting_oracle` answers the promise question "does this network,
promised to stay within the given resource caps, accept?". The caller is
never charged more than the caps imply: simulation is cut off at the time
and energy caps, and a run that leaves the promised envelope (timeout,
ambiguous verdict, or any measured resource above its cap) yields the
distinguished outcome "promise_violated" instead of an arbitrary bit.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from random import Random
from typing import Any, Callable, Iterable, Iterator, Mapping

from .engine import (
    ACCEPT,
    AMBIGUOUS,
    REJECT,
    TIMEOUT,
    Plan,
    ResourceReport,
    RunLimits,
    build_plan,
    run,
)
from .gadgets import attach_meter, attach_timer
from .model import ExplicitSchedule, Network, NetworkBuilder, _rat, _require_int, parse_int

ACCEPTED = "accepted"
REJECTED = "rejected"
PROMISE_VIOLATED = "promise_violated"


@dataclass(frozen=True)
class ResourceBound:
    """A declared bound intercept + slope * n on one resource at input size n.

    `constant` declares slope 0. Both coefficients are exact and >= 0, so
    every bound is nonnegative and nondecreasing over natural sizes. They are
    coerced as the builder coerces neuron parameters: a float raises TypeError.
    """

    applies_to: str
    intercept: Fraction
    slope: Fraction

    def __post_init__(self):
        if self.applies_to not in ("time", "space", "energy"):
            raise ValueError(f"unknown resource {self.applies_to!r}")
        intercept, slope = _rat(self.intercept), _rat(self.slope)
        if intercept < 0 or slope < 0:
            raise ValueError("bound coefficients must be >= 0")
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "slope", slope)

    @classmethod
    def constant(cls, value, applies_to: str) -> "ResourceBound":
        return cls(applies_to, value, 0)

    @classmethod
    def linear(cls, slope, intercept, applies_to: str) -> "ResourceBound":
        return cls(applies_to, intercept, slope)

    def _cap(self, n: int) -> int:
        """floor(intercept + slope * n), on integer pairs."""
        p, q = self.intercept.as_integer_ratio()
        r, s = self.slope.as_integer_ratio()
        return (p * s + r * q * n) // (q * s)


@dataclass(frozen=True)
class ResourceBounds:
    """Declared TIME/SPACE/ENERGY bound functions, each in the slot it applies to."""

    time: ResourceBound
    space: ResourceBound
    energy: ResourceBound

    def __post_init__(self):
        for slot in ("time", "space", "energy"):
            applies_to = getattr(self, slot).applies_to
            if applies_to != slot:
                raise ValueError(f"{slot} bound is declared for {applies_to}")

    def caps(self, n: int) -> "ResourceCaps":
        """Each bound at input size n, floored to an integer cap."""
        if n < 0:
            raise ValueError("input size must be >= 0")
        return ResourceCaps(self.time._cap(n), self.space._cap(n), self.energy._cap(n))


@dataclass(frozen=True)
class ResourceCaps:
    """Concrete caps at one input size, each exactly an int: ValueError names any other field."""

    time: int
    space: int
    energy: int

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_int(value, f"cap {name}")

    def exceeded(self, time: int, space: int, energy: int) -> tuple[str, ...]:
        """The resources measured above their caps, in time/space/energy order.

        Callers pass executed steps, payload SPACE and payload ENERGY.
        `network_halting_oracle` passes totals instead: it charges the host.
        """
        if time <= self.time and space <= self.space and energy <= self.energy:
            return ()
        over = (time > self.time, space > self.space, energy > self.energy)
        return tuple(name for name, is_over in zip(("time", "space", "energy"), over) if is_over)


@dataclass(frozen=True)
class GeneratorCost:
    """Elementary construction effort: one unit per neuron, synapse, or scheduled spike."""

    builder_ops: int
    peak_neurons: int
    peak_synapses: int

    @classmethod
    def of(cls, network: Network) -> "GeneratorCost":
        """The cost of generating `network`, read off what it holds.

        A periodic schedule counts as one scheduled spike. A generator never
        removes what it adds, so this is what its builder calls produced.
        """
        neurons = network.size()
        synapses = len(network.synapses)
        spikes = sum(
            len(sched.times) if isinstance(sched, ExplicitSchedule) else 1
            for sched in network.programmed.values()
        )
        return cls(neurons + synapses + spikes, neurons, synapses)


@dataclass(frozen=True)
class OracleAnswer:
    outcome: str
    report: ResourceReport


@dataclass(frozen=True)
class Instrument:
    """Which resource guards to build into the generated network."""

    timer: bool = False
    meter: bool = False


@dataclass(frozen=True)
class Decision:
    verdict: str
    cost: GeneratorCost
    report: ResourceReport
    size: int
    caps: ResourceCaps
    violations: tuple[str, ...]


@dataclass(frozen=True)
class CompiledStructure:
    """What a compiler's `compile` returns: a network with open input ports.

    `network` is the structure with its ports unscheduled, already validated:
    a compiler builds it with `NetworkBuilder.build()`, which checks it, so
    its users plan it without checking it again (`serialize_network` checks
    every network it writes). The harness,
    the command line and the host language, oracle calls included, bind
    ports only through `check_ports` and `bind`.
    """

    network: Network
    input_ports: tuple[str, ...]

    def check_ports(self, schedules: Mapping[str, object]) -> None:
        """Raise ValueError unless `schedules` names exactly the input ports."""
        ports = set(self.input_ports)
        if schedules.keys() == ports:
            return
        unknown = schedules.keys() - ports
        if unknown:
            raise ValueError(f"unknown input ports: {sorted(unknown)}")
        raise ValueError(f"ports left unbound: {sorted(ports - schedules.keys())}")

    def bind(self, schedules: Mapping[str, object]) -> Network:
        """Fill every port with a schedule; arity must match exactly."""
        self.check_ports(schedules)
        return self.network.bind_schedules(schedules)


@dataclass(frozen=True)
class CompilerEntry:
    """A registered instance-to-network compiler with its reference oracle.

    Every entry splits, compiles and declares caps. `split` maps an instance
    to the arguments of `compile` and the port schedules bound into the
    compiled structure; `compile` takes exactly those arguments and returns
    a `CompiledStructure`, which instances with equal compile arguments
    share. `caps` is the compiler's promise of TIME, payload SPACE and
    payload ENERGY for each instance, and every measured run stops two steps
    past its TIME (`_run_limits`). `build` is `composed_build(split, compile)`
    and ignores its builder; it and `step_limit` are kept for outside callers.

    An entry named `<problem>-<variant>` that declares `from_flags` is
    offered by the command line's `compile` and `verify` and by the host
    `compile` statement as `<problem> --variant <variant>`. `from_flags`
    takes the flag values `array` (a tuple, empty when not given), `size`,
    `target` and `bound` (None when not given) and returns the compile
    arguments and the port schedules, or None for the schedules when no
    target is given. It raises ValueError on flags that name no instance.
    """

    name: str
    size_of: Callable[[Any], int]
    build: Callable[[Any, NetworkBuilder], Network]
    reference: Callable[[Any], bool]
    step_limit: Callable[[Any], int]
    split: Callable[[Any], tuple[tuple, Mapping[str, object]]]
    compile: Callable[..., CompiledStructure]
    caps: Callable[[Any], ResourceCaps]
    enumerate_domain: Callable[["Domain"], Iterator[Any]] | None = None
    sample: Callable[[Random, "Domain"], Any] | None = None
    from_flags: Callable[..., tuple[tuple, Mapping[str, object] | None]] | None = None


def composed_build(
    split: Callable[[Any], tuple[tuple, Mapping[str, object]]],
    compile: Callable[..., CompiledStructure],
) -> Callable[[Any, NetworkBuilder], Network]:
    """The build that compiles an instance's structure and binds its ports, ignoring `builder`."""

    def build(instance: Any, builder: NetworkBuilder) -> Network:
        args, schedules = split(instance)
        return compile(*args).bind(schedules)

    return build


_REGISTRY: dict[str, CompilerEntry] = {}


def register_compiler(entry: CompilerEntry) -> None:
    _REGISTRY[entry.name] = entry


def get_compiler(name: str) -> CompilerEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown compiler {name!r} (have {sorted(_REGISTRY)})") from None


def registered_compilers() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def flag_compilers() -> dict[str, tuple[str, ...]]:
    """Each problem offered by flags, mapped to its variants, both sorted."""
    problems: dict[str, tuple[str, ...]] = {}
    for name in registered_compilers():
        if _REGISTRY[name].from_flags is not None:
            problem, _, variant = name.rpartition("-")
            problems[problem] = problems.get(problem, ()) + (variant,)
    return problems


def flag_compiler(problem: str, variant: str | None) -> CompilerEntry:
    """The entry that `<problem> --variant <variant>` names on the command line."""
    variants = flag_compilers().get(problem)
    if variants is None:
        raise ValueError(f"unknown compiler {problem!r}")
    if variant not in variants:
        raise ValueError(f"{problem} needs --variant {'|'.join(variants)}")
    return _REGISTRY[f"{problem}-{variant}"]


class _FlagParser(argparse.ArgumentParser):
    """An argument parser that raises ValueError where argparse would exit."""

    def error(self, message):
        raise ValueError(message)


# The flags that feed `from_flags`, for the CLI and the host `compile` alike.
COMPILE_FLAGS = _FlagParser(add_help=False, allow_abbrev=False)
COMPILE_FLAGS.add_argument("--variant", help="compiler variant")
COMPILE_FLAGS.add_argument("--array", default="", help="comma-separated elements")
COMPILE_FLAGS.add_argument("--size", type=parse_int, help="array length (variant c)")
COMPILE_FLAGS.add_argument("--target", type=parse_int, help="value to search for")
COMPILE_FLAGS.add_argument("--bound", type=parse_int, help="exclusive value bound V")


def compile_from_flags(
    problem: str, flags: argparse.Namespace
) -> tuple[CompiledStructure, Mapping[str, object] | None]:
    """Compile the instance that `<problem>` and flags parsed by COMPILE_FLAGS name.

    Returns the compiled structure and its port schedules, already checked
    against its ports, or None for the schedules when no target is given.
    Raises ValueError on flags that name no instance.
    """
    entry = flag_compiler(problem, flags.variant)
    if flags.bound is None:
        raise ValueError("compile needs --bound")
    array = tuple(parse_int(piece) for piece in flags.array.split(",")) if flags.array else ()
    compile_args, schedules = entry.from_flags(
        array=array, size=flags.size, target=flags.target, bound=flags.bound
    )
    compiled = entry.compile(*compile_args)
    if schedules is not None:
        compiled.check_ports(schedules)
    return compiled, schedules


@lru_cache(maxsize=256)
def _run_limits(time: int) -> RunLimits:
    """The limits of a measured run: two steps past the TIME cap, and never before step 3."""
    return RunLimits(max_steps=max(time, 1) + 2)


def _measure(
    runnable: Network | Plan, caps: ResourceCaps, space: int
) -> tuple[ResourceReport, tuple[str, ...]]:
    """Run `runnable` unvalidated under `_run_limits(caps.time)` and judge it.

    Returns the report and `caps.exceeded` of its steps, `space` and payload ENERGY.
    """
    report = run(runnable, _run_limits(caps.time), validate=False).report
    return report, caps.exceeded(report.time, space, report.energy_payload)


def generate_and_decide(
    compiler: str,
    instance: Any,
    bounds: ResourceBounds,
    instrument: Instrument = Instrument(),
) -> Decision:
    """Build, meter, optionally add a timer/meter guard, run, check the bounds.

    The generator's cost is `GeneratorCost.of` the network it built, before
    any guard is added. `_measure`, which the sweep uses too, runs the guarded
    network and judges executed steps, the payload neuron count from before
    the guards and payload energy (spikes excluding instrumentation) against
    the bounds at the instance's size. Violations are reported, never fatal;
    the timer, when requested, turns a time overrun into a reject verdict.
    """
    entry = get_compiler(compiler)
    n = entry.size_of(instance)
    caps = bounds.caps(n)
    network = entry.build(instance, NetworkBuilder())
    cost = GeneratorCost.of(network)
    if instrument.timer:
        network = attach_timer(network, max(caps.time - 1, 0))
    if instrument.meter:
        network = attach_meter(network, max(caps.energy, 1))
    report, violations = _measure(network, caps, cost.peak_neurons)
    return Decision(
        verdict=report.verdict, cost=cost, report=report, size=n, caps=caps, violations=violations
    )


def network_halting_oracle(network: Network, caps: ResourceCaps) -> OracleAnswer:
    """Decide whether a promise-bounded network accepts.

    The network is asked about as given: the oracle binds no port, so a
    caller with a `CompiledStructure` passes what its `bind` returns.
    Simulation is capped at the declared time and energy, so the caller's
    cost never exceeds the bounds even when the promise is broken. The
    outcome is "accepted"/"rejected" when the run stays inside the caps and
    reaches an unambiguous verdict, "promise_violated" otherwise. Caps that
    no run can meet (time below 1, energy below 0, or a space cap below the
    network's neuron count, which no run changes) answer "promise_violated"
    without simulating.
    """
    neurons = network.size()
    synapses = len(network.synapses)
    if caps.time < 1 or caps.energy < 0 or neurons > caps.space:
        report = ResourceReport(TIMEOUT, 0, 0, 0, neurons, synapses)
        return OracleAnswer(PROMISE_VIOLATED, report)
    report = run(
        network,
        RunLimits(max_steps=caps.time, max_total_spikes=caps.energy),
    ).report
    over = caps.exceeded(report.time, report.neurons, report.energy)
    if over or report.verdict in (TIMEOUT, AMBIGUOUS):
        return OracleAnswer(PROMISE_VIOLATED, report)
    return OracleAnswer(ACCEPTED if report.verdict == ACCEPT else REJECTED, report)


@dataclass(frozen=True)
class Domain:
    """Instance domain for equivalence sweeps.

    Arrays have length 0..max_len and values 0..max_val-1; random samples
    draw from lengths 0..random_max_len and values 0..random_max_val-1.
    Every field must be an int, not a bool or a float. A field of another
    type, bounds that leave a range empty, or a negative sample count raise
    ValueError, so a sweep can never pass by checking nothing.
    """

    max_len: int
    max_val: int
    random_instances: int = 0
    random_max_len: int = 16
    random_max_val: int = 64

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_int(value, f"domain field {name}")
        if self.max_len < 0 or self.random_max_len < 0:
            raise ValueError("array lengths must be >= 0")
        if self.max_val < 1 or self.random_max_val < 1:
            raise ValueError("value bounds must be >= 1")
        if self.random_instances < 0:
            raise ValueError("random instance count must be >= 0")


@dataclass(frozen=True)
class Mismatch:
    instance: Any
    network_verdict: str
    reference: bool


@dataclass(frozen=True)
class MismatchReport:
    checked: int
    mismatches: tuple[Mismatch, ...]
    bound_violations: tuple[Any, ...]
    inequality_violations: tuple[Any, ...]


def verify_equivalence(compiler: str, domain: Domain, seed: int = 0) -> MismatchReport:
    """Exhaustively sweep the small domain (plus seeded random samples).

    Every instance runs and is compared against the compiler's brute-force
    reference. `_measure` runs it and judges its TIME, payload SPACE and
    payload ENERGY against the entry's `caps`, as in `generate_and_decide`:
    an instance over any cap is a bound violation. The entry needs
    `enumerate_domain`. Consecutive instances with equal compile arguments
    share one compiled structure and plan; each runs as that plan with its
    own port schedules. `inequality_violations` is always empty: every
    `ResourceReport` already keeps ENERGY <= TIME * SPACE.
    """
    entry = get_compiler(compiler)
    if entry.enumerate_domain is None:
        raise ValueError(f"compiler {compiler!r} does not support domain enumeration")
    instances: Iterable[Any] = entry.enumerate_domain(domain)
    if domain.random_instances:
        if entry.sample is None:
            raise ValueError(f"compiler {compiler!r} does not support random sampling")
        rng = Random(seed)
        sampled = [entry.sample(rng, domain) for _ in range(domain.random_instances)]
        instances = itertools.chain(instances, sampled)
    checked = 0
    mismatches = []
    bound_violations = []
    structure = None  # (compile arguments, compiled, plan) of the previous instance
    for instance in instances:
        checked += 1
        args, schedules = entry.split(instance)
        if structure is None or structure[0] != args:
            compiled = entry.compile(*args)
            structure = (args, compiled, build_plan(compiled.network))
        structure[1].check_ports(schedules)
        plan = structure[2].with_schedules(schedules)
        report, over = _measure(plan, entry.caps(instance), plan.n)
        expected = entry.reference(instance)
        if report.verdict != (ACCEPT if expected else REJECT):
            mismatches.append(Mismatch(instance, report.verdict, expected))
        if over:
            bound_violations.append(instance)
    return MismatchReport(checked, tuple(mismatches), tuple(bound_violations), ())


def _constant_accept_entry() -> CompilerEntry:
    # The degenerate generator that maps every instance to the same
    # one-neuron accepting network: constant cost, decides nothing, and the
    # reason generation effort must be metered at all.
    builder = NetworkBuilder()
    builder.add_input("acc", [0])
    builder.set_accept("acc")
    compiled = CompiledStructure(builder.build(), ())
    split, compile = (lambda instance: ((), {})), (lambda: compiled)
    return CompilerEntry(
        name="constant-accept",
        size_of=lambda instance: getattr(instance, "size", 0),
        build=composed_build(split, compile),
        reference=lambda instance: True,
        step_limit=lambda instance: 2,
        split=split,
        compile=compile,
        caps=lambda instance: ResourceCaps(time=1, space=1, energy=1),
    )


register_compiler(_constant_accept_entry())
