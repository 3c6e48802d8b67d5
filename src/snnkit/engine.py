"""Exact synchronous simulation with halting semantics and resource metering.

Each step t: (1) deliveries scheduled for t are summed per target neuron;
(2) every regular neuron updates its membrane potential
u' = max(0, leak*u + inputs) and fires when u' reaches its threshold,
resetting to its reset voltage; (3) programmed neurons fire exactly when
their schedule says so; (4) each firing enqueues deliveries along outgoing
synapses at t+delay; (5) energy counts one unit per spike. The run halts on
the first step in which the accept or reject neuron fires (both at once is
the distinct verdict "ambiguous"), or times out at the step/spike caps.

TIME is the number of executed steps, SPACE the neuron count, ENERGY the
spike count; ENERGY <= TIME * SPACE always holds since a neuron fires at
most once per step.

Planning makes every value the kernel touches a plain integer. Each neuron k
gets a scale L_k, the lcm of the denominators of its threshold, its reset
and every weight into it; the plan stores threshold, reset and incoming
weights multiplied by L_k. Since max(0, .) and >= commute with positive
scaling, this is exact. The kernel keeps a potential as N/Q in units of
1/L_k, where Q = q**e accumulates a leak p/q without ever being reduced, so
no step computes a gcd. For `Simulation.potentials` and `Simulation.pending`
the kernel divides out L_k (and Q) and hands back unreduced integer pairs;
building a `Fraction` from each pair is the one reduction.

One kernel source, snnkit/_kernel.py, executes the inner loop. Where
Cython is installed, setup.py compiles that same file into an extension
module, which is then imported in its place; `available_backends` names
the build that was imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib.machinery import ExtensionFileLoader
from math import lcm
from typing import Mapping, NamedTuple

from . import _kernel
from ._kernel import RULE_DECAYING, RULE_INTEGRATOR, RULE_MEMORYLESS, RULE_PROGRAMMED, Kernel
from .model import ExplicitSchedule, Network, SpikeSchedule, check_network

ACCEPT = "accept"
REJECT = "reject"
TIMEOUT = "timeout"
AMBIGUOUS = "ambiguous"

_VERDICT_NAMES = {1: ACCEPT, 2: REJECT, 3: AMBIGUOUS}


def available_backends() -> tuple[str, ...]:
    """The kernel build in use: ("compiled",) for the extension, else ("pure",)."""
    compiled = isinstance(_kernel.__spec__.loader, ExtensionFileLoader)
    return ("compiled",) if compiled else ("pure",)


class NoVerdictNeuronError(ValueError):
    """The network designates neither an accept nor a reject neuron."""


@dataclass(frozen=True)
class RunLimits:
    """Simulator-level safety caps, distinct from in-network timer/meter gadgets."""

    max_steps: int
    max_total_spikes: int | None = None

    def __post_init__(self):
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError("max_steps must be an integer >= 1")
        cap = self.max_total_spikes
        if cap is not None and (type(cap) is not int or cap < 0):
            raise ValueError("max_total_spikes must be an integer >= 0")


@dataclass(frozen=True)
class ResourceReport:
    """Verdict plus measured TIME, SPACE, ENERGY for one run."""

    verdict: str
    time: int
    energy: int
    energy_payload: int
    neurons: int
    synapses: int

    def __post_init__(self):
        if self.energy > self.time * self.neurons:
            raise ValueError("impossible report: energy exceeds time * neurons")


@dataclass(frozen=True)
class TraceStep:
    t: int
    fired: tuple[str, ...]
    energy: int

    def render(self) -> str:
        return f"t={self.t} fired={','.join(self.fired)} energy={self.energy}"


@dataclass(frozen=True)
class Trace:
    """Per-step firing record; steps with no firing are omitted."""

    steps: tuple[TraceStep, ...]
    report: ResourceReport

    def render(self) -> str:
        lines = [step.render() for step in self.steps]
        lines.append(format_report_line(self.report))
        return "\n".join(lines) + "\n"

    def fire_times(self, name: str) -> tuple[int, ...]:
        return tuple(step.t for step in self.steps if name in step.fired)


def format_report_line(report: ResourceReport) -> str:
    return (
        f"verdict={report.verdict} time={report.time} energy={report.energy}"
        f" payload_energy={report.energy_payload} neurons={report.neurons}"
        f" synapses={report.synapses}"
    )


def _spike_heap(programmed: Mapping[str, SpikeSchedule], index: Mapping[str, int]) -> tuple:
    """The schedules as sorted (time, neuron, period) entries; period 0 fires once."""
    spikes = []
    for name, sched in programmed.items():
        k = index[name]
        if isinstance(sched, ExplicitSchedule):
            for t in sched.times:  # a loop: a comprehension is a call per schedule
                spikes.append((t, k, 0))
        else:
            spikes.append((sched.offset, k, sched.period))
    spikes.sort()
    return tuple(spikes)


@dataclass(frozen=True)
class Plan:
    """A network compiled into the flat index-based form the kernel steps.

    Neurons are numbered in sorted id order (`ids`), and every per-neuron
    field is a tuple indexed that way. `kinds` holds the rule the kernel
    steps each neuron by: 0 for leak 0 (memoryless), 1 for leak 1
    (integrator), 2 for any other leak (decaying) and 3 for a programmed
    neuron. `scale[k]` is neuron k's L_k: the lcm of the
    denominators of its threshold, its reset and every weight into it
    (programmed neurons included, since deliveries to them are pending state
    too). `thresholds` and `resets` hold threshold*L and reset*L, and
    `leak_nums`/`leak_dens` the leak's numerator and denominator, all ints;
    a programmed neuron has 0, 0, 1, 1. `spikes` lists the programmed
    spikes as sorted (time, neuron, period) entries: one per listed spike of
    an explicit schedule, with period 0, and one per periodic schedule, at
    its offset with its period. Sorted, it is already the heap the kernel
    pops and equal plans list equal spikes. `delays` lists each distinct
    synaptic delay once, in the order it first appears in the network's
    synapses; its positions are the delivery lanes. `out` holds each
    neuron's outgoing (post, lane, weight*L_post) integer triples, where
    `delays[lane]` is the synapse's delay, so the kernel looks up each
    lane's arrival slot once per step. `accept_idx`/`reject_idx` are the
    verdict neurons (-1 when absent), and `roles[k]` is 1 if neuron k is a
    gadget neuron, plus 2 if it is the accept or reject neuron; a plain
    payload neuron has 0. The kernel reads these fields by name.

    `network` is the network this plan simulates. `with_schedules` swaps
    programmed-neuron schedules without planning again, so networks that
    differ only in their input schedules share one plan's structure: the
    rebound plan is a copy that shares every planned field with its parent;
    only `network` and `spikes`, read off the rebound network, are new.
    """

    ids: tuple[str, ...]
    n: int
    kinds: tuple[int, ...]
    thresholds: tuple[int, ...]
    resets: tuple[int, ...]
    leak_nums: tuple[int, ...]
    leak_dens: tuple[int, ...]
    scale: tuple[int, ...]
    spikes: tuple[tuple[int, int, int], ...]
    delays: tuple[int, ...]
    out: tuple
    accept_idx: int
    reject_idx: int
    roles: tuple[int, ...]
    network: Network = field(compare=False, repr=False)
    index: Mapping[str, int] = field(compare=False, repr=False)

    def with_schedules(self, bindings: Mapping[str, object]) -> "Plan":
        """This plan with the schedules of the named programmed neurons replaced.

        Rebinds `network` with `Network.bind_schedules`, which checks the bindings.
        """
        network = self.network.bind_schedules(bindings)
        if network is self.network:
            return self
        plan = object.__new__(type(self))  # copy and swap, skipping __init__
        spikes = _spike_heap(network.programmed, self.index)
        vars(plan).update(vars(self), spikes=spikes, network=network)
        return plan


def build_plan(network: Network) -> Plan:
    """Compile a Network into the flat, integer-scaled form the kernel consumes."""
    ids = sorted([spec.id for spec in network.neurons] + list(network.programmed))
    index = {name: k for k, name in enumerate(ids)}
    n = len(ids)
    kinds = [0] * n
    thresholds = [0] * n
    resets = [0] * n
    leak_nums = [1] * n
    leak_dens = [1] * n
    scale = [1] * n
    out: list[list[tuple]] = [[] for _ in range(n)]
    for syn in network.synapses:
        den = syn.weight.denominator
        if den != 1:
            post = index[syn.post]
            scale[post] = lcm(scale[post], den)
    for spec in network.neurons:
        k = index[spec.id]
        tn, td = spec.threshold.as_integer_ratio()
        rn, rd = spec.reset.as_integer_ratio()
        L = scale[k]
        if L % td or L % rd:
            L = scale[k] = lcm(L, td, rd)
        thresholds[k] = tn * (L // td)
        resets[k] = rn * (L // rd)
        m, md = spec.leak.as_integer_ratio()
        leak_nums[k], leak_dens[k] = m, md
        kinds[k] = RULE_MEMORYLESS if m == 0 else RULE_INTEGRATOR if m == md else RULE_DECAYING
    for name in network.programmed:
        kinds[index[name]] = RULE_PROGRAMMED
    accept_idx = index[network.accept] if network.accept is not None else -1
    reject_idx = index[network.reject] if network.reject is not None else -1
    roles = [1 if name in network.gadget_tags else 0 for name in ids]
    for k in (accept_idx, reject_idx):
        if k >= 0:
            roles[k] |= 2
    lanes: dict[int, int] = {}  # delay -> lane, numbered by first use
    for syn in network.synapses:
        post = index[syn.post]
        num, den = syn.weight.as_integer_ratio()
        lane = lanes.get(syn.delay)
        if lane is None:
            lane = lanes[syn.delay] = len(lanes)
        out[index[syn.pre]].append((post, lane, num * (scale[post] // den)))
    plan = object.__new__(Plan)  # skips the frozen __init__'s setattr per field
    vars(plan).update(
        ids=tuple(ids),
        n=n,
        kinds=tuple(kinds),
        thresholds=tuple(thresholds),
        resets=tuple(resets),
        leak_nums=tuple(leak_nums),
        leak_dens=tuple(leak_dens),
        scale=tuple(scale),
        spikes=_spike_heap(network.programmed, index),
        delays=tuple(lanes),
        out=tuple(map(tuple, out)),
        accept_idx=accept_idx,
        reject_idx=reject_idx,
        roles=tuple(roles),
        network=network,
        index=index,
    )
    return plan


class Simulation:
    """Step-level driver around the kernel; exposes exact state for inspection.

    Takes a Network, or a Plan of one, and checks the network it will step
    with `check_network` unless `validate` is False, which validates only a
    network with no record of a passed check. `run` validates only here.
    Verdict-neuron designation is only required for `run` (which seeks a
    decision); fragments and other non-deciding networks can be stepped
    freely through this class. A simulation is strictly sequential, but
    separate Simulation instances share no mutable state, so concurrent
    runs over the same (immutable) network or plan are safe.
    """

    def __init__(self, network: Network | Plan, validate: bool = True):
        is_plan = isinstance(network, Plan)
        if validate:
            check_network(network.network if is_plan else network)
        self.plan = plan = network if is_plan else build_plan(network)
        self.ids = plan.ids
        self._kernel = Kernel(plan)

    @property
    def network(self) -> Network:
        return self.plan.network

    @property
    def t(self) -> int:
        return self._kernel.t

    @property
    def energy(self) -> int:
        return self._kernel.energy

    @property
    def energy_payload(self) -> int:
        return self._kernel.payload_energy

    @property
    def verdict(self) -> str | None:
        return _VERDICT_NAMES.get(self._kernel.verdict)

    def step(self) -> tuple[str, ...]:
        """Execute one synchronous step; return the fired ids sorted."""
        if self._kernel.verdict:
            raise RuntimeError("verdict already reached; the network has halted")
        fired = self._kernel.step()
        ids = self.ids
        return tuple([ids[k] for k in fired]) if fired else ()

    def potentials(self) -> dict[str, Fraction]:
        pairs = self._kernel.potential_pairs()
        return {
            self.ids[k]: Fraction(pair[0], pair[1])
            for k, pair in enumerate(pairs)
            if pair is not None
        }

    def pending(self) -> dict[tuple[int, str], Fraction]:
        return {
            (arrival, self.ids[k]): Fraction(pair[0], pair[1])
            for (arrival, k), pair in self._kernel.pending_pairs().items()
        }


class RunResult(NamedTuple):
    report: ResourceReport
    trace: Trace | None


def run(
    network: Network | Plan,
    limits: RunLimits,
    trace: bool = False,
    validate: bool = True,
) -> RunResult:
    """Simulate from t=0 until a verdict or a safety cap is hit.

    Takes a Network, or a Plan of one. The network must designate at least
    one of accept/reject. TIME is the number of executed steps, so a
    verdict during step 0 reports time 1; hitting max_steps (or exceeding
    max_total_spikes) reports "timeout".
    """
    sim = Simulation(network, validate)
    plan = sim.plan
    if plan.accept_idx < 0 and plan.reject_idx < 0:
        raise NoVerdictNeuronError("network designates neither accept nor reject")
    kernel = sim._kernel
    steps: list[TraceStep] = []
    time = limits.max_steps
    verdict = TIMEOUT
    cap = limits.max_total_spikes
    step = sim.step
    for t in range(limits.max_steps):
        fired = step()
        if not fired:  # a silent step moves neither the verdict nor the energy
            continue
        if trace:
            steps.append(TraceStep(t, fired, kernel.energy))
        if kernel.verdict:
            verdict = sim.verdict
            time = t + 1
            break
        if cap is not None and kernel.energy > cap:
            time = t + 1
            break
    net = plan.network
    report = ResourceReport(
        verdict, time, kernel.energy, kernel.payload_energy, net.size(), len(net.synapses)
    )
    return RunResult(report, Trace(tuple(steps), report) if trace else None)


def render_raster(trace: Trace, network: Network) -> str:
    """Plain-text spike raster: one row per neuron, one column per step."""
    width = trace.report.time
    fired_at: dict[str, set[int]] = {}
    for step in trace.steps:
        for name in step.fired:
            fired_at.setdefault(name, set()).add(step.t)
    ids = sorted(network.ids())
    pad = max((len(name) for name in ids), default=0)
    lines = []
    for name in ids:
        hits = fired_at.get(name, set())
        row = "".join("*" if t in hits else "." for t in range(width))
        lines.append(f"{name.ljust(pad)} |{row}|")
    return "\n".join(lines) + ("\n" if lines else "")
