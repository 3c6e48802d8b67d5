"""Workloads, timing loops and output checks of the snnkit benchmark.

The benchmark drives snnkit only through its public calls, from a single
process and thread. Every workload makes its inputs from the seed; the
program receives only those inputs.

* sparse-int: a panel of 1000-neuron sparse networks (integer weights,
  leaks in {0, 1}) as `.snn` text; each is parsed, then run with a trace
  until its spike cap, and the trace rendered.
* sparse-rational: the same networks with leak 1/2 on a seeded third of the
  body neurons, so the kernel works on growing big-integer fractions.
* many-small: `harness.verify_equivalence` over an exhaustive small array
  domain plus seeded random instances, for each of the three compilers.
* instrumented-decide: `harness.generate_and_decide` with timer and meter
  on seeded random array instances, under the compilers' own bounds.

An untraced run times batches of work (one network run, one compiler's
sweep or one batch of instances) until `seconds` have passed. Each timed
section is scaled to the reference speed of the host (gauge.py), and
throughput comes from the median scaled seconds per unit of work (see
`throughput`). Set-up time is the median of several fresh set-ups. The
environment line also carries the unscaled host figures and the host speed.

A traced run does a fixed amount of work twice, once plain and once with
spans around the public calls (tracer.py), repeats that for `seconds`, and
reports per-layer numbers and the tracing overhead.

Every run checks its outputs against expected.json (see record.py); a
difference counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter as clock
from types import SimpleNamespace

from gauge import SpeedGauge
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("sparse-int", "sparse-rational", "many-small", "instrumented-decide")
VARIANTS = ("a", "b", "c")
# Inputs are made from seed mod RECORDED_SEEDS, the seeds whose exact
# outputs expected.json records, so every run is checked against them.
RECORDED_SEEDS = 32

_MODULES = ("snnfmt", "model", "engine", "arraysearch", "gadgets", "harness", "randnet")


@dataclass(frozen=True)
class Sizes:
    neurons: int = 1000
    panel: int = 32
    max_steps: int = 50_000
    int_spikes: int = 50_000
    rational_spikes: int = 30_000
    sweep_max_len: int = 2
    sweep_max_val: int = 8
    sweep_random: int = 32
    decide_max_len: int = 16
    decide_max_val: int = 64
    decide_batch: int = 300
    checked_batches: int = 2
    setup_repeats: int = 3
    sample_every: int = 100


FULL = Sizes()


def import_program() -> SimpleNamespace:
    """Import snnkit afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "snnkit" or m.startswith("snnkit.")]:
        del sys.modules[name]
    package = importlib.import_module("snnkit")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"snnkit imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"snnkit.{m}") for m in _MODULES})


def input_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


# -- sparse networks ------------------------------------------------------


def sparse_text(p, workload: str, key: int, sizes: Sizes) -> str:
    network = p.randnet.sparse_benchmark_network(sizes.neurons, key)
    if workload == "sparse-rational":
        body = [s.id for s in network.neurons if s.id not in (network.accept, network.reject)]
        leaky = set(Random(f"leak:{key}").sample(body, len(body) // 3))
        neurons = tuple(
            replace(s, leak=Fraction(1, 2)) if s.id in leaky else s for s in network.neurons
        )
        network = replace(network, neurons=neurons)
    return p.snnfmt.serialize_network(network)


def spike_cap(name: str, sizes: Sizes) -> int:
    return sizes.int_spikes if name == "sparse-int" else sizes.rational_spikes


def sparse_outcome(p, network, sizes: Sizes, spikes: int) -> dict:
    limits = p.engine.RunLimits(sizes.max_steps, max_total_spikes=spikes)
    result = p.engine.run(network, limits, trace=True)
    text = result.trace.render()
    report = result.report
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "time": report.time,
        "energy": report.energy,
        "payload_energy": report.energy_payload,
        "neurons": report.neurons,
    }


class Sparse:
    """A panel of recorded networks, in an order set by the seed, each run until its spike cap.

    The cap fixes the simulated work (ENERGY) per run, so host time per run
    does not swing with how active a network happens to be. Costs per spike
    still differ between networks (on the rational path by a fifth between
    quartiles, and by 5% between two halves of the recorded seeds), so the
    full panel runs every recorded network and the seed sets their order.
    """

    def __init__(self, p, name, seed, sizes, expected):
        self.p = p
        self.sizes = sizes
        self.cap = spike_cap(name, sizes)
        keys = [input_seed(seed + j * RECORDED_SEEDS // sizes.panel) for j in range(sizes.panel)]
        self.texts = [sparse_text(p, name, key, sizes) for key in keys]
        self.wants = [expected[name][str(key)] for key in keys]
        self.min_batches = sizes.panel

    def setup(self, p):
        self.p = p
        self.networks = []
        for text in self.texts:
            network = p.snnfmt.parse_network(text)
            p.model.check_network(network)
            p.engine.Simulation(network)
            self.networks.append(network)

    def failures(self, got: dict, want: dict) -> int:
        bad = any(got[k] != want[k] for k in ("sha256", "time", "energy", "payload_energy"))
        return int(bad or got["energy"] > got["time"] * got["neurons"])

    def batch(self, index):
        j = index % self.sizes.panel
        start = clock()
        got = sparse_outcome(self.p, self.networks[j], self.sizes, self.cap)
        seconds = clock() - start
        return Batch(seconds, 1, got["energy"], 1, self.failures(got, self.wants[j]), j)

    def fixed_work(self):
        """Set-up calls plus one run per network: every layer this workload touches."""
        self.setup(self.p)
        return [self.batch(j) for j in range(self.sizes.panel)]


# -- many-small -----------------------------------------------------------


def exhaustive_count(max_len: int, max_val: int) -> int:
    return sum(max_val**length for length in range(max_len + 1)) * max_val


class ManySmall:
    """Cycles of one sweep per compiler; batch i sweeps VARIANTS[i % 3]."""

    min_batches = len(VARIANTS)

    def __init__(self, p, name, seed, sizes, expected):
        self.seed = seed
        self.sizes = sizes
        self.want = expected[name]

    def setup(self, p):
        self.p = p
        s = self.sizes
        self.domain = p.harness.Domain(
            s.sweep_max_len, s.sweep_max_val, s.sweep_random, s.sweep_max_len, s.sweep_max_val
        )

    def cycle_seed(self, index: int) -> int:
        return self.seed * 100_003 + index // len(VARIANTS)

    def batch(self, index):
        group = index % len(VARIANTS)
        v = VARIANTS[group]
        start = clock()
        report = self.p.harness.verify_equivalence(f"array-search-{v}", self.domain, self.cycle_seed(index))
        seconds = clock() - start
        want = self.want[v]
        failed = abs(report.checked - want["checked"]) + sum(
            abs(len(getattr(report, field)) - want[field])
            for field in ("mismatches", "bound_violations", "inequality_violations")
        )
        return Batch(seconds, report.checked, None, want["checked"], min(failed, want["checked"]), group)

    def fixed_work(self):
        return [self.batch(i) for i in range(len(VARIANTS))]

    def count_spikes(self, batches):
        """Fill in each sweep's ENERGY, re-running its instances untimed.

        verify_equivalence returns no reports, so the sweep's spikes are
        counted afterwards: the exhaustive part once per compiler, the seeded
        random part per sweep, sampled exactly as the harness samples it.
        """
        p = self.p
        plain = replace(self.domain, random_instances=0)
        entries = [p.harness.get_compiler(f"array-search-{v}") for v in VARIANTS]
        exhaustive = [_energy(p, entry, entry.enumerate_domain(plain)) for entry in entries]
        for index, b in enumerate(batches):
            entry = entries[b.group]
            rng = Random(self.cycle_seed(index))
            sampled = [entry.sample(rng, self.domain) for _ in range(self.domain.random_instances)]
            b.spikes = exhaustive[b.group] + _energy(p, entry, sampled)


def _energy(p, entry, instances) -> int:
    return sum(
        p.engine.run(
            entry.build(instance, p.model.NetworkBuilder()),
            p.engine.RunLimits(entry.step_limit(instance)),
            validate=False,
        ).report.energy
        for instance in instances
    )


# -- instrumented-decide --------------------------------------------------


def decide_inputs(key: int, sizes: Sizes):
    """Endless seeded stream of (variant, elements, target, bound); variants take turns."""
    rng = Random(key)
    bound = sizes.decide_max_val
    index = 0
    while True:
        length = rng.randint(0, sizes.decide_max_len)
        elements = tuple(rng.randrange(bound) for _ in range(length))
        yield VARIANTS[index % 3], elements, rng.randrange(bound), bound
        index += 1


def decide_all(p, raw, bounds, instrument):
    """generate_and_decide on each input; returns (instance, decision) pairs."""
    work = [(v, p.arraysearch.ArrayInstance(*args)) for v, *args in raw]
    start = clock()
    decisions = [
        (instance, p.harness.generate_and_decide(f"array-search-{v}", instance, bounds[v], instrument))
        for v, instance in work
    ]
    return clock() - start, decisions


def compiler_bounds(p, variant: str, value_bound: int):
    """The compilers' own guarantees as declared bounds.

    TIME: the step limit every compiled network decides within. SPACE: n
    element ports, the value port, detector and rejector. ENERGY: the
    per-variant payload spike ceiling n+2 / n+3 / 2n+2.
    """
    rb = p.harness.ResourceBound
    energy = {"a": (1, 2), "b": (1, 3), "c": (2, 2)}[variant]
    return p.harness.ResourceBounds(
        time=rb.constant(p.arraysearch.step_limit(variant, value_bound), "time"),
        space=rb.linear(1, 3, "space"),
        energy=rb.linear(*energy, "energy"),
    )


def decide_totals(p, decisions) -> dict:
    return {
        "accepts": sum(d.verdict == p.engine.ACCEPT for _, d in decisions),
        "builder_ops": sum(d.cost.builder_ops for _, d in decisions),
        "time": sum(d.report.time for _, d in decisions),
        "energy": sum(d.report.energy for _, d in decisions),
        "payload_energy": sum(d.report.energy_payload for _, d in decisions),
    }


class Decide:
    """Batches of fresh seeded instances, so no instance is decided twice.

    The first `checked_batches` batches are the same in every run of a seed;
    their totals are checked against expected.json.
    """

    def __init__(self, p, name, seed, sizes, expected):
        self.sizes = sizes
        self.min_batches = sizes.checked_batches
        key = input_seed(seed)
        self.stream = decide_inputs(key, sizes)
        self.checked = [next(self.stream) for _ in range(sizes.checked_batches * sizes.decide_batch)]
        self.want = expected[name][str(key)]

    def setup(self, p):
        self.p = p
        self.bounds = {v: compiler_bounds(p, v, self.sizes.decide_max_val) for v in VARIANTS}
        self.instrument = p.harness.Instrument(timer=True, meter=True)

    def failures(self, decisions) -> int:
        p = self.p
        failed = 0
        for instance, d in decisions:
            expected = p.engine.ACCEPT if p.arraysearch.contains_target(instance) else p.engine.REJECT
            r = d.report
            failed += int(d.verdict != expected or bool(d.violations) or r.energy > r.time * r.neurons)
        return failed

    def batch(self, index):
        size = self.sizes.decide_batch
        checked = index < self.sizes.checked_batches
        if checked:
            raw = self.checked[index * size:(index + 1) * size]
        else:
            raw = [next(self.stream) for _ in range(size)]
        seconds, decisions = decide_all(self.p, raw, self.bounds, self.instrument)
        failed = self.failures(decisions)
        if checked:
            if index == 0:
                self.checked_decisions = []
            self.checked_decisions += decisions
            last = index == self.sizes.checked_batches - 1
            if last and decide_totals(self.p, self.checked_decisions) != self.want:
                failed = max(failed, 1)
        spikes = sum(d.report.energy for _, d in decisions)
        return Batch(seconds, size, spikes, size, failed)

    def fixed_work(self):
        return [self.batch(i) for i in range(self.sizes.checked_batches)]


# -- runs -----------------------------------------------------------------


@dataclass
class Batch:
    seconds: float
    instances: int
    spikes: int | None
    attempted: int
    failed: int
    group: int = 0
    scaled: float = 0.0


_KINDS = {
    "sparse-int": Sparse,
    "sparse-rational": Sparse,
    "many-small": ManySmall,
    "instrumented-decide": Decide,
}


def load_expected(sizes: Sizes) -> dict:
    expected = json.loads(EXPECTED_PATH.read_text())
    if expected["sizes"] != asdict(sizes):
        raise RuntimeError("expected.json was recorded for other sizes; rerun record.py")
    return expected


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(p, workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "backends": list(p.engine.available_backends()),
        "cython": importlib.util.find_spec("Cython") is not None,
        "snnkit": str(Path(p.engine.__file__).parent.relative_to(ROOT)),
        "commit": commit(),
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed(seed),
    }


def timed_setup(workload, repeats: int, gauge: SpeedGauge):
    """Median over fresh imports of snnkit plus the workload's one-off work."""
    host, scaled = [], []
    for _ in range(repeats):
        start = clock()
        p = import_program()
        workload.setup(p)
        host.append(clock() - start)
        scaled.append(gauge.scale(host[-1]))
    return p, statistics.median(scaled), statistics.median(host)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL, expected=None):
    """Run one workload; return (environment, result) as the benchmark prints them."""
    if name not in _KINDS:
        raise ValueError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
    expected = load_expected(sizes) if expected is None else expected
    p = import_program()
    workload = _KINDS[name](p, name, seed, sizes, expected)
    gauge = SpeedGauge()
    p, setup_s, host_setup_s = timed_setup(workload, sizes.setup_repeats, gauge)
    env = environment(p, name, seed)
    if trace:
        batches, metrics = traced(p, workload, name, seed, seconds, sizes, env, gauge)
    else:
        batches = []
        start = clock()
        while len(batches) < workload.min_batches or clock() - start < seconds:
            batch = workload.batch(len(batches))
            batch.scaled = gauge.scale(batch.seconds)
            batches.append(batch)
        if isinstance(workload, ManySmall):
            workload.count_spikes(batches)
        metrics = end_to_end(batches, setup_s)
        env["host"] = {
            "speed": gauge.speed(),
            "setup_s": host_setup_s,
            "spikes_per_s": throughput(batches, "spikes", "seconds"),
            "instances_per_s": throughput(batches, "instances", "seconds"),
        }
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    if trace:
        metrics["error_rate"] = failed / attempted
    unit = units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    return env, result


def throughput(batches, work: str, seconds: str) -> float:
    """Work per second from the median seconds per unit of work of each group.

    Batches of one group repeat the same work (one network of a sparse
    panel, one compiler of many-small) or the same kind of work (all
    batches of instrumented-decide); groups are weighted by their mean work.
    """
    groups: dict[int, list[Batch]] = {}
    for b in batches:
        groups.setdefault(b.group, []).append(b)
    total_work = total_seconds = 0.0
    for members in groups.values():
        mean_work = statistics.fmean(getattr(b, work) for b in members)
        per_unit = statistics.median(getattr(b, seconds) / getattr(b, work) for b in members)
        total_work += mean_work
        total_seconds += mean_work * per_unit
    return total_work / total_seconds


def end_to_end(batches, setup_s: float) -> dict:
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    return {
        "setup_s": setup_s,
        "spikes_per_s": throughput(batches, "spikes", "scaled"),
        "instances_per_s": throughput(batches, "instances", "scaled"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / attempted,
    }


def traced(p, workload, name: str, seed: int, seconds: float, sizes: Sizes, env: dict, gauge: SpeedGauge):
    """The fixed work plain, then traced, repeated until `seconds` have passed.

    Reports the median of each per-layer number over the repetitions; the
    counts are the same in each. The first traced pass's spans go to out/.
    """
    batches, layers = [], []
    start = clock()
    while not layers or clock() - start < seconds:
        began = clock()
        batches += workload.fixed_work()
        untraced = gauge.scale(clock() - began)
        tracer = Tracer(sizes.sample_every)
        with tracer.installed(p):
            began = clock()
            batches += workload.fixed_work()
            traced_wall = clock() - began
        scale = gauge.scale(traced_wall) / traced_wall
        if not tracer.consistent():
            batches[-1].failed = max(batches[-1].failed, 1)
        layers.append(tracer.layer_metrics(traced_wall, scale, untraced))
        if len(layers) == 1:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{name}-{seed}.json", {"environment": env, "metrics": layers[0]})
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    return batches, metrics


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- expected outputs -----------------------------------------------------


def record_expected(sizes: Sizes, keys) -> dict:
    """Exact outputs for the given input seeds, computed with this checkout."""
    p = import_program()
    expected = {"sizes": asdict(sizes), "sparse-int": {}, "sparse-rational": {}, "instrumented-decide": {}}
    for key in keys:
        for name in ("sparse-int", "sparse-rational"):
            network = p.snnfmt.parse_network(sparse_text(p, name, key, sizes))
            got = sparse_outcome(p, network, sizes, spike_cap(name, sizes))
            del got["neurons"]
            expected[name][str(key)] = got
        stream = decide_inputs(key, sizes)
        raw = [next(stream) for _ in range(sizes.checked_batches * sizes.decide_batch)]
        bounds = {v: compiler_bounds(p, v, sizes.decide_max_val) for v in VARIANTS}
        _, decisions = decide_all(p, raw, bounds, p.harness.Instrument(timer=True, meter=True))
        expected["instrumented-decide"][str(key)] = decide_totals(p, decisions)
    checked = exhaustive_count(sizes.sweep_max_len, sizes.sweep_max_val) + sizes.sweep_random
    expected["many-small"] = {
        v: {"checked": checked, "mismatches": 0, "bound_violations": 0, "inequality_violations": 0}
        for v in VARIANTS
    }
    return expected
