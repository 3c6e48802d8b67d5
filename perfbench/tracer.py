"""Spans around snnkit's public calls, recorded from outside the package.

`Tracer.installed(program)` wraps the public functions and methods named in
`LAYERS` for the length of a `with` block and restores the originals on exit.
The package itself carries no tracing code, and the untraced runs execute
exactly the calls the traced run wraps.

Each span holds a name, start and end (perf_counter seconds), the span that
caused it, and an instance identifier. `Simulation.step` calls are merged into
step-batch spans of at most `STEP_BATCH` consecutive steps under one parent.
A layer's self time is its busy time minus the time charged by its children;
a child's charge includes the tracer's own bookkeeping around it, so that
bookkeeping never inflates a parent's self time. Spans stay in memory until
`dump` writes them out.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter as clock
from weakref import WeakKeyDictionary

STEP_BATCH = 100

# Span name -> the public call it times.
LAYERS = {
    "snnfmt.parse": "snnfmt.parse_network",
    "model.validate": "model.check_network",
    "arraysearch.compile": "arraysearch.compile_search_embedded|value_input|full_input",
    "arraysearch.bind": "arraysearch.encode_input + CompiledSearch.bind",
    "harness.build": "CompilerEntry.build",
    "harness.decide": "harness.generate_and_decide",
    "harness.verify": "harness.verify_equivalence",
    "gadgets.timer": "gadgets.attach_timer",
    "gadgets.meter": "gadgets.attach_meter",
    "engine.plan": "engine.Simulation(...)",
    "engine.run": "engine.run",
    "engine.step": "engine.Simulation.step",
    "engine.render": "engine.Trace.render",
}

_COMPILERS = (
    "compile_search_embedded",
    "compile_search_value_input",
    "compile_search_full_input",
)


class _Span:
    __slots__ = ("id", "name", "parent", "inst", "start", "end", "busy", "calls", "child")

    def __init__(self, span_id, name, parent, inst):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.inst = inst
        self.start = self.end = 0.0
        self.busy = 0.0
        self.calls = 0
        self.child = 0.0


def _structure_key(network):
    """The network without its input schedules: what a compiled plan could reuse."""
    return (
        network.neurons,
        network.synapses,
        tuple(network.programmed),
        network.accept,
        network.reject,
        network.gadget_tags,
    )


def _out_degrees(network):
    """Per-neuron out-degree, and the part of it that takes the rational path.

    A delivery is slow when its weight is not an integer or its target leaks
    by a factor other than 0 or 1.
    """
    leak = {spec.id: spec.leak for spec in network.neurons}
    degree = Counter()
    slow = Counter()
    for syn in network.synapses:
        degree[syn.pre] += 1
        if syn.weight.denominator != 1 or leak.get(syn.post, 1) not in (0, 1):
            slow[syn.pre] += 1
    return degree, slow


class Tracer:
    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.self_s = Counter()
        self.counts = Counter()
        self.root_charged = 0.0
        self.inst = 0
        self._batch: _Span | None = None
        self._next_id = 0
        self._degrees = WeakKeyDictionary()
        self._last_sim = None
        self._structures: set = set()

    # -- span bookkeeping -------------------------------------------------

    def _flush_batch(self):
        if self._batch is not None:
            self.spans.append(self._batch)
            self._batch = None

    def _open(self, name):
        self._flush_batch()
        parent = self.stack[-1] if self.stack else None
        span = self._new_span(name, parent.id if parent else None)
        self.stack.append(span)
        return span

    def _new_span(self, name, parent):
        self._next_id += 1
        return _Span(self._next_id, name, parent, self.inst)

    def _charge(self, entered):
        """Charge a finished call, bookkeeping included, to its parent."""
        charged = clock() - entered
        if self.stack:
            self.stack[-1].child += charged
        else:
            self.root_charged += charged

    def wrap(self, name, fn, on_result=None, new_instance=False):
        tracer = self

        def traced(*args, **kwargs):
            entered = clock()
            if new_instance and not (tracer.stack and tracer.stack[-1].name == "harness.decide"):
                tracer.inst += 1
            span = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._flush_batch()
                tracer.stack.pop()
            span.start, span.end, span.busy, span.calls = start, end, end - start, 1
            tracer.spans.append(span)
            tracer.self_s[name] += span.busy - span.child
            if on_result is not None:
                on_result(args, result)
            tracer._charge(entered)
            return result

        return traced

    def wrap_step(self, step):
        tracer = self

        def traced_step(sim):
            entered = clock()
            start = clock()
            fired = step(sim)
            end = clock()
            tracer._record_step(sim, start, end, fired)
            tracer._charge(entered)
            return fired

        return traced_step

    def _record_step(self, sim, start, end, fired):
        parent = self.stack[-1].id if self.stack else None
        batch = self._batch
        if batch is None or batch.parent != parent or batch.calls >= STEP_BATCH:
            self._flush_batch()
            batch = self._batch = self._new_span("engine.step", parent)
            batch.start = start
        batch.end = end
        batch.busy += end - start
        batch.calls += 1
        self.self_s["engine.step"] += end - start
        counts = self.counts
        counts["steps_stepped"] += 1
        counts["spikes_stepped"] += len(fired)
        tables = self._degrees.get(sim)
        if tables is not None:
            degree, slow = tables
            for name in fired:
                counts["deliveries"] += degree[name]
                counts["slow_deliveries"] += slow[name]
        if sim.t % self.sample_every == 0:
            self._sample(sim)

    def _sample(self, sim):
        bits = max((v.denominator.bit_length() for v in sim.potentials().values()), default=1)
        self.counts["peak_den_bits"] = max(self.counts["peak_den_bits"], bits)
        self.counts["pending_peak"] = max(self.counts["pending_peak"], len(sim.pending()))

    # -- result hooks -----------------------------------------------------

    def _on_plan(self, args, _):
        sim = args[0]
        self._degrees[sim] = _out_degrees(sim.network)
        self._last_sim = sim

    def _on_run(self, _, result):
        report = result[0]
        self.counts["steps"] += report.time
        self.counts["spikes"] += report.energy
        if self._last_sim is not None:
            self._sample(self._last_sim)
            self._last_sim = None

    def _on_compile(self, _, result):
        self.counts["compiles"] += 1
        self._structures.add(_structure_key(getattr(result, "network", result)))

    def _on_decide(self, _, decision):
        self.counts["builder_ops"] += decision.cost.builder_ops

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self, program):
        """Wrap the public calls of `program` (a namespace of snnkit modules)."""
        p = program
        undo = []

        def patch(owner, attr, name, on_result=None, new_instance=False):
            if not hasattr(owner, attr):
                return
            original = getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, on_result, new_instance))

        patch(p.snnfmt, "parse_network", "snnfmt.parse")
        patch(p.model, "check_network", "model.validate")
        patch(p.engine, "check_network", "model.validate")
        for attr in _COMPILERS:
            patch(p.arraysearch, attr, "arraysearch.compile", self._on_compile)
        patch(p.arraysearch, "encode_input", "arraysearch.bind")
        patch(p.arraysearch.CompiledSearch, "bind", "arraysearch.bind")
        patch(p.harness, "attach_timer", "gadgets.timer")
        patch(p.harness, "attach_meter", "gadgets.meter")
        patch(p.harness, "generate_and_decide", "harness.decide", self._on_decide, True)
        patch(p.harness, "verify_equivalence", "harness.verify")
        patch(p.engine.Simulation, "__init__", "engine.plan", self._on_plan)
        patch(p.engine, "run", "engine.run", self._on_run)
        patch(p.harness, "run", "engine.run", self._on_run)
        patch(p.engine.Trace, "render", "engine.render")
        step = p.engine.Simulation.step
        undo.append((p.engine.Simulation, "step", step))
        p.engine.Simulation.step = self.wrap_step(step)
        entries = [p.harness.get_compiler(name) for name in p.harness.registered_compilers()]
        for entry in entries:
            build = self.wrap("harness.build", entry.build, new_instance=True)
            p.harness.register_compiler(replace(entry, build=build))
        try:
            yield self
        finally:
            self._flush_batch()
            for entry in entries:
                p.harness.register_compiler(entry)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, scale: float, untraced: float) -> dict[str, float]:
        """Per-layer numbers; times are multiplied by `scale` (reference speed).

        `untraced` is the scaled wall time of the same work run without spans.
        """
        c = self.counts
        spikes = c["spikes"]
        deliveries = c["deliveries"]
        compiles = c["compiles"]
        metrics = {f"{name}_s": self.self_s[name] * scale for name in LAYERS}
        step_s = metrics["engine.step_s"]
        metrics.update(
            {
                "engine.steps": c["steps"],
                "engine.spikes": spikes,
                "engine.us_per_spike": step_s / spikes * 1e6 if spikes else 0.0,
                "kernel.deliveries": deliveries,
                "kernel.slow_share": c["slow_deliveries"] / deliveries if deliveries else 0.0,
                "kernel.peak_den_bits": c["peak_den_bits"],
                "engine.pending_peak": c["pending_peak"],
                "arraysearch.structure_reuse": (
                    1 - len(self._structures) / compiles if compiles else 0.0
                ),
                "harness.builder_ops": c["builder_ops"],
                "trace.overhead": traced_wall * scale / untraced - 1,
                "trace.glue_share": 1 - self.root_charged / traced_wall,
            }
        )
        return metrics

    def consistent(self) -> bool:
        """Steps and spikes seen at `step` agree with the reports of `run`."""
        c = self.counts
        return c["steps_stepped"] == c["steps"] and c["spikes_stepped"] == c["spikes"]

    def dump(self, path, header: dict) -> None:
        fields = ("id", "name", "parent", "inst", "start", "end", "busy", "calls")
        spans = sorted(self.spans, key=lambda s: s.id)
        with open(path, "w") as f:
            json.dump(
                {
                    **header,
                    "fields": fields,
                    "spans": [[getattr(s, k) for k in fields] for s in spans],
                },
                f,
            )
