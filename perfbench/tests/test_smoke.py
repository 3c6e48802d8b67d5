"""Smoke test of the benchmark: all four workloads at tiny sizes.

    python3 -m pytest perfbench/tests

Checks that each workload runs, passes its own output checks, emits exactly
the metrics BENCHMARK.json names (end-to-end untraced, per-layer traced),
that wrong recorded outputs count as failures, and that the exact per-layer
counts repeat.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

TINY = bench.Sizes(
    neurons=40,
    panel=2,
    max_steps=2_000,
    int_spikes=300,
    rational_spikes=200,
    sweep_max_len=1,
    sweep_max_val=3,
    sweep_random=4,
    decide_max_len=4,
    decide_max_val=8,
    decide_batch=6,
    checked_batches=2,
    setup_repeats=2,
    sample_every=10,
)
SEED = 5
SECONDS = 0.05
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected():
    keys = {bench.input_seed(SEED + j * bench.RECORDED_SEEDS // TINY.panel) for j in range(TINY.panel)}
    return bench.record_expected(TINY, sorted(keys))


@pytest.fixture(autouse=True)
def spans_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_passes_checks_and_emits_every_metric(workload, trace, expected, spans_dir):
    env, result = bench.run_workload(workload, SEED, SECONDS, trace, TINY, expected)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert {"python", "cpus", "backends", "commit", "seed"} <= set(env)
    if trace:
        spans = json.loads((spans_dir / f"spans-{workload}-{SEED}.json").read_text())
        assert spans["spans"]
    else:
        for name in ("setup_s", "spikes_per_s", "instances_per_s", "peak_rss_mib", "success_rate"):
            assert result["metrics"][name]["value"] > 0, name


def test_per_layer_split_matches_the_workload(expected):
    def layers(workload):
        _, result = bench.run_workload(workload, SEED, SECONDS, True, TINY, expected)
        return {name: m["value"] for name, m in result["metrics"].items()}

    sparse = layers("sparse-rational")
    assert sparse["snnfmt.parse_s"] > 0 and sparse["engine.render_s"] > 0
    assert sparse["kernel.slow_share"] > 0 and sparse["kernel.peak_den_bits"] > 1
    assert sparse["harness.builder_ops"] == 0 and sparse["arraysearch.compile_s"] == 0
    decide = layers("instrumented-decide")
    assert decide["gadgets.timer_s"] > 0 and decide["gadgets.meter_s"] > 0
    assert decide["harness.builder_ops"] > 0 and decide["snnfmt.parse_s"] == 0
    sweep = layers("many-small")
    assert sweep["arraysearch.structure_reuse"] > 0 and sweep["harness.verify_s"] > 0


@pytest.mark.parametrize("workload", ["sparse-int", "instrumented-decide"])
def test_exact_counts_repeat(workload, expected):
    exact = ("engine.steps", "engine.spikes", "kernel.deliveries", "harness.builder_ops")
    runs = [bench.run_workload(workload, SEED, SECONDS, True, TINY, expected)[1] for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in exact} for r in runs)
    assert first == second


@pytest.mark.parametrize(
    "workload, field",
    [
        ("sparse-int", "sha256"),
        ("sparse-rational", "energy"),
        ("instrumented-decide", "builder_ops"),
        ("many-small", "checked"),
    ],
)
def test_wrong_recorded_output_counts_as_failure(workload, field, expected):
    broken = copy.deepcopy(expected)
    for record in broken[workload].values():
        record[field] = "0" if field == "sha256" else record[field] + 1
    _, result = bench.run_workload(workload, SEED, SECONDS, False, TINY, broken)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sparse-int", "--seed", "0", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
