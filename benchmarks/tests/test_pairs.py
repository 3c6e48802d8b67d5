"""Smoke test of the pair runner.

    python -m pytest benchmarks/tests

Runs one 1 s A/A pair of `many-small` with this checkout's directory as
both sides (so it needs no git) and checks the schema of the file it writes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import pairs  # noqa: E402

SPECS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_a_a_pair_writes_the_documented_file(tmp_path):
    output = tmp_path / "BENCH_many-small.json"
    args = ["--workload", "many-small", "--seed", "0", "--pairs", "1", "--seconds", "1"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pairs.py"), str(ROOT), str(ROOT), *args,
         "--output", str(output)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(output.read_text())
    assert set(record) == {
        "environment", "workload", "seed", "seconds", "pairs", "sides", "runs", "summary"
    }
    assert (record["workload"], record["seed"], record["seconds"], record["pairs"]) == (
        "many-small", 0, 1.0, 1
    )
    assert record["environment"]["workload"] == "many-small"
    assert "host" not in record["environment"]
    assert [record["sides"][s]["given"] for s in ("base", "head")] == [ROOT.name] * 2
    assert record["sides"]["base"]["commit"] is None
    assert record["sides"]["base"]["src_sha256"] == record["sides"]["head"]["src_sha256"]
    assert [(run["pair"], run["side"], run["first"]) for run in record["runs"]] == [
        (0, "base", True), (0, "head", False)
    ]
    for run in record["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert set(run["metrics"]) == set(SPECS)
        assert set(run["host"]) >= {"speed", "instances_per_s"}
    assert set(record["summary"]) == set(SPECS)
    for name, row in record["summary"].items():
        assert (row["unit"], row["better"], row["bound"]) == (
            SPECS[name]["unit"], SPECS[name]["better"], SPECS[name]["bound"]
        )
        for side in ("base", "head"):
            value = record["runs"][side == "head"]["metrics"][name]
            assert row[side] == {"q1": value, "median": value, "q3": value}
        assert len(row["pair_ratios"]) == 1 and row["wins"] in (0, 1)


def test_summary_counts_wins_in_each_metric_direction():
    def run(pair, side, setup_s, instances_per_s):
        return {"pair": pair, "side": side,
                "metrics": {"setup_s": setup_s, "instances_per_s": instances_per_s}}

    runs = [
        run(0, "base", 0.5, 100.0), run(0, "head", 0.4, 110.0),
        run(1, "head", 0.6, 90.0), run(1, "base", 0.5, 100.0),
        run(2, "base", 0.7, 120.0), run(2, "head", 0.7, 130.0),
    ]
    specs = {name: SPECS[name] for name in ("setup_s", "instances_per_s")}
    summary = pairs.summarize(runs, specs)
    assert summary["setup_s"]["wins"] == 1  # lower is better; the tie counts for neither
    assert summary["instances_per_s"]["wins"] == 2
    assert summary["instances_per_s"]["pair_ratios"] == [1.1, 0.9, 130.0 / 120.0]
    assert summary["instances_per_s"]["base"] == {"q1": 100.0, "median": 100.0, "q3": 110.0}
    assert summary["instances_per_s"]["head"] == {"q1": 100.0, "median": 110.0, "q3": 120.0}
    assert summary["instances_per_s"]["gap_exceeds_base_iqr"] is False


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 2)])
def test_a_run_that_fails_its_output_check_is_named_and_exits_1(
    correct, failed, tmp_path, monkeypatch, capsys
):
    def run(pair, side, correct=True, failed=0):
        return {"pair": pair, "side": side, "correct": correct, "attempted": 10,
                "failed": failed, "metrics": {"setup_s": 0.5}}

    record = {
        "runs": [run(0, "base"), run(0, "head"), run(1, "head", correct, failed), run(1, "base")],
        "summary": pairs.summarize([run(0, "base"), run(0, "head")], {"setup_s": SPECS["setup_s"]}),
    }
    monkeypatch.setattr(pairs, "measure", lambda *args: record)
    output = tmp_path / "out.json"
    argv = ["a", "b", "--workload", "many-small", "--seed", "0", "--pairs", "2", "--seconds", "1"]
    assert pairs.main([*argv, "--output", str(output)]) == 1
    assert json.loads(output.read_text()) == record
    out, err = capsys.readouterr()
    assert out.startswith("setup_s: 0.5 -> 0.5")
    assert err == f"pair 1 head: correct={correct} failed {failed}/10\n"
