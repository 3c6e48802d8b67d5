#!/usr/bin/env python3
"""Run alternating pairs of benchmark runs on two sides and write BENCH_<workload>.json.

    python3 benchmarks/pairs.py BASE HEAD --workload many-small --seed 0 --pairs 10 --seconds 20

BASE and HEAD are each a git revision of the repository that holds this
script, exported with `git archive` into a temporary directory, or a
directory that holds a checkout, whose `perfbench/`, `src/` and
`BENCHMARK.json` are copied into one without bytecode caches: a cache left
in a checkout would shorten its `setup_s`. Naming the same side twice
measures an A/A pair: two separate copies of one tree, which records the
noise floor.

Each pair runs `perfbench/run.py --trace 0` unchanged on both sides, one
after the other, and alternates which side runs first. Runs start with
PYTHONDONTWRITEBYTECODE=1, so no run reuses bytecode that another wrote, and
through `runpy` after importing `importlib.util`: `perfbench/bench.py` reads
that module without importing it, which only some Python versions import
first.

The output file (default `benchmarks/BENCH_<workload>.json`) holds the
first run's environment line, both sides, every run's metrics, each
metric's median and quartiles per side, the ratios HEAD/BASE per pair and
how many pairs HEAD won, and each metric's bound from BENCHMARK.json.
When any run reads `correct: false` or has failed operations, the script
still writes the file, then names each such run on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Starts perfbench/run.py as `python perfbench/run.py` would, with
# importlib.util imported first.
RUNNER = (
    "import importlib.util, os, runpy, sys; "
    "sys.path.insert(0, os.path.abspath('perfbench')); "
    "sys.argv = ['perfbench/run.py', *sys.argv[1:]]; "
    "runpy.run_path('perfbench/run.py', run_name='__main__')"
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def src_digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of the files under src/."""
    digest = hashlib.sha256()
    src = directory / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def export(side: str, scratch: Path) -> tuple[Path, dict]:
    """A fresh copy of `side` under `scratch` to run in, and how the output file names it."""
    directory = Path(tempfile.mkdtemp(prefix="side-", dir=scratch))
    source = Path(side)
    if source.is_dir():
        skip = shutil.ignore_patterns("__pycache__")
        for name in ("perfbench", "src"):
            shutil.copytree(source / name, directory / name, ignore=skip)
        shutil.copy(source / "BENCHMARK.json", directory)
        named = {"given": source.resolve().name, "commit": None}
    else:
        commit = git("rev-parse", "--verify", f"{side}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(directory, filter="data")
            else:
                archive.extractall(directory)
        named = {"given": side, "commit": commit}
    return directory, {**named, "src_sha256": src_digest(directory)}


def run_once(directory: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run in `directory`: its environment and result lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, *args], cwd=directory, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {directory}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], specs: dict) -> dict:
    """Per metric: each side's quartiles, the HEAD/BASE pair ratios and HEAD's wins."""
    summary = {}
    for name, spec in specs.items():
        sides = {
            side: [run["metrics"][name] for run in runs if run["side"] == side]
            for side in ("base", "head")
        }
        ratios = [h / b if b else None for b, h in zip(sides["base"], sides["head"])]
        higher = spec["better"] == "higher"
        wins = sum((h > b) if higher else (h < b) for b, h in zip(sides["base"], sides["head"]))
        base, head = quartiles(sides["base"]), quartiles(sides["head"])
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": base,
            "head": head,
            "pair_ratios": ratios,
            "wins": wins,
            "median_ratio": head["median"] / base["median"] if base["median"] else None,
            "gap_exceeds_base_iqr": abs(head["median"] - base["median"]) > base["q3"] - base["q1"],
        }
    return summary


def measure(base: str, head: str, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        directories, sides = {}, {}
        for side, given in (("base", base), ("head", head)):
            directories[side], sides[side] = export(given, Path(scratch))
        runs, environment = [], None
        for pair in range(pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                env, result = run_once(directories[side], workload, seed, seconds)
                environment = environment or {k: v for k, v in env.items() if k != "host"}
                runs.append({
                    "pair": pair,
                    "side": side,
                    "first": side == order[0],
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "host": env["host"],
                })
                print(f"pair {pair} {side}: {json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
    return {
        "environment": environment,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": pairs,
        "sides": sides,
        "runs": runs,
        "summary": summarize(runs, specs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", help="git revision or directory")
    parser.add_argument("head", help="git revision or directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--output", type=Path, help="default: benchmarks/BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    record = measure(args.base, args.head, args.workload, args.seed, args.pairs, args.seconds)
    output = args.output or ROOT / "benchmarks" / f"BENCH_{args.workload}.json"
    output.write_text(json.dumps(record, indent=1) + "\n")
    for name, row in record["summary"].items():
        print(
            f"{name}: {row['base']['median']:.6g} -> {row['head']['median']:.6g}"
            f" wins {row['wins']}/{args.pairs}"
        )
    wrong = [run for run in record["runs"] if not run["correct"] or run["failed"]]
    for run in wrong:
        print(
            f"pair {run['pair']} {run['side']}: correct={run['correct']}"
            f" failed {run['failed']}/{run['attempted']}",
            file=sys.stderr,
        )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
