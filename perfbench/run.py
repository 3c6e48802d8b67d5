#!/usr/bin/env python3
"""Run one workload of the snnkit benchmark and print its result.

    python3 perfbench/run.py --workload sparse-int --seed 0 --seconds 12 --trace 0

Run from the root of a checkout. The package is imported from src/ (not from
an installed copy). The second-to-last line of stdout is the environment
block, the last line the result: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run and writes its spans to perfbench/out/.
"""

import argparse
import json
import sys

import bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (bench.SRC / "snnkit" / "__init__.py").is_file():
        print(f"no snnkit sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    env, result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
