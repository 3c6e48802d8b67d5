#!/usr/bin/env python3
"""Record the exact outputs the benchmark checks its runs against.

    python3 perfbench/record.py

Writes perfbench/expected.json: for each of the RECORDED_SEEDS input seeds,
the trace SHA-256 and TIME/ENERGY/payload ENERGY of both sparse workloads and
the totals of the checked instrumented-decide batches, plus the
MismatchReport counts of a many-small sweep. Rerun it only when a change is
meant to alter those outputs, and say so in the change.
"""

import json
import sys

import bench

if __name__ == "__main__":
    sys.path.insert(0, str(bench.SRC))
    expected = bench.record_expected(bench.FULL, range(bench.RECORDED_SEEDS))
    bench.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
