"""The compiled and pure builds of the one kernel source agree.

The compiled build exists only where Cython compiled `_kernel.py` at
install time; it then shadows the `.py`. The agreement tests load the `.py`
by path and run it in the compiled build's place, so they skip when the
pure build is the one imported.
"""

import importlib.util
from pathlib import Path

import pytest

from snnkit import _kernel, engine
from snnkit.engine import RunLimits, available_backends, run
from snnkit.randnet import random_network, sparse_benchmark_network

needs_compiled = pytest.mark.skipif(
    available_backends() != ("compiled",), reason="compiled kernel not built"
)


def _pure_kernel():
    path = Path(_kernel.__file__).with_name("_kernel.py")
    spec = importlib.util.spec_from_file_location("snnkit._kernel_pure", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Kernel


def _trace_text(network, limits):
    return run(network, limits, trace=True).trace.render()


def _compiled_and_pure(network, limits, monkeypatch):
    compiled = _trace_text(network, limits)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "Kernel", _pure_kernel())
        pure = _trace_text(network, limits)
    return compiled, pure


@needs_compiled
def test_identical_traces_on_random_networks(monkeypatch):
    for seed in range(50):
        compiled, pure = _compiled_and_pure(random_network(seed), RunLimits(80), monkeypatch)
        assert compiled == pure, f"seed {seed}"


@needs_compiled
def test_identical_traces_on_benchmark_network(monkeypatch):
    net = sparse_benchmark_network(200, seed=1)
    compiled, pure = _compiled_and_pure(net, RunLimits(300), monkeypatch)
    assert compiled == pure


def test_repeated_runs_are_byte_identical():
    for seed in range(10):
        net = random_network(seed)
        first = _trace_text(net, RunLimits(60))
        second = _trace_text(net, RunLimits(60))
        assert first == second


def test_traces_stable_across_processes():
    # Different PYTHONHASHSEED values perturb str hashing; traces must not
    # depend on set/dict iteration order anywhere.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import snnkit

    # The child must import the snnkit under test, installed or run from
    # src, so its parent directory goes first on the child's path as an
    # absolute path (the child runs with cwd="/").
    package_root = str(Path(snnkit.__file__).resolve().parent.parent)
    child_path = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    script = (
        "from snnkit.engine import RunLimits, run\n"
        "from snnkit.randnet import random_network\n"
        "for seed in range(8):\n"
        "    net = random_network(seed)\n"
        "    print(run(net, RunLimits(60), trace=True).trace.render(), end='')\n"
    )
    expected = "".join(
        run(random_network(seed), RunLimits(60), trace=True).trace.render()
        for seed in range(8)
    )
    outputs = set()
    for hashseed in ("1", "2", "99"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": child_path,
                # The child writes no bytecode into the checkout under test.
                "PYTHONDONTWRITEBYTECODE": "1",
            },
            cwd="/",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout, f"hash seed {hashseed}: child printed nothing"
        assert proc.stdout == expected, f"hash seed {hashseed}: trace differs"
        outputs.add(proc.stdout)
    assert len(outputs) == 1
