"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <name>: PASS|FAIL` line (visible with
`pytest -s` or in the captured-output section). The array-search sweep is
shared by the first three criteria and timed as a whole.
"""

import time
from contextlib import contextmanager

import pytest

from snnkit.arraysearch import ArrayInstance
from snnkit.engine import RunLimits, Simulation, run
from snnkit.gadgets import attach_meter, attach_timer, make_clock, make_number
from snnkit.harness import (
    ACCEPTED,
    PROMISE_VIOLATED,
    Domain,
    ResourceCaps,
    get_compiler,
    network_halting_oracle,
    verify_equivalence,
)
from snnkit.hostprog import host_run
from snnkit.model import NetworkBuilder
from snnkit.randnet import random_network, sparse_benchmark_network
from snnkit.snnfmt import parse_network, serialize_network


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive sweep: every array of length <= 4 over values < 8, every
    target < 8, all three variants; 3 x 37448 compiled runs."""
    domain = Domain(max_len=4, max_val=8)
    started = time.perf_counter()
    reports = {
        variant: verify_equivalence(f"array-search-{variant}", domain)
        for variant in ("a", "b", "c")
    }
    elapsed = time.perf_counter() - started
    return reports, elapsed


def test_array_search_correctness(sweep):
    reports, elapsed = sweep
    with criterion("array-search correctness (3 x 37448 exhaustive runs)"):
        for variant, report in reports.items():
            assert report.checked == 37448, variant
            assert report.mismatches == (), variant
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_spike_bounds_on_sweep(sweep):
    reports, _ = sweep
    with criterion("declared TIME/SPACE/ENERGY caps"):
        for variant, report in reports.items():
            assert report.bound_violations == (), variant


def test_energy_time_space_inequality(sweep):
    reports, _ = sweep
    with criterion("energy <= time * space on sweep + 500 random networks"):
        for variant, report in reports.items():
            assert report.inequality_violations == (), variant
        for seed in range(500):
            net = random_network(seed, max_neurons=20, max_synapses=60)
            report, _ = run(net, RunLimits(200))
            assert report.energy <= report.time * report.neurons, seed


def test_timer_hard_deadline():
    with criterion("timer forces a verdict by step t_bound + 1 (200 x 10 runs)"):
        for seed in range(200):
            payload = random_network(seed, max_neurons=14, max_synapses=40)
            for t_bound in range(10):
                augmented = attach_timer(payload, t_bound)
                report, _ = run(augmented, RunLimits(t_bound + 3))
                assert report.verdict != "timeout", (seed, t_bound)
                assert report.time <= t_bound + 2, (seed, t_bound)


def test_meter_soundness():
    with criterion("meter blocks acceptance past s + 2 (200 x 10 runs)"):
        for seed in range(200):
            payload = random_network(
                seed, max_neurons=14, max_synapses=40,
                accept_reset_below_threshold=True,
            )
            for e_bound in range(1, 11):
                augmented = attach_meter(payload, e_bound)
                report, trace = run(augmented, RunLimits(60), trace=True)
                if report.verdict != "accept":
                    continue
                accept_step = report.time - 1
                cumulative = 0
                budget_step = None
                for step in trace.steps:
                    cumulative += sum(
                        1 for name in step.fired if name not in augmented.gadget_tags
                    )
                    if cumulative >= e_bound:
                        budget_step = step.t
                        break
                if budget_step is not None:
                    assert accept_step <= budget_step + 2, (seed, e_bound)


def test_gadget_unit_checks():
    with criterion("clock fires at {1+jK}, number at {2+n+jK}, K <= 10, 100 steps"):
        for period in range(1, 11):
            frag = make_clock(period)
            sim = Simulation(frag.to_network())
            fired = [t for t in range(100) if frag.output in sim.step()]
            assert fired == [1 + j * period for j in range(100) if 1 + j * period < 100]
            for value in range(period):
                frag = make_number(value, period)
                sim = Simulation(frag.to_network())
                fired = [t for t in range(100) if frag.output in sim.step()]
                expected = [
                    2 + value + j * period
                    for j in range(100)
                    if 2 + value + j * period < 100
                ]
                assert fired == expected, (value, period)


def test_determinism_and_round_trip():
    with criterion("byte-identical traces + parse/serialize identity (100 networks)"):
        for seed in range(100):
            net = random_network(seed)
            renders = []
            for _ in range(2):  # repeated runs
                _, trace = run(net, RunLimits(80), trace=True)
                renders.append(trace.render())
            assert len(set(renders)) == 1, seed
            assert parse_network(serialize_network(net)) == net, seed


def test_large_simulation_speed():
    with criterion("1000 neurons x 10k steps < 5 s; doubling steps <= 3x time"):
        net = sparse_benchmark_network(1000, seed=5)
        started = time.perf_counter()
        report, _ = run(net, RunLimits(10_000))
        base = time.perf_counter() - started
        assert report.time == 10_000
        assert base < 5.0, f"took {base:.2f}s"
        started = time.perf_counter()
        run(net, RunLimits(20_000))
        doubled = time.perf_counter() - started
        assert doubled <= 3.0 * base, f"{base:.2f}s -> {doubled:.2f}s"


LOOPING_PROGRAM = """\
let n0 = compile array-search --variant a --array 2 --target 0 --bound 4
let b0 = oracle n0 time=12 space=8 energy=8
if b0 goto done
let n1 = compile array-search --variant a --array 2 --target 1 --bound 4
let b1 = oracle n1 time=12 space=8 energy=8
if b1 goto done
let n2 = compile array-search --variant a --array 2 --target 2 --bound 4
let b2 = oracle n2 time=12 space=8 energy=8
if b2 goto done
let n3 = compile array-search --variant a --array 2 --target 3 --bound 4
let b3 = oracle n3 time=12 space=8 energy=8
if b3 goto done
reject
label done
accept
"""


def test_oracle_and_host():
    with criterion("host loop accepts after 3 calls; each tightened bound flips outcome"):
        result = host_run(LOOPING_PROGRAM)
        assert result.verdict == "accept"
        assert len(result.calls) == 3

        # Measure a run exactly, then confirm the oracle accepts at the
        # measured caps and flags a violation when any single cap drops by 1.
        instance = ArrayInstance((2,), 2, 4)
        network = get_compiler("array-search-a").build(instance, NetworkBuilder())
        measured = run(network, RunLimits(32)).report
        assert measured.verdict == "accept"
        exact = ResourceCaps(
            time=measured.time, space=measured.neurons, energy=measured.energy
        )
        assert network_halting_oracle(network, exact).outcome == ACCEPTED
        for tightened in (
            ResourceCaps(exact.time - 1, exact.space, exact.energy),
            ResourceCaps(exact.time, exact.space - 1, exact.energy),
            ResourceCaps(exact.time, exact.space, exact.energy - 1),
        ):
            answer = network_halting_oracle(network, tightened)
            assert answer.outcome == PROMISE_VIOLATED, tightened
