from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from snnkit.engine import (
    NoVerdictNeuronError,
    ResourceReport,
    RunLimits,
    Simulation,
    Trace,
    TraceStep,
    render_raster,
    run,
)
from snnkit.gadgets import attach_timer
from snnkit.model import (
    InvalidNetworkError,
    Network,
    NetworkBuilder,
    NeuronSpec,
    PeriodicSchedule,
)
from snnkit.randnet import random_network

from reference_engine import fires_at, simulate_reference

F = Fraction


def _drive(steps, inputs, threshold=1, reset=0, leak=1):
    """Step neuron n, fed through (delay, weight) synapses by p, which fires at t=0.

    Every step is checked against the reference simulator. Returns n's fire
    times and its potential after the last step.
    """
    builder = NetworkBuilder()
    builder.add_input("p", [0])
    builder.add_neuron("n", threshold=threshold, reset=reset, leak=leak)
    for delay, weight in inputs:
        builder.add_synapse("p", "n", delay=delay, weight=weight)
    net = builder.build()
    ref = simulate_reference(net, steps)
    fired_at = dict(ref.fired_log)
    sim = Simulation(net)
    for t, (potentials, pending) in enumerate(ref.state_log):
        assert sim.step() == fired_at.get(t, ()), t
        assert sim.potentials() == potentials, t
        assert sim.pending() == pending, t
    fire_times = [t for t, fired in ref.fired_log if "n" in fired]
    return fire_times, sim.potentials()["n"]


def _update(u, leak, s, threshold, reset):
    """One neuron-step from potential u with input s: p puts u on n at t=1 and adds s at t=2."""
    return _drive(3, [(1, u), (2, s)], threshold, reset, leak)


class TestNeuronRule:
    def test_single_default_spike_fires_default_neuron(self):
        assert _update(F(0), F(1), F(1), F(1), F(0)) == ([2], F(0))

    def test_leaky_accumulation_reaches_threshold(self):
        # 1/2 * 3/4 + 3/4 = 9/8 >= 1
        assert _update(F(3, 4), F(1, 2), F(3, 4), F(1), F(0)) == ([2], F(0))

    def test_inhibition_clamps_at_zero(self):
        assert _update(F(1, 2), F(1), F(-2), F(1), F(0)) == ([], F(0))

    def test_zero_threshold_always_fires(self):
        # Even while inhibited: the clamped potential 0 reaches threshold 0.
        assert _drive(6, [(2, F(-5))], threshold=0, reset=2) == ([0, 1, 2, 3, 4, 5], F(2))

    def test_reset_above_threshold_is_allowed(self):
        # Input 5 crosses threshold 3 at t=1; reset 7 then re-triggers every step.
        assert _drive(6, [(1, F(5))], threshold=3, reset=7) == ([1, 2, 3, 4, 5], F(7))

    def test_subthreshold_keeps_potential(self):
        assert _update(F(1, 3), F(1, 2), F(1, 4), F(1), F(0)) == ([], F(5, 12))

    @given(
        u=st.fractions(min_value=0, max_value=10, max_denominator=8),
        m=st.fractions(min_value=0, max_value=1, max_denominator=8),
        s=st.fractions(min_value=-10, max_value=10, max_denominator=8),
        t=st.fractions(min_value=0, max_value=10, max_denominator=8),
        r=st.fractions(min_value=0, max_value=10, max_denominator=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_clamp_and_threshold_properties(self, u, m, s, t, r):
        assume(u < t)
        fire_times, next_u = _update(u, m, s, t, r)
        assert next_u >= 0
        if fire_times:
            assert fire_times == [2]
            assert max(F(0), m * u + s) >= t
            assert next_u == r
        else:
            assert next_u == max(F(0), m * u + s)
            assert next_u < t



class TestCarryBoundary:
    """Each neuron rule at the edge of re-firing with no input: leak*reset vs threshold.

    p's spike crosses the threshold at t=1. A neuron whose leak*reset reaches
    its threshold fires on every later step; one whose does not fires again
    only when the delivery at t=5 lifts it. `_drive` checks the fired ids,
    potentials and pending deliveries after every step.
    """

    @pytest.mark.parametrize(
        "inputs, threshold, reset, leak, expected",
        [
            pytest.param([(1, F(2))], 2, 2, 1, ([1, 2, 3, 4, 5, 6, 7], F(2)), id="integrator-refires"),
            pytest.param([(1, F(2)), (5, F(1))], 2, 1, 1, ([1, 5], F(1)), id="integrator-holds-reset"),
            # 1/2 * 4 = 2 reaches threshold 2.
            pytest.param([(1, F(2))], 2, 4, F(1, 2), ([1, 2, 3, 4, 5, 6, 7], F(4)), id="decaying-refires"),
            # 1/2 * 3 < 2: the reset decays untouched to 3/16 by t=5, where 2 more fires it.
            pytest.param([(1, F(2)), (5, F(2))], 2, 3, F(1, 2), ([1, 5], F(3, 4)), id="decaying-decays-idle"),
            pytest.param([(3, F(-5))], 0, 2, 0, ([0, 1, 2, 3, 4, 5, 6, 7], F(2)), id="memoryless-zero-threshold"),
            pytest.param([(1, F(2)), (5, F(2))], 2, 3, 0, ([1, 5], F(0)), id="memoryless-reset-above-threshold"),
        ],
    )
    def test_fires_again_without_input_only_when_leak_times_reset_reaches_threshold(
        self, inputs, threshold, reset, leak, expected
    ):
        assert _drive(8, inputs, threshold, reset, leak) == expected

def _one_shot_network():
    builder = NetworkBuilder()
    builder.add_input("p", [0])
    builder.add_neuron("sink")
    builder.set_accept("sink")
    return builder.build()


@pytest.mark.usefixtures("kernel_build")
class TestStep:
    def test_programmed_spike_counts_energy(self):
        sim = Simulation(_one_shot_network())
        assert sim.step() == ("p",)
        assert sim.energy == 1
        assert sim.pending() == {}

    def test_self_loop_sustains_firing(self):
        builder = NetworkBuilder()
        builder.add_input("seed", [0])
        builder.add_neuron("loop")
        builder.add_synapse("seed", "loop")
        builder.add_synapse("loop", "loop")
        net = builder.build()
        sim = Simulation(net)
        for _ in range(6):  # t = 0..5
            sim.step()
        assert sim.energy == 1 + 5

    def test_self_retriggering_counter_neuron(self):
        # threshold = reset = 2, leak 1: once the potential reaches 2 the
        # neuron fires every subsequent step because reset restores it.
        builder = NetworkBuilder()
        builder.add_input("p", [0, 1])
        builder.add_neuron("e", threshold=2, reset=2, leak=1)
        builder.add_synapse("p", "e")
        builder.add_synapse("p", "e")  # parallel synapses sum
        net = builder.build()
        sim = Simulation(net)
        fired_at = []
        for t in range(8):
            if "e" in sim.step():
                fired_at.append(t)
        assert fired_at == [1, 2, 3, 4, 5, 6, 7]

    def test_inputs_to_programmed_neurons_are_ignored(self):
        builder = NetworkBuilder()
        builder.add_input("p", [3])
        builder.add_input("q", [0])
        builder.add_neuron("sink")
        builder.add_synapse("q", "p", weight=100)
        builder.add_synapse("q", "sink", weight=100)
        sim = Simulation(builder.build())
        fires = {t: sim.step() for t in range(5)}
        assert fires[1] == ("sink",)
        assert fires[3] == ("p",)
        assert fires[2] == ()

    def test_potentials_are_exact_and_clamped(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0])
        builder.add_neuron("n", threshold=10, leak="1/2")
        builder.add_synapse("p", "n", weight="3/4")
        builder.set_accept("n")
        sim = Simulation(builder.build())
        sim.step()
        sim.step()
        assert sim.potentials()["n"] == F(3, 4)
        sim.step()
        assert sim.potentials()["n"] == F(3, 8)
        sim.step()
        assert sim.potentials()["n"] == F(3, 16)

    def test_pending_only_future_arrivals(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0])
        builder.add_neuron("n")
        builder.add_synapse("p", "n", delay=3, weight="1/2")
        builder.set_accept("n")
        sim = Simulation(builder.build())
        sim.step()
        assert sim.pending() == {(3, "n"): F(1, 2)}
        sim.step()
        sim.step()
        sim.step()
        assert sim.pending() == {}

    def test_step_after_verdict_raises(self, trivial_accept_network):
        sim = Simulation(trivial_accept_network)
        sim.step()
        assert sim.verdict == "accept"
        with pytest.raises(RuntimeError):
            sim.step()

    def test_counters_after_one_step(self):
        sim = Simulation(_one_shot_network())
        assert sim.step() == ("p",)
        assert (sim.t, sim.energy, sim.energy_payload) == (1, 1, 1)
        assert sim.verdict is None


@pytest.mark.usefixtures("kernel_build")
class TestRun:
    def test_trivial_accept(self, trivial_accept_network):
        report, _ = run(trivial_accept_network, RunLimits(10))
        assert report == ResourceReport("accept", 1, 1, 1, 1, 0)

    def test_simultaneous_verdicts_are_ambiguous(self):
        builder = NetworkBuilder()
        builder.add_input("a", [0])
        builder.add_input("r", [0])
        builder.set_accept("a")
        builder.set_reject("r")
        report, _ = run(builder.build(), RunLimits(5))
        assert report.verdict == "ambiguous"
        assert report.time == 1

    def test_clock_into_accept(self):
        builder = NetworkBuilder()
        builder.add_input("seed", [0])
        builder.add_neuron("clk")
        builder.add_synapse("seed", "clk")
        builder.add_synapse("clk", "clk", delay=3)
        builder.add_neuron("acc")
        builder.add_synapse("clk", "acc")
        builder.set_accept("acc")
        report, trace = run(builder.build(), RunLimits(32), trace=True)
        assert report.verdict == "accept"
        assert trace.fire_times("acc") == (2,)
        assert report.energy == 3  # seed, clock tick, accept

    def test_timeout_at_step_cap(self):
        builder = NetworkBuilder()
        builder.add_neuron("acc")  # never fires
        builder.set_accept("acc")
        report, _ = run(builder.build(), RunLimits(7))
        assert report.verdict == "timeout"
        assert report.time == 7

    def test_spike_cap_times_out(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0, 1, 2, 3, 4, 5])
        builder.add_neuron("acc")
        builder.set_accept("acc")
        report, _ = run(builder.build(), RunLimits(10, max_total_spikes=2))
        assert report.verdict == "timeout"
        assert report.energy == 3
        assert report.time == 3

    def test_verdict_wins_over_spike_cap_in_same_step(self, trivial_accept_network):
        report, _ = run(trivial_accept_network, RunLimits(10, max_total_spikes=0))
        assert report.verdict == "accept"

    def test_requires_verdict_neuron(self):
        builder = NetworkBuilder()
        builder.add_neuron("n")
        with pytest.raises(NoVerdictNeuronError):
            run(builder.build(), RunLimits(5))

    def test_rejects_invalid_network(self):
        bad = Network(neurons=(NeuronSpec("a", threshold=F(-1)),), accept="a")
        with pytest.raises(InvalidNetworkError):
            run(bad, RunLimits(5))

    def test_gadget_energy_split(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0, 2])
        builder.add_input("g", [1])
        builder.add_neuron("acc")
        builder.set_accept("acc")
        builder.tag_gadget("g")
        report, _ = run(builder.build(), RunLimits(5))
        assert report.energy == 3
        assert report.energy_payload == 2


def _per_step_run(network, limits):
    """What `run` returns, from a loop that tests the verdict and the spike cap after every step.

    Also says whether the spike cap was crossed on a step that followed a silent one.
    """
    sim = Simulation(network)
    steps = []
    verdict, time = "timeout", limits.max_steps
    silent_before = after_silent = False
    for t in range(limits.max_steps):
        fired = sim.step()
        if fired:
            steps.append(TraceStep(t, fired, sim.energy))
        if sim.verdict:
            verdict, time = sim.verdict, t + 1
            break
        if limits.max_total_spikes is not None and sim.energy > limits.max_total_spikes:
            after_silent = silent_before
            time = t + 1
            break
        silent_before = not fired
    report = ResourceReport(
        verdict, time, sim.energy, sim.energy_payload, network.size(), len(network.synapses)
    )
    return report, Trace(tuple(steps), report), after_silent


@pytest.mark.usefixtures("kernel_build")
class TestRunLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_steps=st.integers(1, 60),
        cap=st.one_of(st.sampled_from([None, 0, 1]), st.integers(2, 40)),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_matches_a_loop_that_checks_after_every_step(self, seed, max_steps, cap):
        net = random_network(seed, max_neurons=12, max_synapses=30)
        limits = RunLimits(max_steps, max_total_spikes=cap)
        report, trace = run(net, limits, trace=True)
        want_report, want_trace, after_silent = _per_step_run(net, limits)
        event(f"verdict {report.verdict}")
        if after_silent:
            event("spike cap crossed after a silent step")
        assert report == want_report
        assert trace.render() == want_trace.render()
        assert run(net, limits).report == report

    def test_spike_cap_crossed_after_silent_steps(self):
        builder = NetworkBuilder()
        builder.add_input("p", [3, 5])
        builder.add_neuron("acc", threshold=2)
        builder.add_synapse("p", "acc")
        builder.set_accept("acc")
        net = builder.build()
        limits = RunLimits(10, max_total_spikes=0)
        report, trace = run(net, limits, trace=True)
        assert (report.verdict, report.time, report.energy) == ("timeout", 4, 1)
        want_report, want_trace, after_silent = _per_step_run(net, limits)
        assert after_silent and report == want_report
        assert trace.render() == want_trace.render()


class TestRunLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunLimits(0)
        with pytest.raises(ValueError):
            RunLimits(5, max_total_spikes=-1)

    @pytest.mark.parametrize("max_steps", [True, 2.5, Fraction(3), "4", None])
    def test_step_cap_must_be_an_int(self, max_steps):
        # A bool is an int subclass whose values would pass the >= 1 test.
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            RunLimits(max_steps)

    @pytest.mark.parametrize("cap", [False, True, 2.5, Fraction(3), "4"])
    def test_spike_cap_must_be_an_int_or_none(self, cap):
        with pytest.raises(ValueError, match="max_total_spikes must be an integer >= 0"):
            RunLimits(5, max_total_spikes=cap)
        assert RunLimits(5, max_total_spikes=None).max_total_spikes is None


class TestTraceFormat:
    def test_render(self, trivial_accept_network):
        report, trace = run(trivial_accept_network, RunLimits(5), trace=True)
        text = trace.render()
        assert text.splitlines() == [
            "t=0 fired=acc energy=1",
            "verdict=accept time=1 energy=1 payload_energy=1 neurons=1 synapses=0",
        ]

    def test_silent_steps_omitted(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0, 4])
        builder.add_neuron("acc")
        builder.set_accept("acc")
        _, trace = run(builder.build(), RunLimits(9), trace=True)
        assert [step.t for step in trace.steps] == [0, 4]

    def test_raster(self, trivial_accept_network):
        report, trace = run(trivial_accept_network, RunLimits(5), trace=True)
        assert render_raster(trace, trivial_accept_network) == "acc |*|\n"


class TestReportInvariant:
    def test_energy_bounded_by_time_times_neurons(self):
        with pytest.raises(ValueError):
            ResourceReport("accept", 1, 5, 5, 2, 0)


def _zero_sum_into_carried():
    # c has reset >= threshold, so it is carried from step to step; at t=2
    # it gets +1 and -1 at once, a slot that sums to 0. d is carried at t=2
    # without a delivery, beside a non-empty slot; g is inhibited net.
    builder = NetworkBuilder()
    builder.add_input("s", [0])
    builder.add_input("a", [1])
    builder.add_input("b", [1])
    builder.add_neuron("c", threshold=1, reset=2, leak="1/2")
    builder.add_neuron("d", threshold=1, reset=1)
    builder.add_neuron("g", threshold=5)
    for post in ("c", "d"):
        builder.add_synapse("s", post)
    builder.add_synapse("s", "g", weight=3)
    builder.add_synapse("a", "c")
    builder.add_synapse("b", "c", weight=-1)
    builder.add_synapse("a", "g", weight=-2)
    return builder.build()


def _inhibited_zero_threshold():
    # z fires every step whatever its potential; n integrates z's spikes
    # and is clamped by i's inhibition every other step.
    builder = NetworkBuilder()
    builder.add_input("i", [0, 2, 4])
    builder.add_neuron("z", threshold=0, reset="1/3", leak="1/2")
    builder.add_neuron("n", threshold=4)
    builder.add_synapse("i", "z", weight=-3)
    builder.add_synapse("z", "n")
    builder.add_synapse("i", "n", weight=-2, delay=2)
    return builder.build()


def _interleaved_programmed_and_regular():
    # Sorted ids alternate programmed (a, c, e) and regular (b, d); at t=1
    # and t=2 both kinds fire together.
    builder = NetworkBuilder()
    builder.add_input("a", [0, 2])
    builder.add_neuron("b")
    builder.add_input("c", [1, 2])
    builder.add_neuron("d")
    builder.add_input("e", [2])
    builder.add_synapse("a", "b")
    builder.add_synapse("a", "d")
    builder.add_synapse("c", "d")
    return builder.build()


def _delivery_into_due_programmed():
    # q's spike reaches p at t=2, the step p is due; p's self-loop delivers
    # into it on steps it is not due.
    builder = NetworkBuilder()
    builder.add_input("p", [0, 2])
    builder.add_input("q", [1])
    builder.add_neuron("r")
    builder.add_synapse("q", "p", weight=5)
    builder.add_synapse("p", "p", weight="1/2", delay=3)
    builder.add_synapse("p", "r")
    return builder.build()


def _shared_delivery_lanes():
    # At t=0, a and b fire into delay 1 (both into x) and into delays 2 and
    # 3; at t=1, a, c and x fire, and the first delivery into delays 1 and 2
    # lands on arrivals 2 and 3, which t=0 opened. The timer attach_timer
    # adds fires at t=0, and the gadget-tagged reject it adds fires at t=5.
    builder = NetworkBuilder()
    builder.add_input("a", [0, 1])
    builder.add_input("b", [0])
    builder.add_input("c", [1])
    builder.add_neuron("x", threshold=2)
    builder.add_neuron("y", threshold=2, leak="1/2")
    builder.add_neuron("acc", threshold=10)
    builder.add_synapse("a", "x")
    builder.add_synapse("b", "x")
    builder.add_synapse("a", "y", delay=3)
    builder.add_synapse("b", "y", weight="1/2", delay=2)
    builder.add_synapse("b", "acc", delay=3)
    builder.add_synapse("a", "acc")
    builder.add_synapse("c", "y", delay=2)
    builder.add_synapse("x", "acc", weight=2, delay=2)
    builder.set_accept("acc")
    return attach_timer(builder.build(), 4)


@pytest.mark.usefixtures("kernel_build")
class TestAgainstReference:
    def test_random_networks_match_brute_force(self):
        for seed in range(40):
            net = random_network(seed, max_neurons=12, max_synapses=30)
            report, trace = run(net, RunLimits(60), trace=True)
            ref = simulate_reference(net, 60)
            assert report.verdict == ref.verdict, f"seed {seed}"
            assert report.time == ref.time, f"seed {seed}"
            assert report.energy == ref.energy, f"seed {seed}"
            assert report.energy_payload == ref.payload_energy, f"seed {seed}"
            got = [(step.t, step.fired) for step in trace.steps]
            assert got == ref.fired_log, f"seed {seed}"

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_drawn_random_networks_match_reference_state(self, seed):
        net = random_network(seed, max_neurons=12, max_synapses=30)
        ref = simulate_reference(net, 60)
        fired_at = dict(ref.fired_log)
        sim = Simulation(net)
        for t, (potentials, pending) in enumerate(ref.state_log):
            assert sim.step() == fired_at.get(t, ()), t
            assert sim.potentials() == potentials, t
            assert sim.pending() == pending, t

    @pytest.mark.parametrize(
        "build",
        [
            _zero_sum_into_carried,
            _inhibited_zero_threshold,
            _interleaved_programmed_and_regular,
            _delivery_into_due_programmed,
            _shared_delivery_lanes,
        ],
    )
    def test_hand_built_networks_match_reference_state(self, build):
        net = build()
        ref = simulate_reference(net, 12)
        fired_at = dict(ref.fired_log)
        sim = Simulation(net)
        for t, (potentials, pending) in enumerate(ref.state_log):
            assert sim.step() == fired_at.get(t, ()), t
            assert sim.potentials() == potentials, t
            assert sim.pending() == pending, t
        assert (sim.verdict or "timeout", sim.energy, sim.energy_payload) == (
            ref.verdict, ref.energy, ref.payload_energy
        )

    def test_programmed_independence(self):
        # Firing times of programmed neurons equal their schedule regardless
        # of incoming synapses.
        for seed in range(20):
            net = random_network(seed, max_neurons=10, max_synapses=25)
            _, trace = run(net, RunLimits(50), trace=True)
            horizon = trace.report.time
            for name, sched in net.programmed.items():
                expected = tuple(t for t in range(horizon) if fires_at(sched, t))
                assert trace.fire_times(name) == expected

    def test_no_duplicate_ids_within_step(self):
        for seed in range(10):
            net = random_network(seed)
            _, trace = run(net, RunLimits(50), trace=True)
            for step in trace.steps:
                assert len(set(step.fired)) == len(step.fired)

    def test_potentials_nonnegative_throughout(self):
        for seed in range(10):
            net = random_network(seed, max_neurons=8, max_synapses=20)
            sim = Simulation(net)
            for _ in range(30):
                if sim.verdict is not None:
                    break
                sim.step()
                assert all(v >= 0 for v in sim.potentials().values())

    def test_pending_arrivals_always_in_the_future(self):
        for seed in range(10):
            net = random_network(seed, max_neurons=8, max_synapses=20)
            sim = Simulation(net)
            for _ in range(25):
                if sim.verdict is not None:
                    break
                sim.step()
                last_step = sim.t - 1
                assert all(arrival > last_step for arrival, _ in sim.pending())


@pytest.mark.usefixtures("kernel_build")
class TestLongIdleDecay:
    def test_decay_over_long_gap_is_exact(self):
        # The potential sits untouched for 49 steps; the stored value must
        # equal stepwise halving exactly: 2**-50 + 1 after the second spike.
        builder = NetworkBuilder()
        builder.add_input("p", [0, 50])
        builder.add_neuron("n", threshold=100, leak="1/2")
        builder.add_synapse("p", "n")
        sim = Simulation(builder.build())
        for _ in range(52):
            sim.step()
        assert sim.potentials()["n"] == Fraction(1, 2**50) + 1

    def test_long_gap_matches_reference(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0, 40])
        builder.add_neuron("n", threshold="81/80", leak="3/4")
        builder.add_neuron("acc")
        builder.add_synapse("p", "n")
        builder.add_synapse("n", "acc")
        builder.set_accept("acc")
        net = builder.build()
        report, trace = run(net, RunLimits(60), trace=True)
        ref = simulate_reference(net, 60)
        assert [(s.t, s.fired) for s in trace.steps] == ref.fired_log
        assert report.verdict == ref.verdict


@pytest.mark.usefixtures("kernel_build")
class TestScheduleEdges:
    def test_periodic_offset_beyond_horizon(self):
        builder = NetworkBuilder()
        builder.add_input("late", PeriodicSchedule(offset=100, period=3))
        builder.add_neuron("acc")
        builder.set_accept("acc")
        report, _ = run(builder.build(), RunLimits(50))
        assert report.verdict == "timeout"
        assert report.energy == 0

    def test_empty_explicit_schedule_never_fires(self):
        builder = NetworkBuilder()
        builder.add_input("mute", [])
        builder.add_neuron("acc")
        builder.set_accept("acc")
        report, _ = run(builder.build(), RunLimits(20))
        assert report.energy == 0

    def test_dense_explicit_schedule(self):
        builder = NetworkBuilder()
        builder.add_input("p", list(range(0, 20, 2)))
        builder.add_neuron("acc", threshold=100)
        builder.set_accept("acc")
        report, _ = run(builder.build(), RunLimits(30))
        assert report.energy == 10
