import hashlib
import re
from dataclasses import replace

import pytest

from snnkit import arraysearch
from snnkit.engine import RunLimits, Simulation, run
from snnkit.gadgets import (
    attach_meter,
    attach_timer,
    fresh_id,
    make_clock,
    make_constant_firer,
    make_number,
    merge,
)
from snnkit.harness import Domain, get_compiler
from snnkit.model import Network, NetworkBuilder, NeuronSpec, SynapseSpec, validate_network
from snnkit.randnet import random_network
from snnkit.snnfmt import serialize_network


def _fire_times(network, name, steps):
    sim = Simulation(network)
    times = []
    for t in range(steps):
        if name in sim.step():
            times.append(t)
    return times, sim


class TestConstantFirer:
    def test_fires_every_step_from_one(self):
        frag = make_constant_firer("c")
        times, sim = _fire_times(frag.to_network(), frag.output, 10)
        assert times == list(range(1, 10))
        assert sim.energy == 1 + 9

    def test_never_fires_at_zero(self):
        frag = make_constant_firer("c")
        times, _ = _fire_times(frag.to_network(), frag.output, 1)
        assert times == []

    def test_disjoint_instances_do_not_interact(self):
        one = make_constant_firer("one")
        two = make_constant_firer("two")
        net = merge([one, two])
        sim = Simulation(net)
        sim.step()
        for t in range(1, 8):
            fired = sim.step()
            assert fired == tuple(sorted((one.output, two.output)))


class TestClock:
    def test_period_one_is_constant_firer(self):
        frag = make_clock(1, "k")
        times, _ = _fire_times(frag.to_network(), frag.output, 12)
        assert times == list(range(1, 12))

    def test_period_three(self):
        frag = make_clock(3, "k")
        times, _ = _fire_times(frag.to_network(), frag.output, 12)
        assert times == [1, 4, 7, 10]

    def test_exactly_ten_ticks_in_hundred_steps(self):
        frag = make_clock(10, "k")
        times, _ = _fire_times(frag.to_network(), frag.output, 100)
        assert len(times) == 10

    def test_periods_one_through_ten(self):
        for period in range(1, 11):
            frag = make_clock(period, "k")
            times, _ = _fire_times(frag.to_network(), frag.output, 100)
            assert times == [1 + j * period for j in range((100 - 2) // period + 1)]

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            make_clock(0)


class TestNumber:
    def test_lag_is_value_plus_one(self):
        frag = make_number(0, 5, "n")
        times, _ = _fire_times(frag.to_network(), frag.output, 13)
        assert times == [2, 7, 12]

    def test_value_two_of_five(self):
        frag = make_number(2, 5, "n")
        times, _ = _fire_times(frag.to_network(), frag.output, 15)
        assert times == [4, 9, 14]

    def test_all_pairs_up_to_ten(self):
        for period in range(1, 11):
            for value in range(period):
                frag = make_number(value, period, "n")
                net = frag.to_network()
                clock_out = f"n_clk_out"
                sim = Simulation(net)
                clock_times, number_times = [], []
                for t in range(100):
                    fired = sim.step()
                    if clock_out in fired:
                        clock_times.append(t)
                    if frag.output in fired:
                        number_times.append(t)
                expected = [t + value + 1 for t in clock_times if t + value + 1 < 100]
                assert number_times == expected

    def test_rejects_value_at_or_above_period(self):
        with pytest.raises(ValueError):
            make_number(5, 5)
        with pytest.raises(ValueError):
            make_number(-1, 5)


def _accept_only_network():
    builder = NetworkBuilder()
    builder.add_neuron("acc")
    builder.set_accept("acc")
    return builder.build()


class TestTimer:
    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="t_bound must be >= 0"):
            attach_timer(_accept_only_network(), -1)

    def test_forces_reject_at_deadline(self):
        aug = attach_timer(_accept_only_network(), 4)
        report, trace = run(aug, RunLimits(10), trace=True)
        assert report.verdict == "reject"
        assert trace.steps[-1].t == 5
        assert report.energy_payload == 0
        assert report.energy == 2  # timer spike + reject spike

    def test_does_not_disturb_timely_accept(self):
        builder = NetworkBuilder()
        builder.add_input("p", [1])
        builder.add_neuron("acc")
        builder.add_synapse("p", "acc")
        builder.set_accept("acc")
        base = builder.build()
        base_report, _ = run(base, RunLimits(10))
        aug_report, _ = run(attach_timer(base, 4), RunLimits(10))
        assert base_report.verdict == aug_report.verdict == "accept"
        assert base_report.time == aug_report.time == 3

    def test_adds_one_gadget_neuron_when_reject_exists(self):
        builder = NetworkBuilder()
        builder.add_neuron("acc")
        builder.add_neuron("rej")
        builder.set_accept("acc")
        builder.set_reject("rej")
        base = builder.build()
        aug = attach_timer(base, 3)
        assert aug.size() == base.size() + 1
        assert len(aug.gadget_tags) == 1
        assert len(aug.synapses) == len(base.synapses) + 2

    def test_creates_missing_reject(self):
        aug = attach_timer(_accept_only_network(), 3)
        assert aug.reject is not None
        assert aug.reject in aug.gadget_tags
        assert aug.size() == 3  # acc + timer + created reject

    def test_inhibition_cancels_all_accept_input(self):
        # Payload wants to accept exactly at the deadline step; the timer's
        # inhibition must win and the forced reject decide the run.
        t_bound = 3
        builder = NetworkBuilder()
        builder.add_input("p", [t_bound])
        builder.add_neuron("acc")
        builder.add_synapse("p", "acc", weight=5)
        builder.set_accept("acc")
        aug = attach_timer(builder.build(), t_bound)
        report, _ = run(aug, RunLimits(10))
        assert report.verdict == "reject"
        assert report.time == t_bound + 2

    def test_inhibition_magnitude_covers_mixed_sign_inputs(self):
        # Accept has both excitatory and inhibitory synapses; the timer's
        # weight is -(|2| + |-3|) = -5, enough to cancel any input pattern.
        t_bound = 2
        builder = NetworkBuilder()
        builder.add_input("p", [t_bound])
        builder.add_input("q", [0])
        builder.add_neuron("acc", threshold=1)
        builder.add_synapse("p", "acc", weight=2)
        builder.add_synapse("q", "acc", weight=-3, delay=5)
        builder.set_accept("acc")
        aug = attach_timer(builder.build(), t_bound)
        timer_syn = [s for s in aug.synapses if s.pre == "timer" and s.post == "acc"][0]
        assert timer_syn.weight == -5
        report, _ = run(aug, RunLimits(10))
        assert report.verdict == "reject"

    def test_hard_deadline_on_random_payloads(self):
        for seed in range(60):
            net = random_network(seed, max_neurons=10, max_synapses=25)
            for t_bound in (0, 3, 7):
                aug = attach_timer(net, t_bound)
                report, _ = run(aug, RunLimits(t_bound + 3))
                assert report.verdict != "timeout", (seed, t_bound)
                assert report.time <= t_bound + 2, (seed, t_bound)

    def test_rejects_programmed_accept(self):
        builder = NetworkBuilder()
        builder.add_input("acc", [5])
        builder.set_accept("acc")
        with pytest.raises(ValueError, match="programmed"):
            attach_timer(builder.build(), 3)

    def test_requires_accept(self):
        builder = NetworkBuilder()
        builder.add_neuron("rej")
        builder.set_reject("rej")
        with pytest.raises(ValueError, match="accept"):
            attach_timer(builder.build(), 3)


def _firer_with_accept():
    builder = NetworkBuilder()
    builder.add_input("seed", [0])
    builder.add_neuron("loop")
    builder.add_synapse("seed", "loop")
    builder.add_synapse("loop", "loop")
    builder.add_neuron("acc")
    builder.set_accept("acc")
    return builder.build()


class TestMeter:
    def test_counter_fires_once_budget_reached(self):
        aug = attach_meter(_firer_with_accept(), 5)
        meter = next(iter(aug.gadget_tags))
        sim = Simulation(aug)
        fired_at = []
        for t in range(10):
            if meter in sim.step():
                fired_at.append(t)
        # Payload spikes: seed at 0, loop from 1 on; the fifth payload spike
        # lands during step 4 and reaches the counter at step 5.
        assert fired_at == [5, 6, 7, 8, 9]

    def test_untouched_accept_under_budget(self):
        builder = NetworkBuilder()
        builder.add_input("p", [0])
        builder.add_neuron("acc")
        builder.add_synapse("p", "acc")
        builder.set_accept("acc")
        report, _ = run(attach_meter(builder.build(), 10), RunLimits(10))
        assert report.verdict == "accept"
        assert report.time == 2

    def test_acceptance_cut_off_after_budget(self):
        # Constant firer drives accept hard; with a 3-spike budget the meter
        # must block any acceptance later than s + 2.
        builder = NetworkBuilder()
        builder.add_input("seed", [0])
        builder.add_neuron("loop")
        builder.add_synapse("seed", "loop")
        builder.add_synapse("loop", "loop")
        builder.add_neuron("acc", threshold=100)
        builder.add_synapse("loop", "acc")
        builder.set_accept("acc")
        aug = attach_meter(builder.build(), 3)
        report, trace = run(aug, RunLimits(40), trace=True)
        assert report.verdict == "timeout"  # acceptance never happens

    def test_size_overhead(self):
        base = _firer_with_accept()
        aug = attach_meter(base, 4)
        assert aug.size() == base.size() + 1
        assert len(aug.synapses) == len(base.synapses) + base.size() + 1  # no reject
        builder = NetworkBuilder()
        builder.add_neuron("acc")
        builder.add_neuron("rej")
        builder.set_accept("acc")
        builder.set_reject("rej")
        base2 = builder.build()
        aug2 = attach_meter(base2, 4)
        assert len(aug2.synapses) == len(base2.synapses) + base2.size() + 2

    def test_meter_ignores_gadget_neurons(self):
        base = attach_timer(_accept_only_network(), 6)
        aug = attach_meter(base, 2)
        meter = sorted(aug.gadget_tags - base.gadget_tags)[0]
        feeders = {s.pre for s in aug.synapses if s.post == meter}
        assert "timer" not in feeders
        assert aug.reject not in feeders  # auto-created reject is a gadget
        assert feeders == {"acc"}

    def test_soundness_on_random_payloads(self):
        # With reset < threshold on accept, no acceptance can happen at any
        # step later than s + 2, where s is the step payload energy first
        # reached the budget.
        for seed in range(60):
            net = random_network(seed, max_neurons=10, max_synapses=25,
                                 accept_reset_below_threshold=True)
            for e_bound in (1, 3, 6):
                aug = attach_meter(net, e_bound)
                report, trace = run(aug, RunLimits(50), trace=True)
                if report.verdict != "accept":
                    continue
                accept_step = report.time - 1
                payload = 0
                s = None
                for step in trace.steps:
                    payload += sum(1 for f in step.fired if f not in aug.gadget_tags)
                    if payload >= e_bound:
                        s = step.t
                        break
                if s is not None:
                    assert accept_step <= s + 2, (seed, e_bound)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            attach_meter(_accept_only_network(), 0)


class TestMerge:
    def test_disjoint_union_is_product(self):
        clock = make_clock(2, "k")
        firer = make_constant_firer("c")
        net = merge([clock, firer])
        times_clock, _ = _fire_times(net, clock.output, 10)
        times_firer, _ = _fire_times(net, firer.output, 10)
        assert times_clock == [1, 3, 5, 7, 9]
        assert times_firer == list(range(1, 10))

    def test_shared_clock_via_cross_synapse(self):
        clock = make_clock(3, "k")
        builder = NetworkBuilder()
        builder.add_neuron("echo")
        echo_net = builder.build()
        net = merge(
            [clock, echo_net],
            cross_synapses=[SynapseSpec(clock.output, "echo", delay=3)],
        )
        times, _ = _fire_times(net, "echo", 12)
        assert times == [4, 7, 10]

    def test_colliding_ids_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            merge([make_clock(2, "k"), make_clock(3, "k")])

    def test_dangling_cross_synapse_rejected(self):
        with pytest.raises(ValueError):
            merge([make_clock(2, "k")], cross_synapses=[SynapseSpec("k_out", "ghost")])

    def test_caller_designations(self):
        frag = make_constant_firer("c")
        builder = NetworkBuilder()
        builder.add_neuron("acc")
        acc_net = builder.build()
        net = merge(
            [frag, acc_net],
            cross_synapses=[SynapseSpec(frag.output, "acc")],
            accept="acc",
        )
        report, _ = run(net, RunLimits(10))
        assert report.verdict == "accept"
        assert report.time == 3


# Networks that `validate_network` lists as invalid, and each guard's refusal.
INVALID_FOR_GUARDS = [
    (Network(neurons=(NeuronSpec("a"), NeuronSpec(["b"])), accept="a"), "invalid neuron id ['b']"),
    (Network(neurons=(NeuronSpec("a"),), accept=["a"]), "needs a regular ['a'] verdict neuron"),
    (Network(neurons=(NeuronSpec("a"),), accept="zz"), "needs a regular 'zz' verdict neuron"),
    (
        Network(neurons=(NeuronSpec("a"),), accept="a", reject="zz"),
        "needs a regular 'zz' verdict neuron",
    ),
]


@pytest.mark.parametrize("guard", [attach_timer, attach_meter])
@pytest.mark.parametrize("network, message", INVALID_FOR_GUARDS)
def test_guards_refuse_invalid_ids_with_value_error(guard, network, message):
    assert validate_network(network) != []
    with pytest.raises(ValueError) as excinfo:
        guard(network, 3)
    assert message in str(excinfo.value)


def test_merge_refuses_an_unhashable_id():
    network = INVALID_FOR_GUARDS[0][0]
    with pytest.raises(ValueError, match=re.escape("invalid neuron id ['b']")):
        merge([network])


@pytest.mark.parametrize("guard", [attach_timer, attach_meter])
def test_guards_keep_an_unhashable_synapse_end_for_validation(guard):
    # Such a synapse drives no verdict neuron; the guarded network still lists it.
    network = Network(
        neurons=(NeuronSpec("a"), NeuronSpec("n")),
        synapses=(SynapseSpec("n", ["b"]),),
        accept="a",
    )
    assert "synapse n->['b']: unknown post neuron ['b']" in validate_network(guard(network, 3))


def test_fresh_id():
    assert fresh_id("timer", {"a"}) == "timer"
    assert fresh_id("timer", {"timer"}) == "timer_2"
    assert fresh_id("timer", {"timer", "timer_2"}) == "timer_3"


def test_number_uses_shared_clock_phase():
    # The clock inside a number fragment ticks at 1 + jK like a bare clock.
    frag = make_number(1, 4, "n")
    times, _ = _fire_times(frag.to_network(), "n_clk_out", 14)
    assert times == [1, 5, 9, 13]


def _pinned_sources():
    """Every array-search network of Domain(2, 4), then random networks with and without reject."""
    domain = Domain(max_len=2, max_val=4)
    for variant in arraysearch.VARIANTS:
        entry = get_compiler(f"array-search-{variant}")
        for instance in entry.enumerate_domain(domain):
            yield entry.build(instance, NetworkBuilder())
    for seed in range(40):
        net = random_network(seed)
        yield net
        yield replace(net, reject=None)


def test_guards_and_merge_build_pinned_networks():
    # The exact structure the guards and merge build: serialized bytes of
    # every result, hashed in order. Behavioural tests above only pin firing.
    digest = hashlib.sha256()
    count = 0
    for k, net in enumerate(_pinned_sources()):
        t_bound, e_bound = k % 7, 1 + k % 5
        timed = attach_timer(net, t_bound)
        merged = merge(
            [timed, make_number(k % 3, 3, "mnum"), make_constant_firer("mc")],
            cross_synapses=[SynapseSpec("mnum_out", net.accept, delay=2, weight=-1)],
            accept=net.accept,
            reject=timed.reject,
        )
        for built in (timed, attach_meter(net, e_bound), attach_meter(timed, e_bound), merged):
            digest.update(serialize_network(built).encode())
        count += 1
    assert count == 3 * 84 + 80
    assert digest.hexdigest() == "7788bb3b705896789316c1100eb6534dde2a9b0942f51181b5f4b7f0bff2c0c5"
