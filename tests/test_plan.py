"""Plans and schedule rebinding: `Plan.with_schedules` against fresh plans.

A rebound plan must be the plan of the rebound network, and running it must
give the same reports and traces as running that network, both for the
array-search compilers and for generated networks checked step by step
against the brute-force reference simulator.
"""

from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from snnkit.arraysearch import VALUE_PORT, VARIANTS
from snnkit.engine import Plan, RunLimits, Simulation, build_plan, run
from snnkit.harness import Domain, get_compiler
from snnkit.model import (
    ExplicitSchedule,
    InvalidNetworkError,
    Network,
    NetworkBuilder,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
    as_schedule,
    one_shot,
    validate_network,
)
from snnkit.randnet import random_network
from snnkit.snnfmt import serialize_network

from reference_engine import simulate_reference
from reference_plan import reference_build_plan

SWEEP_DOMAIN = Domain(max_len=3, max_val=4, random_instances=25, random_max_len=6, random_max_val=9)


def _instances(entry, domain, seed):
    instances = list(entry.enumerate_domain(domain))
    rng = Random(seed)
    return instances + [entry.sample(rng, domain) for _ in range(domain.random_instances)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_rebound_plan_equals_plan_of_rebound_network(variant):
    entry = get_compiler(f"array-search-{variant}")
    for instance in _instances(entry, SWEEP_DOMAIN, seed=5):
        args, schedules = entry.split(instance)
        network = entry.compile(*args, NetworkBuilder()).network
        # Variant a has no ports; moving its value spike still rebinds a schedule.
        moved = {**schedules, VALUE_PORT: one_shot((instance.target + 1) % instance.bound)}
        for bindings in (schedules, moved):
            bound = network.bind_schedules(bindings)
            plan = build_plan(network).with_schedules(bindings)
            assert plan == build_plan(bound), instance
            assert plan.network == bound, instance
        built = entry.build(instance, NetworkBuilder())
        assert build_plan(network).with_schedules(schedules) == build_plan(built), instance


@pytest.mark.parametrize("variant", VARIANTS)
def test_rebound_plan_runs_like_the_built_network(variant):
    entry = get_compiler(f"array-search-{variant}")
    domain = Domain(max_len=2, max_val=4, random_instances=10, random_max_len=5, random_max_val=7)
    for instance in _instances(entry, domain, seed=11):
        args, schedules = entry.split(instance)
        plan = build_plan(entry.compile(*args, NetworkBuilder()).network)
        limits = RunLimits(entry.step_limit(instance))
        swept = run(plan.with_schedules(schedules), limits, trace=True, validate=False)
        built = run(entry.build(instance, NetworkBuilder()), limits, trace=True)
        assert swept.report == built.report, instance
        assert swept.trace.render() == built.trace.render(), instance


# Every Plan field that rebinding leaves as planned.
_PLANNED_FIELDS = tuple(f.name for f in fields(Plan) if f.name not in ("spikes", "network"))


def _two_port_network():
    builder = NetworkBuilder()
    builder.add_input("p", [0])
    builder.add_input("q", PeriodicSchedule(1, 2))
    builder.add_neuron("acc", threshold=2)
    builder.add_synapse("p", "acc")
    builder.add_synapse("q", "acc")
    builder.set_accept("acc")
    return builder.build()


class TestWithSchedules:
    def test_unknown_name_rejected_like_bind_schedules(self):
        net = _two_port_network()
        with pytest.raises(KeyError) as planned:
            build_plan(net).with_schedules({"zz": [1]})
        with pytest.raises(KeyError) as bound:
            net.bind_schedules({"zz": [1]})
        assert str(planned.value) == str(bound.value)

    def test_regular_neuron_rejected_like_bind_schedules(self):
        net = _two_port_network()
        with pytest.raises(KeyError) as planned:
            build_plan(net).with_schedules({"acc": [1]})
        with pytest.raises(KeyError) as bound:
            net.bind_schedules({"acc": [1]})
        assert str(planned.value) == str(bound.value)

    @pytest.mark.parametrize(
        "schedule",
        [[3, 1], [2, 2], [-1, 4], ExplicitSchedule((-2,)), PeriodicSchedule(0, 0), PeriodicSchedule(-1, 2)],
    )
    def test_malformed_schedule_rejected_with_validation_messages(self, schedule):
        net = _two_port_network()
        with pytest.raises(InvalidNetworkError) as planned:
            build_plan(net).with_schedules({"p": schedule})
        with pytest.raises(InvalidNetworkError) as bound:
            net.bind_schedules({"p": schedule})
        direct = replace(net, programmed={**net.programmed, "p": as_schedule(schedule)})
        assert planned.value.violations == bound.value.violations == validate_network(direct)

    def test_rejected_binding_leaves_the_plan_unchanged(self):
        net = _two_port_network()
        plan = build_plan(net)
        with pytest.raises(InvalidNetworkError):
            plan.with_schedules({"q": [0, 5], "p": [4, 2]})
        assert plan == build_plan(net)
        assert plan.network is net

    def test_rebinding_after_reading_the_network(self):
        # The parent keeps its state and its network; the rebound copy gets
        # its own network and spikes.
        net = _two_port_network()
        parent = build_plan(net)
        assert parent.network is net
        state = dict(vars(parent))
        plan = parent.with_schedules({"p": [2]})
        assert plan.network == net.bind_schedules({"p": [2]}) != net
        assert vars(parent) == state and parent.network is net
        assert plan.spikes != parent.spikes and plan.network.programmed["p"] == ExplicitSchedule((2,))

    def test_rebound_plan_shares_every_planned_field(self):
        net = _two_port_network()
        parent = build_plan(net)
        assert parent.network is net
        state = dict(vars(parent))
        plan = parent.with_schedules({"p": [2]}).with_schedules({"q": [1]})
        for name in _PLANNED_FIELDS:
            assert getattr(plan, name) is getattr(parent, name), name
        assert vars(parent) == state
        bound = net.bind_schedules({"p": [2], "q": [1]})
        assert plan == build_plan(bound) and plan.network == bound

    def test_empty_bindings_keep_the_plan(self):
        plan = build_plan(_two_port_network())
        assert plan.with_schedules({}) is plan

    def test_rebinding_composes(self):
        net = _two_port_network()
        plan = build_plan(net).with_schedules({"p": [1]}).with_schedules({"q": [0, 3]})
        bound = net.bind_schedules({"p": [1], "q": [0, 3]})
        assert plan == build_plan(bound)
        assert plan.network == bound

    def test_simulation_of_a_plan_exposes_the_bound_network(self):
        net = _two_port_network()
        plan = build_plan(net).with_schedules({"p": [2]})
        sim = Simulation(plan)
        assert sim.network == net.bind_schedules({"p": [2]})
        assert sim.ids == plan.ids
        assert [sim.step() for _ in range(4)] == [(), ("q",), ("p",), ("acc", "q")]

    def test_run_validates_a_plan_by_its_network(self):
        bad = Network(
            neurons=(NeuronSpec("acc", threshold=Fraction(-1)),),
            programmed={"p": one_shot(0)},
            accept="acc",
        )
        with pytest.raises(InvalidNetworkError, match="threshold must be >= 0"):
            run(build_plan(bad), RunLimits(3))
        assert run(build_plan(bad), RunLimits(3), validate=False).report.time == 3


def test_plan_kinds_name_each_neuron_rule():
    builder = NetworkBuilder()
    builder.add_neuron("a", leak=0)
    builder.add_neuron("b", leak=1)
    builder.add_neuron("c", leak="1/2")
    builder.add_input("d", [0])
    plan = build_plan(builder.build())
    assert plan.ids == ("a", "b", "c", "d")
    assert plan.kinds == (0, 1, 2, 3)


# -- build_plan against the reference builder ------------------------------

_GHOST = "ghost"


def _tag_some(net, draw):
    names = sorted(net.ids())
    return replace(net, gadget_tags=draw(st.sets(st.sampled_from(names), min_size=1, max_size=3)))


def _regular_id_also_programmed(net, draw):
    # The programmed rule wins at the later of the two `ids` entries.
    name = draw(st.sampled_from([spec.id for spec in net.neurons]))
    return replace(net, programmed={**net.programmed, name: draw(_schedules())})


def _programmed_id_also_regular(net, draw):
    name = draw(st.sampled_from(sorted(net.programmed)))
    leak = draw(st.sampled_from(_LEAKS))
    return replace(net, neurons=net.neurons + (NeuronSpec(name, draw(_RATIONALS), leak=leak),))


# Ways to bend a network that `build_plan` must plan exactly as the
# reference does; unvalidated networks (`Simulation(..., validate=False)`)
# reach it unchecked. The last two make both raise KeyError.
_PLAN_EDITS = {
    "tag some ids": _tag_some,
    "regular id also programmed": _regular_id_also_programmed,
    "programmed id also regular": _programmed_id_also_regular,
    "gadget tag naming no neuron": lambda net, draw: replace(net, gadget_tags=net.gadget_tags | {_GHOST}),
    "synapse to no neuron": lambda net, draw: replace(
        net, synapses=net.synapses + (SynapseSpec(net.accept, _GHOST),)
    ),
    "accept naming no neuron": lambda net, draw: replace(net, accept=_GHOST),
}


@st.composite
def _plannable_networks(draw):
    net = random_network(draw(st.integers(0, 2**32 - 1)), max_neurons=8, max_synapses=20)
    for edit in draw(st.lists(st.sampled_from(sorted(_PLAN_EDITS)), max_size=3)):
        event(edit)
        net = _PLAN_EDITS[edit](net, draw)
    return net


@settings(max_examples=400, deadline=None)
@given(_plannable_networks())
def test_build_plan_equals_reference_field_by_field(network):
    try:
        ref = reference_build_plan(network)
    except Exception as exc:
        with pytest.raises(type(exc)):
            build_plan(network)
        return
    plan = build_plan(network)
    assert type(plan) is Plan and vars(plan).keys() == vars(ref).keys()
    for f in fields(Plan):
        assert getattr(plan, f.name) == getattr(ref, f.name), f.name
    assert plan.network is network


def test_build_plan_keeps_twice_listed_ids_and_ignores_unknown_tags():
    # Both cases broke a plan built without the reference's passes.
    net = Network(
        neurons=(NeuronSpec("a"), NeuronSpec("x")),
        programmed={"x": one_shot(0)},
        accept="a",
        gadget_tags={"x", _GHOST},
    )
    plan = build_plan(net)
    assert plan == reference_build_plan(net)
    assert (plan.ids, plan.kinds, plan.roles) == (("a", "x", "x"), (1, 0, 3), (2, 1, 1))


def test_plan_is_frozen():
    plan = build_plan(_two_port_network())
    for f in fields(Plan):
        with pytest.raises(FrozenInstanceError):
            setattr(plan, f.name, None)


# -- differential test against the reference simulator --------------------

_LEAKS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
_RATIONALS = st.builds(Fraction, st.integers(0, 12), st.integers(1, 4))
_WEIGHTS = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


def _schedules():
    explicit = st.sets(st.integers(0, 20), max_size=5).map(lambda ts: ExplicitSchedule(tuple(sorted(ts))))
    periodic = st.builds(PeriodicSchedule, st.integers(0, 6), st.integers(1, 5))
    return st.one_of(explicit, periodic)


@st.composite
def _rebinding_cases(draw):
    """A network, new schedules for some of its programmed neurons, and a step cap.

    Thresholds may be zero and resets may reach the threshold; synapses may
    target programmed neurons and span long delays; accept and reject may be
    programmed neurons firing together (an ambiguous verdict).
    """
    regular = [f"r{i}" for i in range(draw(st.integers(1, 5)))]
    programmed = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    names = regular + programmed
    neurons = []
    for name in regular:
        threshold = draw(st.one_of(st.just(Fraction(0)), _RATIONALS))
        reset = draw(st.one_of(st.just(threshold), _RATIONALS))
        leak = draw(st.one_of(st.sampled_from(_LEAKS), st.builds(Fraction, st.integers(0, 5), st.just(5))))
        neurons.append(NeuronSpec(name, threshold, reset, leak))
    synapses = draw(
        st.lists(
            st.builds(
                SynapseSpec,
                st.sampled_from(names),
                st.sampled_from(names),
                st.one_of(st.integers(1, 3), st.integers(4, 30)),
                _WEIGHTS,
            ),
            max_size=14,
        )
    )
    accept = draw(st.sampled_from(names + [None]))
    reject = draw(st.sampled_from([name for name in names if name != accept] + [None]))
    if accept is None and reject is None:
        accept = regular[0]
    network = Network(
        neurons=tuple(neurons),
        programmed={name: draw(_schedules()) for name in programmed},
        synapses=tuple(synapses),
        accept=accept,
        reject=reject,
        gadget_tags=frozenset(draw(st.sets(st.sampled_from(names), max_size=2))),
    )
    rebound = draw(st.lists(st.sampled_from(programmed), unique=True))
    bindings = {name: draw(_schedules()) for name in rebound}
    return network, bindings, draw(st.integers(1, 45))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rebinding_cases())
def test_rebound_plan_matches_reference_step_by_step(case):
    network, bindings, max_steps = case
    bound = network.bind_schedules(bindings)
    result = run(build_plan(network).with_schedules(bindings), RunLimits(max_steps), trace=True)
    ref = simulate_reference(bound, max_steps)
    assert [(step.t, step.fired) for step in result.trace.steps] == ref.fired_log
    energy = 0
    for step, (_, fired) in zip(result.trace.steps, ref.fired_log):
        energy += len(fired)
        assert step.energy == energy
    report = result.report
    event(f"verdict {report.verdict}")
    assert (report.verdict, report.time, report.energy, report.energy_payload) == (
        ref.verdict, ref.time, ref.energy, ref.payload_energy
    )
    assert (report.neurons, report.synapses) == (bound.size(), len(bound.synapses))
    assert result == run(bound, RunLimits(max_steps), trace=True)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rebinding_cases())
def test_exact_state_matches_reference_step_by_step(case):
    # The kernels keep integer-scaled potentials over unreduced leak
    # denominators; converted back they must be the reference's Fractions.
    network, bindings, max_steps = case
    bound = network.bind_schedules(bindings)
    sim = Simulation(build_plan(network).with_schedules(bindings))
    ref = simulate_reference(bound, max_steps)
    for potentials, pending in ref.state_log:
        sim.step()
        assert sim.potentials() == potentials, sim.t
        assert sim.pending() == pending, sim.t
    assert sim.t == ref.time


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rebinding_cases())
def test_rebinding_copies_the_parent_and_swaps_only_schedules(case):
    network, bindings, _ = case
    parent = build_plan(network)
    assert parent.network is network
    plan_state, programmed = dict(vars(parent)), dict(network.programmed)
    plan = parent.with_schedules(bindings)
    bound = network.bind_schedules(bindings)
    # The rebound network is the network construction would give.
    rebuilt = Network(
        neurons=network.neurons,
        programmed={**network.programmed, **bindings},
        synapses=network.synapses,
        accept=network.accept,
        reject=network.reject,
        gadget_tags=network.gadget_tags,
    )
    assert bound == rebuilt
    assert list(bound.programmed) == sorted(bound.programmed)
    assert serialize_network(bound) == serialize_network(rebuilt)
    # The rebound plan is the plan of that network, sharing its parent's planned fields.
    assert plan.network == bound
    assert plan == build_plan(bound)
    for name in _PLANNED_FIELDS:
        assert getattr(plan, name) is getattr(parent, name), name
    # Neither parent changed.
    assert vars(parent) == plan_state and parent.network is network
    assert network.programmed == programmed


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rebinding_cases())
def test_plan_lanes_carry_each_synapse_delay_and_roles_mark_gadgets_and_verdicts(case):
    network, _, _ = case
    plan = build_plan(network)
    assert len(set(plan.delays)) == len(plan.delays)
    assert plan.delays == tuple(dict.fromkeys(syn.delay for syn in network.synapses))
    # A neuron's `out` entries follow its synapses in the network's order.
    seen = [0] * plan.n
    for syn in network.synapses:
        pre = plan.index[syn.pre]
        post, lane, _ = plan.out[pre][seen[pre]]
        seen[pre] += 1
        assert (plan.ids[post], plan.delays[lane]) == (syn.post, syn.delay)
    assert seen == [len(entries) for entries in plan.out]
    verdicts = {network.accept, network.reject}
    assert plan.roles == tuple(
        (name in network.gadget_tags) + 2 * (name in verdicts) for name in plan.ids
    )
