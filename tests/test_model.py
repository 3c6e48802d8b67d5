import copy
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.engine import Simulation
from snnkit.model import (
    ExplicitSchedule,
    InvalidNetworkError,
    Network,
    NetworkBuilder,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
    check_network,
    format_rational,
    is_valid_id,
    one_shot,
    parse_rational,
    schedule_violations,
    validate_network,
)
from snnkit.snnfmt import serialize_network


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/-2", "--1", "1 /2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_lowest_terms():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(0)) == "0"


def test_identifiers():
    assert is_valid_id("a_1")
    assert is_valid_id("123")
    assert not is_valid_id("")
    assert not is_valid_id("a-b")
    assert not is_valid_id("a b")


def test_neuron_defaults():
    spec = NeuronSpec("n")
    assert spec.threshold == 1
    assert spec.reset == 0
    assert spec.leak == 1


def _fire_times(schedule, steps):
    builder = NetworkBuilder()
    builder.add_input("p", schedule)
    sim = Simulation(builder.build())
    return [t for t in range(steps) if sim.step()]


def test_schedules():
    assert _fire_times(ExplicitSchedule((1, 4, 9)), 10) == [1, 4, 9]
    assert _fire_times(PeriodicSchedule(offset=2, period=3), 12) == [2, 5, 8, 11]
    assert one_shot(7) == ExplicitSchedule((7,))
    assert ExplicitSchedule([1, 2]).times == (1, 2)
    assert schedule_violations(object()) == ("not a spike schedule",)


def test_network_neuron_lookup_raises_key_error_for_unknown_id():
    with pytest.raises(KeyError):
        Network().neuron("x")


def _valid_network():
    return Network(
        neurons=(NeuronSpec("a"), NeuronSpec("b", threshold=Fraction(3, 2))),
        programmed={"p": one_shot(0)},
        synapses=(SynapseSpec("p", "a"), SynapseSpec("a", "b", delay=2, weight=Fraction(-1, 3))),
        accept="a",
        reject="b",
    )


# Synapses repeat (pre, post, delay) from a small pool and differ by weight.
_synapse_groups = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.sampled_from("abc"),
        st.integers(1, 3),
        st.lists(
            st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    ),
    max_size=8,
    unique_by=lambda group: group[:3],
)


@settings(deadline=None)
@given(_synapse_groups, st.randoms(use_true_random=False))
def test_network_sorts_synapses_by_pre_post_delay_weight(groups, rng):
    synapses = [
        SynapseSpec(pre, post, delay, weight)
        for pre, post, delay, weights in groups
        for weight in weights
    ]
    rng.shuffle(synapses)
    got = Network(synapses=tuple(synapses)).synapses
    assert got == tuple(sorted(synapses, key=lambda x: (x.pre, x.post, x.delay, x.weight)))
    assert all(type(syn) is SynapseSpec for syn in got)


def test_synapse_is_the_model_4_tuple():
    syn = SynapseSpec("a", "b", 2, Fraction(-1, 3))
    assert isinstance(syn, tuple)
    assert syn == ("a", "b", 2, Fraction(-1, 3))
    assert hash(syn) == hash(("a", "b", 2, Fraction(-1, 3)))
    assert (syn.pre, syn.post, syn.delay, syn.weight) == tuple(syn)
    assert SynapseSpec("a", "b") == ("a", "b", 1, Fraction(1))
    assert repr(syn) == "SynapseSpec(pre='a', post='b', delay=2, weight=Fraction(-1, 3))"
    assert not hasattr(SynapseSpec, "sort_key")


_SYNAPSE_CONSTRUCTORS = [
    lambda w: SynapseSpec("a", "b", 1, w),
    lambda w: SynapseSpec(pre="a", post="b", weight=w),
    lambda w: SynapseSpec._make(("a", "b", 1, w)),
    lambda w: SynapseSpec("a", "b")._replace(weight=w),
]


@pytest.mark.parametrize("make", _SYNAPSE_CONSTRUCTORS)
@pytest.mark.parametrize("weight, want", [(2, Fraction(2)), ("2/4", Fraction(1, 2))])
def test_every_synapse_constructor_coerces_the_weight(make, weight, want):
    syn = make(weight)
    assert type(syn) is SynapseSpec
    assert type(syn.weight) is Fraction
    assert syn.weight == want


@pytest.mark.parametrize("make", _SYNAPSE_CONSTRUCTORS)
def test_every_synapse_constructor_rejects_a_float_weight(make):
    with pytest.raises(TypeError, match="exact rational"):
        make(0.5)


def test_synapse_fields_cannot_be_assigned():
    syn = SynapseSpec("a", "b")
    for name in ("pre", "post", "delay", "weight"):
        with pytest.raises(AttributeError):
            setattr(syn, name, 1)


@pytest.mark.parametrize(
    "value",
    [
        SynapseSpec("a", "b", 3, Fraction(-2, 7)),
        NeuronSpec("n", Fraction(3, 2), Fraction(1, 4), Fraction(1, 2)),
        ExplicitSchedule((0, 4, 9)),
        PeriodicSchedule(2, 5),
    ],
)
def test_model_values_round_trip_and_hold_no_instance_dict(value):
    # A large network holds one of these per neuron, synapse and input, so
    # none of them carries a per-instance __dict__.
    assert not hasattr(value, "__dict__")
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value


def test_validate_clean_network():
    assert validate_network(_valid_network()) == []


def test_network_canonical_order():
    net = _valid_network()
    shuffled = Network(
        neurons=tuple(reversed(net.neurons)),
        programmed=dict(net.programmed),
        synapses=tuple(reversed(net.synapses)),
        accept=net.accept,
        reject=net.reject,
    )
    assert shuffled == net


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda n: replace(n, neurons=(NeuronSpec("a", threshold=Fraction(-1)),) + n.neurons[1:]),
         "threshold must be >= 0"),
        (lambda n: replace(n, neurons=(NeuronSpec("a", reset=Fraction(-1, 2)),) + n.neurons[1:]),
         "reset must be >= 0"),
        (lambda n: replace(n, neurons=(NeuronSpec("a", leak=Fraction(3, 2)),) + n.neurons[1:]),
         "leak must be in [0, 1]"),
        (lambda n: replace(n, neurons=n.neurons + (NeuronSpec("a"),)), "duplicate id 'a'"),
        (lambda n: replace(n, programmed={"a": one_shot(0), "p": one_shot(0)}), "duplicate id 'a'"),
        (lambda n: replace(n, synapses=n.synapses + (SynapseSpec("a", "x"),)),
         "unknown post neuron 'x'"),
        (lambda n: replace(n, synapses=n.synapses + (SynapseSpec("x", "a"),)),
         "unknown pre neuron 'x'"),
        (lambda n: replace(n, synapses=n.synapses + (SynapseSpec("a", "b", delay=0),)),
         "delay must be >= 1"),
        (lambda n: replace(n, programmed={"p": ExplicitSchedule((3, 1))}),
         "strictly increasing"),
        (lambda n: replace(n, programmed={"p": ExplicitSchedule((-1, 2))}), "integers >= 0"),
        (lambda n: replace(n, programmed={"p": PeriodicSchedule(0, 0)}), "period must be"),
        (lambda n: replace(n, programmed={"p": PeriodicSchedule(-2, 2)}), "offset must be"),
        (lambda n: replace(n, accept="zzz"), "accept names unknown neuron 'zzz'"),
        (lambda n: replace(n, reject="a"), "accept and reject are both 'a'"),
        (lambda n: replace(n, gadget_tags=frozenset({"ghost"})), "gadget tag names unknown"),
        # Unhashable ids name no neuron: listed, not raised as TypeError.
        (lambda n: replace(n, accept=["a"]), "accept names unknown neuron ['a']"),
        (lambda n: replace(n, reject={"b": 1}), "reject names unknown neuron {'b': 1}"),
        (lambda n: replace(n, synapses=n.synapses + (SynapseSpec("b", ["a"]),)),
         "unknown post neuron ['a']"),
        (lambda n: replace(n, synapses=(SynapseSpec(["p"], "a", 0),)), "unknown pre neuron ['p']"),
    ],
)
def test_validation_detects_each_invariant(mutate, needle):
    violations = validate_network(mutate(_valid_network()))
    assert len(violations) >= 1
    assert any(needle in v for v in violations), violations


def test_gadget_tags_of_mixed_types_are_listed_not_sorted_into_a_type_error():
    # String tags come first, in their usual order, then the others.
    net = Network(neurons=(NeuronSpec("a"),), accept="a", gadget_tags={1, "a", "zz", "b"})
    violations = [
        "gadget tag names unknown neuron 'b'",
        "gadget tag names unknown neuron 'zz'",
        "gadget tag names unknown neuron 1",
    ]
    assert validate_network(net) == violations
    assert validate_network(replace(net, gadget_tags={1, "a"})) == violations[2:]
    with pytest.raises(InvalidNetworkError) as excinfo:
        serialize_network(net)
    assert excinfo.value.violations == violations


def test_unhashable_ids_are_listed_by_every_checking_path():
    # Every synapse is still checked, in order, around the unhashable endpoint.
    net = Network(
        neurons=(NeuronSpec("a"), NeuronSpec("b")),
        synapses=(SynapseSpec("a", "x"), SynapseSpec("b", ["a"])),
        accept=["a"],
    )
    violations = [
        "synapse a->x: unknown post neuron 'x'",
        "synapse b->['a']: unknown post neuron ['a']",
        "accept names unknown neuron ['a']",
    ]
    assert validate_network(net) == violations
    builder = NetworkBuilder()
    builder.add_network(net)
    builder.set_accept(["a"])
    for checked in (lambda: serialize_network(net), builder.build):
        with pytest.raises(InvalidNetworkError) as excinfo:
            checked()
        assert excinfo.value.violations == violations


_AB = (NeuronSpec("a"), NeuronSpec("b"))


@pytest.mark.parametrize(
    "parts, violations",
    [
        ({"neurons": (NeuronSpec(5), NeuronSpec("b"), NeuronSpec("a"))}, ["invalid neuron id 5"]),
        ({"programmed": {5: one_shot(2), "a": one_shot(1)}}, ["invalid neuron id 5"]),
        ({"neurons": _AB, "synapses": (SynapseSpec(["a"], "b"), SynapseSpec("a", "b"))},
         ["synapse ['a']->b: unknown pre neuron ['a']"]),
        ({"neurons": _AB, "synapses": (SynapseSpec("a", "b", "2"), SynapseSpec("a", "b"))},
         ["synapse a->b: delay must be >= 1"]),
    ],
)
def test_ids_of_mixed_types_are_listed_by_every_checking_path(parts, violations):
    net = Network(**parts)
    assert validate_network(net) == violations
    builder = NetworkBuilder()
    builder.add_network(net)
    for checked in (lambda: serialize_network(net), builder.build):
        with pytest.raises(InvalidNetworkError) as excinfo:
            checked()
        assert excinfo.value.violations == violations


def test_ids_of_mixed_types_sort_strings_first_then_by_str():
    net = Network(
        neurons=(NeuronSpec(10), NeuronSpec("b"), NeuronSpec(9), NeuronSpec("a")),
        programmed={5: one_shot(2), "p": one_shot(1)},
        synapses=(SynapseSpec(9, "a"), SynapseSpec("b", "a", "x"), SynapseSpec("b", "a")),
    )
    assert [spec.id for spec in net.neurons] == ["a", "b", 10, 9]
    assert list(net.programmed) == ["p", 5]
    assert net.synapses == (("b", "a", "x", 1), ("b", "a", 1, 1), (9, "a", 1, 1))
    assert Network(
        neurons=tuple(reversed(net.neurons)),
        programmed=dict(reversed(net.programmed.items())),
        synapses=tuple(reversed(net.synapses)),
    ) == net


def test_builder_names_colliding_ids_of_mixed_types():
    builder = NetworkBuilder()
    builder.add_neuron(5)
    builder.add_neuron("a")
    with pytest.raises(ValueError, match=r"id collision between merged parts: \['a', 5\]"):
        builder.add_network(Network(neurons=(NeuronSpec(5), NeuronSpec("a"))))


@pytest.mark.parametrize(
    "add",
    [
        lambda b: b.add_neuron(["b"]),
        lambda b: b.add_input(["b"], [1]),
        lambda b: b.tag_gadget(["b"]),
        lambda b: b.add_network(Network(neurons=(NeuronSpec("a"), NeuronSpec(["b"])))),
    ],
    ids=["add_neuron", "add_input", "tag_gadget", "add_network"],
)
def test_builder_refuses_an_unhashable_id_adding_nothing(add):
    # `validate_network` lists such an id; the builder refuses it in the same words.
    builder = NetworkBuilder()
    builder.add_neuron("n")
    before = builder.build()
    with pytest.raises(ValueError) as excinfo:
        add(builder)
    assert str(excinfo.value) == "invalid neuron id ['b']"
    assert builder.build() == before
    assert not builder.has(["b"])


def test_check_network_raises_with_all_violations():
    bad = Network(
        neurons=(NeuronSpec("a", threshold=Fraction(-1)),),
        synapses=(SynapseSpec("a", "x", delay=0),),
    )
    with pytest.raises(InvalidNetworkError) as excinfo:
        check_network(bad)
    messages = excinfo.value.violations
    assert any("threshold" in m for m in messages)
    assert any("unknown post" in m for m in messages)
    assert any("delay" in m for m in messages)


def test_builder_duplicate_rejected():
    builder = NetworkBuilder()
    builder.add_neuron("n")
    with pytest.raises(ValueError, match="duplicate"):
        builder.add_neuron("n")
    with pytest.raises(ValueError, match="duplicate"):
        builder.add_input("n", [0])
    builder.add_input("m", [0])
    with pytest.raises(ValueError, match="duplicate"):
        builder.add_neuron("m")
    with pytest.raises(ValueError, match="duplicate"):
        builder.add_input("m", [1])


def test_builder_builds_valid_network():
    builder = NetworkBuilder()
    builder.add_neuron("out", threshold="1/2")
    builder.add_input("inp", [0, 2, 4])
    builder.add_synapse("inp", "out", weight="2/4")
    builder.set_accept("out")
    net = builder.build()
    assert net.neuron("out").threshold == Fraction(1, 2)
    assert net.synapses[0].weight == Fraction(1, 2)
    assert net.accept == "out"
    assert net.size() == 2


@pytest.mark.parametrize(
    "add",
    [
        lambda b: b.add_neuron("n", threshold=0.5),
        lambda b: b.add_neuron("n", reset=0.0),
        lambda b: b.add_neuron("n", leak=1.0),
        lambda b: b.add_synapse("n", "n", weight=0.5),
    ],
)
def test_builder_rejects_float_parameters(add):
    builder = NetworkBuilder()
    with pytest.raises(TypeError, match="exact rational"):
        add(builder)
    assert not builder.has("n")
    assert builder.build(validate=False) == Network()


def test_bind_schedules():
    builder = NetworkBuilder()
    builder.add_neuron("out")
    builder.add_input("port", [])
    builder.add_synapse("port", "out")
    net = builder.build()
    bound = net.bind_schedules({"port": [3, 5]})
    assert bound.programmed["port"] == ExplicitSchedule((3, 5))
    with pytest.raises(KeyError):
        net.bind_schedules({"nope": [1]})


def test_bind_schedules_copies_and_swaps_the_schedules():
    builder = NetworkBuilder()
    for name in ("q", "p", "r"):
        builder.add_input(name, [0])
    builder.add_neuron("out")
    builder.add_synapse("p", "out")
    builder.set_accept("out")
    net = builder.build()
    programmed = net.programmed
    before = dict(programmed)
    bound = net.bind_schedules({"r": [4], "p": PeriodicSchedule(1, 3)})
    rebuilt = Network(
        neurons=net.neurons,
        programmed={**before, "r": ExplicitSchedule((4,)), "p": PeriodicSchedule(1, 3)},
        synapses=net.synapses,
        accept=net.accept,
        reject=net.reject,
        gadget_tags=net.gadget_tags,
    )
    assert bound == rebuilt
    assert list(bound.programmed) == ["p", "q", "r"]
    assert serialize_network(bound) == serialize_network(rebuilt)
    assert bound.neurons is net.neurons and bound.synapses is net.synapses
    # The parent keeps its own schedules.
    assert net.programmed is programmed and net.programmed == before
    assert net.programmed["r"] == ExplicitSchedule((0,))


def test_incoming_weight_magnitude():
    net = _valid_network()
    assert net.incoming_weight_magnitudes(["b"]) == {"b": Fraction(1, 3)}
    assert net.incoming_weight_magnitudes(["a"]) == {"a": 1}
    assert net.incoming_weight_magnitudes(["a", "b"]) == {"a": 1, "b": Fraction(1, 3)}
