import gc
import inspect
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.engine import build_plan
from snnkit.randnet import sparse_benchmark_network
from snnkit.model import (
    ExplicitSchedule,
    InvalidNetworkError,
    Network,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
    validate_network,
)
from snnkit.snnfmt import (
    NetworkFormatError,
    _Parser,
    parse_network,
    parse_port_bindings,
    serialize_network,
    serialize_port_bindings,
)

EXAMPLE = """\
# a small decision network
snn 1
neuron out threshold=3/2 leak=1/2
neuron rej
input drip periodic offset=1 period=2
input burst schedule=0;3;4
synapse drip -> out weight=1/2
synapse burst -> rej delay=4 weight=-2
accept out
reject rej
gadget rej
"""


def test_parse_example():
    net = parse_network(EXAMPLE)
    assert net.neuron("out").threshold == Fraction(3, 2)
    assert net.neuron("out").leak == Fraction(1, 2)
    assert net.programmed["drip"] == PeriodicSchedule(1, 2)
    assert net.programmed["burst"] == ExplicitSchedule((0, 3, 4))
    assert net.accept == "out"
    assert net.reject == "rej"
    assert net.gadget_tags == frozenset({"rej"})
    syn = [s for s in net.synapses if s.pre == "burst"][0]
    assert syn.delay == 4 and syn.weight == -2


def test_defaults_applied():
    net = parse_network("snn 1\nneuron acc\naccept acc\n")
    spec = net.neuron("acc")
    assert (spec.threshold, spec.reset, spec.leak) == (1, 0, 1)


def test_serialize_trivial_network_is_three_lines():
    net = parse_network("snn 1\nneuron acc\naccept acc\n")
    text = serialize_network(net)
    assert text.splitlines() == ["snn 1", "neuron acc", "accept acc"]


def test_serialize_deterministic_and_lowest_terms():
    net = Network(
        neurons=(NeuronSpec("a"), NeuronSpec("b")),
        synapses=(SynapseSpec("a", "b", weight=Fraction(2, 4)),),
        accept="a",
    )
    first = serialize_network(net)
    second = serialize_network(net)
    assert first == second
    assert "weight=1/2" in first


def test_round_trip_identity():
    net = parse_network(EXAMPLE)
    assert parse_network(serialize_network(net)) == net


def test_serialize_canonicality():
    messy = "snn 1\n\n# comment\nneuron b\nneuron a  # trailing\nsynapse a -> b\naccept b\n"
    once = serialize_network(parse_network(messy))
    twice = serialize_network(parse_network(once))
    assert once == twice


def test_empty_schedule_round_trips():
    net = parse_network("snn 1\nneuron out\ninput port schedule=\nsynapse port -> out\naccept out\n")
    assert net.programmed["port"] == ExplicitSchedule(())
    assert parse_network(serialize_network(net)) == net


def _errors(text):
    with pytest.raises(NetworkFormatError) as excinfo:
        parse_network(text)
    return excinfo.value.errors


def test_missing_header():
    errors = _errors("neuron a\naccept a\n")
    assert any("expected header" in e for e in errors)


def test_zero_delay_reports_line():
    errors = _errors("snn 1\nneuron a\nneuron b\nsynapse a -> b delay=0\naccept a\n")
    assert errors == ["line 4: delay must be >= 1"]


def test_unknown_synapse_id():
    errors = _errors("snn 1\nneuron a\nsynapse a -> x\naccept a\n")
    assert any("unknown id 'x'" in e for e in errors)


def test_duplicate_id():
    errors = _errors("snn 1\nneuron a\ninput a schedule=0\naccept a\n")
    assert any("duplicate id 'a'" in e for e in errors)


def test_leak_out_of_range():
    errors = _errors("snn 1\nneuron a leak=3/2\naccept a\n")
    assert any("leak must be in [0, 1]" in e for e in errors)


def test_negative_threshold_and_reset():
    errors = _errors("snn 1\nneuron a threshold=-1 reset=-2\naccept a\n")
    assert any("threshold must be >= 0" in e for e in errors)
    assert any("reset must be >= 0" in e for e in errors)


@pytest.mark.parametrize(
    "line, error",
    [
        ("neuron b threshold=٣", "line 3: threshold: malformed rational '٣'"),
        ("synapse a -> a delay=1_0", "line 3: delay must be an integer, got '1_0'"),
        ("synapse a -> a delay=+2", "line 3: delay must be an integer, got '+2'"),
        ("input b periodic offset=٣ period=1", "line 3: offset must be an integer, got '٣'"),
        ("input b schedule=1;+2", "line 3: schedule time must be an integer, got '+2'"),
        pytest.param(
            "synapse a -> a delay=" + "9" * 5000,
            "line 3: delay must be an integer, got '" + "9" * 5000 + "'",
            id="more-digits-than-int-converts",
        ),
    ],
)
def test_numerals_outside_the_grammar(line, error):
    assert _errors(f"snn 1\nneuron a\n{line}\naccept a\n") == [error]


def test_accept_equals_reject():
    errors = _errors("snn 1\nneuron a\naccept a\nreject a\n")
    assert any("accept and reject are both 'a'" in e for e in errors)


@pytest.mark.parametrize("role", ["accept", "reject"])
def test_second_designation_is_an_error(role):
    errors = _errors(f"snn 1\nneuron a\nneuron b\n{role} a\n{role} b\n")
    assert errors == [f"line 5: duplicate {role} directive"]


def test_multiple_errors_each_with_line_numbers():
    text = "snn 1\nneuron a leak=2\nsynapse a -> x delay=0\naccept a\nreject a\n"
    errors = _errors(text)
    assert len(errors) >= 4
    assert all(e.startswith("line ") for e in errors)


def test_unknown_directive_and_bad_tokens():
    errors = _errors("snn 1\nfrobnicate a\nneuron b bogus=1\naccept b\n")
    assert any("unknown directive" in e for e in errors)
    assert any("unexpected token" in e for e in errors)


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
nonneg_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(4), max_denominator=6
)
leaks = st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=6)
ids = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def networks(draw):
    regular = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    inputs = draw(
        st.lists(ids.filter(lambda n: n not in regular), min_size=0, max_size=3, unique=True)
    )
    neurons = tuple(
        NeuronSpec(
            name,
            threshold=draw(nonneg_rationals),
            reset=draw(nonneg_rationals),
            leak=draw(leaks),
        )
        for name in regular
    )
    programmed = {}
    for name in inputs:
        if draw(st.booleans()):
            programmed[name] = PeriodicSchedule(draw(st.integers(0, 5)), draw(st.integers(1, 5)))
        else:
            times = draw(st.lists(st.integers(0, 20), min_size=0, max_size=4, unique=True))
            programmed[name] = ExplicitSchedule(tuple(sorted(times)))
    everyone = regular + inputs
    n_syn = draw(st.integers(0, 8))
    synapses = tuple(
        SynapseSpec(
            draw(st.sampled_from(everyone)),
            draw(st.sampled_from(everyone)),
            delay=draw(st.integers(1, 6)),
            weight=draw(rationals),
        )
        for _ in range(n_syn)
    )
    accept = draw(st.sampled_from(everyone))
    others = [n for n in everyone if n != accept]
    reject = draw(st.sampled_from(others)) if others and draw(st.booleans()) else None
    tags = frozenset(n for n in everyone if draw(st.booleans()))
    return Network(
        neurons=neurons,
        programmed=programmed,
        synapses=synapses,
        accept=accept,
        reject=reject,
        gadget_tags=tags,
    )


@given(networks())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(net):
    assert parse_network(serialize_network(net)) == net


def test_port_bindings_round_trip():
    bindings = {
        "val": ExplicitSchedule((5,)),
        "a0": ExplicitSchedule(()),
        "drv": PeriodicSchedule(2, 3),
    }
    text = serialize_port_bindings(bindings)
    assert parse_port_bindings(text) == bindings


def test_port_bindings_errors():
    with pytest.raises(NetworkFormatError):
        parse_port_bindings("val=3;2\n")
    with pytest.raises(NetworkFormatError):
        parse_port_bindings("bad line\n")
    with pytest.raises(NetworkFormatError):
        parse_port_bindings("p=periodic:1\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("a=1_0\n", "line 1: schedule time must be an integer, got '1_0'"),
        ("a=periodic:+1:٢\n", "line 1: malformed periodic schedule 'periodic:+1:٢'"),
        ("a=periodic:1:1_0\n", "line 1: malformed periodic schedule 'periodic:1:1_0'"),
        pytest.param(
            "a=periodic:" + "9" * 5000 + ":1\n",
            "line 1: malformed periodic schedule 'periodic:" + "9" * 5000 + ":1'",
            id="more-digits-than-int-converts",
        ),
    ],
)
def test_port_binding_numerals_outside_the_grammar(text, error):
    with pytest.raises(NetworkFormatError) as excinfo:
        parse_port_bindings(text)
    assert excinfo.value.errors == [error]


@pytest.mark.parametrize(
    "schedule, reasons",
    [
        (ExplicitSchedule((-1, 4)), ["schedule times must be integers >= 0"]),
        (ExplicitSchedule((3, 1)), ["schedule times must be strictly increasing"]),
        (PeriodicSchedule(-1, 2), ["offset must be an integer >= 0"]),
        (PeriodicSchedule(0, 0), ["period must be an integer >= 1"]),
        (PeriodicSchedule(-1, 0), ["offset must be an integer >= 0", "period must be an integer >= 1"]),
    ],
)
def test_bad_schedule_reads_the_same_in_snn_sidecar_and_rebinding(schedule, reasons):
    # The serializers write what they are given, so each form carries the same bad schedule.
    with pytest.raises(NetworkFormatError) as snn:
        parse_network(serialize_network(Network(programmed={"p": schedule}, accept="p")))
    with pytest.raises(NetworkFormatError) as sidecar:
        parse_port_bindings(serialize_port_bindings({"p": schedule}))
    plan = build_plan(Network(programmed={"p": ExplicitSchedule(())}, accept="p"))
    with pytest.raises(InvalidNetworkError) as rebound:
        plan.with_schedules({"p": schedule})
    with pytest.raises(InvalidNetworkError) as bound:
        plan.network.bind_schedules({"p": schedule})
    assert snn.value.errors == [f"line 2: {reason}" for reason in reasons]
    assert sidecar.value.errors == [f"line 1: {reason}" for reason in reasons]
    assert rebound.value.violations == [f"input p: {reason}" for reason in reasons]
    assert bound.value.violations == rebound.value.violations


@pytest.mark.parametrize(
    "schedule, reasons",
    [
        (ExplicitSchedule((True,)), ["schedule times must be integers >= 0"]),
        (ExplicitSchedule((0, True)), ["schedule times must be integers >= 0"]),
        (PeriodicSchedule(True, 2), ["offset must be an integer >= 0"]),
        (PeriodicSchedule(0, True), ["period must be an integer >= 1"]),
        (PeriodicSchedule(True, True), ["offset must be an integer >= 0", "period must be an integer >= 1"]),
    ],
)
def test_bool_schedule_is_invalid_everywhere(schedule, reasons):
    # A bool is an int subclass, but the format writes it as True or False,
    # which no parser reads back; so no valid network may hold one.
    network = Network(programmed={"p": schedule}, accept="p")
    assert validate_network(network) == [f"input p: {reason}" for reason in reasons]
    with pytest.raises(NetworkFormatError):
        parse_network(serialize_network(network))
    with pytest.raises(NetworkFormatError):
        parse_port_bindings(serialize_port_bindings({"p": schedule}))
    plan = build_plan(Network(programmed={"p": ExplicitSchedule(())}, accept="p"))
    with pytest.raises(InvalidNetworkError) as rebound:
        plan.with_schedules({"p": schedule})
    with pytest.raises(InvalidNetworkError) as bound:
        plan.network.bind_schedules({"p": schedule})
    assert rebound.value.violations == bound.value.violations == validate_network(network)


@pytest.mark.parametrize("delay", [True, False])
def test_bool_delay_is_invalid(delay):
    # `delay=True` would be written as the default delay and read back as 1.
    network = Network(
        neurons=(NeuronSpec("a"),), synapses=(SynapseSpec("a", "a", delay),), accept="a"
    )
    assert validate_network(network) == ["synapse a->a: delay must be >= 1"]


def _declared_ids(net):
    """Map each declared id to the object the network holds for it."""
    declared = {spec.id: spec.id for spec in net.neurons}
    declared.update((name, name) for name in net.programmed)
    return declared


def _assert_ids_shared(net):
    declared = _declared_ids(net)
    for syn in net.synapses:
        assert syn.pre is declared[syn.pre] and syn.post is declared[syn.post]
    for name in (net.accept, net.reject, *net.gadget_tags):
        assert name is None or name is declared[name]


def test_one_parse_shares_each_id_object():
    # Ids longer than one character: CPython shares one-character strings anyway.
    net = parse_network(
        "snn 1\n"
        "synapse early -> later delay=2\n"  # names `later` before its neuron line
        "neuron early\n"
        "neuron later threshold=2\n"
        "input drive schedule=0;1\n"
        "synapse drive -> early\n"
        "synapse later -> verdict_no\n"
        "neuron verdict_no\n"
        "accept later\n"
        "reject verdict_no\n"
        "gadget verdict_no\n"
    )
    _assert_ids_shared(net)
    (first,) = [syn for syn in net.synapses if syn.delay == 2]
    assert net.accept is first.post  # the object read on line 2


def test_equal_rational_texts_share_one_fraction():
    net = parse_network(
        "snn 1\n"
        "neuron aa threshold=3/2 leak=1/2\n"
        "neuron bb threshold=3/2 reset=1/2\n"
        "synapse aa -> bb weight=3/2\n"
        "synapse bb -> aa weight=-7/3\n"
        "synapse aa -> aa weight=-7/3\n"
        "accept aa\n"
    )
    aa, bb = net.neurons
    weight = {(syn.pre, syn.post): syn.weight for syn in net.synapses}
    assert aa.threshold is bb.threshold is weight["aa", "bb"] == Fraction(3, 2)
    assert aa.leak is bb.reset == Fraction(1, 2)
    assert weight["bb", "aa"] is weight["aa", "aa"] == Fraction(-7, 3)


def test_repeated_malformed_rational_reports_every_line():
    errors = _errors(
        "snn 1\n"
        "neuron aa threshold=1/0\n"
        "neuron bb threshold=1/0\n"
        "synapse aa -> bb weight=1/0\n"
        "accept aa\n"
    )
    assert errors == [
        "line 2: threshold: malformed rational '1/0'",
        "line 3: threshold: malformed rational '1/0'",
        "line 4: weight: malformed rational '1/0'",
    ]


@pytest.mark.parametrize("key", range(4))
def test_sparse_benchmark_network_round_trips_with_shared_objects(key):
    net = sparse_benchmark_network(200, key)
    parsed = parse_network(serialize_network(net))
    assert parsed == net
    _assert_ids_shared(parsed)
    # Canonical text writes each value one way, so one object per value.
    for values in (
        [spec.threshold for spec in parsed.neurons],
        [spec.leak for spec in parsed.neurons],
        [syn.weight for syn in parsed.synapses],
    ):
        assert len({id(v) for v in values}) == len(set(values))


def test_directive_dispatch_keeps_no_per_line_allocation():
    # A per-line object made by the dispatch (such as an attribute name built
    # for `getattr`) can stay referenced by the interpreter's method cache.
    text = serialize_network(sparse_benchmark_network(1000, 0))
    source = inspect.getsourcefile(_Parser.line)
    lines, first = inspect.getsourcelines(_Parser.line)
    gc.collect()
    tracemalloc.start()
    try:
        network = parse_network(text)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = [
        stat
        for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == source
        and first <= stat.traceback[0].lineno < first + len(lines)
    ]
    assert network.size() == 1000
    assert kept == []
