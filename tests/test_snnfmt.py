import gc
import hashlib
import inspect
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.engine import build_plan
from snnkit.randnet import random_network, sparse_benchmark_network
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
    _serialize_unchecked,
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


@pytest.mark.parametrize(
    "net, violations",
    [
        # `#` starts a comment: the text would read back as neuron `acc`.
        (
            Network(neurons=(NeuronSpec("acc#x"),), accept="acc#x"),
            ["invalid neuron id 'acc#x'", "accept names unknown neuron 'acc#x'"],
        ),
        # A newline splits one line into two: neurons `b` and `c`.
        (
            Network(neurons=(NeuronSpec("a"), NeuronSpec("b\nneuron c")), accept="a"),
            ["invalid neuron id 'b\\nneuron c'"],
        ),
        (
            Network(
                neurons=(NeuronSpec("a"),),
                programmed={"": ExplicitSchedule((0,))},
                synapses=(SynapseSpec("", "a"),),
                accept="a",
            ),
            ["invalid neuron id ''", "synapse ->a: unknown pre neuron ''"],
        ),
        (
            Network(neurons=(NeuronSpec("a"),), accept="a", gadget_tags={"a b"}),
            ["gadget tag names unknown neuron 'a b'"],
        ),
        # The text would read back the string id `5`.
        (
            Network(neurons=(NeuronSpec(5),), accept=5),
            ["invalid neuron id 5", "accept names unknown neuron 5"],
        ),
        (
            Network(neurons=(NeuronSpec(5),), programmed={"a#": ExplicitSchedule((0,))}, accept=5),
            ["invalid neuron id 5", "invalid neuron id 'a#'", "accept names unknown neuron 5"],
        ),
    ],
    ids=["hash", "newline", "empty", "space-in-gadget-tag", "int", "int-and-hash"],
)
def test_serialize_refuses_ids_the_text_cannot_carry(net, violations):
    # The writer refuses through `validate_network`, whose id rule the parser applies.
    with pytest.raises(InvalidNetworkError) as excinfo:
        serialize_network(net)
    assert excinfo.value.violations == violations == validate_network(net)


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


@pytest.mark.parametrize("text", ["", "\n  \n\t\n", "# only a comment\n\n  # and another\n"])
def test_text_without_a_significant_line_lacks_the_header(text):
    assert _errors(text) == ["line 1: expected header 'snn 1'"]


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


_GHOST = "ghost"  # an id that random_network never declares


def _replace_neuron(net, draw, **changes):
    i = draw(st.integers(0, len(net.neurons) - 1))
    neurons = list(net.neurons)
    neurons[i] = replace(neurons[i], **changes)
    return replace(net, neurons=tuple(neurons))


def _replace_synapse(net, draw, **changes):
    i = draw(st.integers(0, len(net.synapses) - 1))
    synapses = list(net.synapses)
    synapses[i] = synapses[i]._replace(**changes)
    return replace(net, synapses=tuple(synapses))


def _duplicate_id(net, draw):
    name = draw(st.sampled_from(sorted(net.ids())))
    return replace(net, neurons=net.neurons + (NeuronSpec(name),))


def _non_increasing_schedule(net, draw):
    name = draw(st.sampled_from(sorted(net.programmed)))
    t = draw(st.integers(0, 5))
    sched = ExplicitSchedule((t + draw(st.integers(0, 3)), t))
    return replace(net, programmed={**net.programmed, name: sched})


def _invalid_id(net, draw):
    # One token each, with no `#`, so the text names the id as the network does.
    name = draw(st.sampled_from(["a-b", "n.1", "x=y", "->", "é", "1/2"]))
    if draw(st.booleans()):
        return replace(net, neurons=net.neurons + (NeuronSpec(name),))
    return replace(net, programmed={**net.programmed, name: ExplicitSchedule((0,))})


# One way to break each rule `validate_network` checks. Bool delays are left
# out: `_serialize_unchecked` writes a delay of True as the default delay.
_VIOLATIONS = {
    "negative threshold": lambda net, draw: _replace_neuron(
        net, draw, threshold=draw(st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(-5)]))
    ),
    "leak above 1": lambda net, draw: _replace_neuron(
        net, draw, leak=draw(st.sampled_from([Fraction(7, 6), Fraction(3, 2), Fraction(2)]))
    ),
    "delay <= 0": lambda net, draw: _replace_synapse(net, draw, delay=draw(st.integers(-3, 0))),
    "reject = accept": lambda net, draw: replace(net, reject=net.accept),
    "unknown gadget tag": lambda net, draw: replace(net, gadget_tags=net.gadget_tags | {_GHOST}),
    "unknown synapse endpoint": lambda net, draw: _replace_synapse(
        net, draw, **{draw(st.sampled_from(["pre", "post"])): _GHOST}
    ),
    "duplicate neuron id": _duplicate_id,
    "non-increasing schedule": _non_increasing_schedule,
    "unknown accept id": lambda net, draw: replace(net, accept=_GHOST),
    "invalid id": _invalid_id,
}


@st.composite
def networks_with_at_most_one_violation(draw, violations=_VIOLATIONS):
    net = random_network(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([None, *violations]))
    return net if kind is None else violations[kind](net, draw)


@given(networks_with_at_most_one_violation())
@settings(max_examples=1500, deadline=None)
def test_parser_refuses_exactly_what_validate_network_refuses(net):
    # The parser's line rules are the only check of `.snn` text, so they must
    # agree with the reference validation on every network's text, which the
    # unchecked writer produces for invalid networks too.
    text = _serialize_unchecked(net)
    if validate_network(net):
        with pytest.raises(NetworkFormatError):
            parse_network(text)
    else:
        assert parse_network(text) == net


def _plain_list_schedule(net, draw):
    name = draw(st.sampled_from(sorted(net.programmed)))
    return replace(net, programmed={**net.programmed, name: [draw(st.integers(0, 5))]})


# What the writer may be handed besides: values the text cannot carry at all.
_WRITER_VIOLATIONS = {
    **_VIOLATIONS,
    "bool delay": lambda net, draw: _replace_synapse(net, draw, delay=draw(st.booleans())),
    "plain-list schedule": _plain_list_schedule,
}


@given(networks_with_at_most_one_violation(_WRITER_VIOLATIONS))
@settings(max_examples=500, deadline=None)
def test_writer_refuses_exactly_what_validate_network_refuses(net):
    violations = validate_network(net)
    if violations:
        with pytest.raises(InvalidNetworkError) as excinfo:
            serialize_network(net)
        assert excinfo.value.violations == violations
    else:
        assert parse_network(serialize_network(net)) == net


_A = NeuronSpec("a")


@pytest.mark.parametrize(
    "net, violations",
    [
        (
            Network(programmed={"p": ExplicitSchedule((3, 1))}, accept="p"),
            ["input p: schedule times must be strictly increasing"],
        ),
        (
            Network(neurons=(NeuronSpec("a-b"),), accept="a-b"),
            ["invalid neuron id 'a-b'", "accept names unknown neuron 'a-b'"],
        ),
        (Network(neurons=(NeuronSpec("a", threshold=-1),), accept="a"), ["neuron a: threshold must be >= 0"]),
        (Network(neurons=(NeuronSpec("a", leak=2),), accept="a"), ["neuron a: leak must be in [0, 1]"]),
        (
            Network(neurons=(_A,), synapses=(SynapseSpec("a", "a", 0),), accept="a"),
            ["synapse a->a: delay must be >= 1"],
        ),
        (
            Network(neurons=(_A,), synapses=(SynapseSpec("a", "b"),), accept="a"),
            ["synapse a->b: unknown post neuron 'b'"],
        ),
        (Network(neurons=(_A,), accept="b"), ["accept names unknown neuron 'b'"]),
        (Network(neurons=(_A,), accept="a", reject="a"), ["accept and reject are both 'a'"]),
        # Written unchecked, a delay of True reads back as the default delay 1.
        (
            Network(neurons=(_A,), synapses=(SynapseSpec("a", "a", True),), accept="a"),
            ["synapse a->a: delay must be >= 1"],
        ),
        (Network(programmed={"p": [1, 2]}, accept="p"), ["input p: not a spike schedule"]),
    ],
    ids=[
        "decreasing-schedule", "id-a-b", "threshold-minus-1", "leak-2", "delay-0",
        "unknown-endpoint", "unknown-accept", "accept-is-reject", "bool-delay", "plain-list-schedule",
    ],
)
def test_writer_refuses_what_its_parser_refuses(net, violations):
    with pytest.raises(InvalidNetworkError) as excinfo:
        serialize_network(net)
    assert excinfo.value.violations == violations == validate_network(net)


def test_port_bindings_round_trip():
    bindings = {
        "val": ExplicitSchedule((5,)),
        "a0": ExplicitSchedule(()),
        "drv": PeriodicSchedule(2, 3),
    }
    text = serialize_port_bindings(bindings)
    assert parse_port_bindings(text) == bindings


def _sidecar_line(name, schedule):
    """The sidecar line of a binding, written without the writer's checks."""
    if isinstance(schedule, PeriodicSchedule):
        return f"{name}=periodic:{schedule.offset}:{schedule.period}\n"
    return f"{name}=" + ";".join(str(t) for t in schedule.times) + "\n"


port_schedules = st.one_of(
    st.builds(PeriodicSchedule, st.integers(0, 2**70), st.integers(1, 2**70)),
    st.lists(st.integers(0, 2**70), max_size=5, unique=True).map(
        lambda times: ExplicitSchedule(tuple(sorted(times)))
    ),
)


@given(st.dictionaries(st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True), port_schedules, max_size=6))
def test_valid_port_bindings_round_trip(bindings):
    assert parse_port_bindings(serialize_port_bindings(bindings)) == bindings


@pytest.mark.parametrize(
    "bindings, violations",
    [
        ({"a b": ExplicitSchedule((1,))}, ["port 'a b' cannot be written as a sidecar line"]),
        ({"a#": ExplicitSchedule((1,))}, ["port 'a#' cannot be written as a sidecar line"]),
        ({"": ExplicitSchedule((1,))}, ["port '' cannot be written as a sidecar line"]),
        ({"x=y": ExplicitSchedule((1,))}, ["port 'x=y' cannot be written as a sidecar line"]),
        ({1: ExplicitSchedule((1,))}, ["port 1 cannot be written as a sidecar line"]),
        ({"p": ExplicitSchedule((3, 1))}, ["port 'p': schedule times must be strictly increasing"]),
        ({"p": [1, 2]}, ["port 'p': not a spike schedule"]),
        (
            {"ok": ExplicitSchedule((1,)), 1: ExplicitSchedule((3, 1)), "a#": [1]},
            [
                "port 1 cannot be written as a sidecar line",
                "port 1: schedule times must be strictly increasing",
                "port 'a#' cannot be written as a sidecar line",
                "port 'a#': not a spike schedule",
            ],
        ),
    ],
    ids=["space", "hash", "empty", "equals", "int", "decreasing", "list", "each-named"],
)
def test_sidecar_writer_refuses_what_its_reader_would_not_read_back(bindings, violations):
    with pytest.raises(InvalidNetworkError) as excinfo:
        serialize_port_bindings(bindings)
    assert excinfo.value.violations == violations


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
        ("p=1;x\n", "line 1: schedule time must be an integer, got 'x'"),
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
    # `_serialize_unchecked` writes what it is given and the sidecar line is
    # written by hand, so each form carries the same bad schedule.
    network = Network(programmed={"p": schedule}, accept="p")
    with pytest.raises(NetworkFormatError) as snn:
        parse_network(_serialize_unchecked(network))
    with pytest.raises(InvalidNetworkError) as refused:
        serialize_network(network)
    with pytest.raises(NetworkFormatError) as sidecar:
        parse_port_bindings(_sidecar_line("p", schedule))
    with pytest.raises(InvalidNetworkError) as written:
        serialize_port_bindings({"p": schedule})
    plan = build_plan(Network(programmed={"p": ExplicitSchedule(())}, accept="p"))
    with pytest.raises(InvalidNetworkError) as rebound:
        plan.with_schedules({"p": schedule})
    with pytest.raises(InvalidNetworkError) as bound:
        plan.network.bind_schedules({"p": schedule})
    assert snn.value.errors == [f"line 2: {reason}" for reason in reasons]
    assert sidecar.value.errors == [f"line 1: {reason}" for reason in reasons]
    assert written.value.violations == [f"port 'p': {reason}" for reason in reasons]
    assert rebound.value.violations == [f"input p: {reason}" for reason in reasons]
    assert bound.value.violations == refused.value.violations == rebound.value.violations


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
        parse_network(_serialize_unchecked(network))
    with pytest.raises(InvalidNetworkError) as refused:
        serialize_network(network)
    assert refused.value.violations == validate_network(network)
    with pytest.raises(NetworkFormatError):
        parse_port_bindings(_sidecar_line("p", schedule))
    with pytest.raises(InvalidNetworkError) as written:
        serialize_port_bindings({"p": schedule})
    assert written.value.violations == [f"port 'p': {reason}" for reason in reasons]
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


def test_sparse_benchmark_network_needs_ten_neurons():
    with pytest.raises(ValueError, match="at least 10 neurons"):
        sparse_benchmark_network(9, 0)


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


# One parse reads each well-formed attribute tail once; these check that the
# reuse reports and adds exactly what reading every line afresh would.


@pytest.mark.parametrize(
    "tail, reason",
    [
        ("threshold=-1", "threshold must be >= 0"),
        ("leak=3/2", "leak must be in [0, 1]"),
        ("bogus=1", "unexpected token 'bogus=1'"),
        ("reset=1 reset=1", "duplicate attribute 'reset'"),
    ],
)
def test_repeated_malformed_neuron_tail_reports_every_line(tail, reason):
    errors = _errors(
        "snn 1\n"
        "neuron ok reset=1\n"  # a well-formed tail that starts like the last case
        f"neuron aa {tail}\n"
        f"neuron bb {tail}\n"
        f"neuron cc {tail}\n"
        "accept ok\n"
    )
    assert errors == [f"line {n}: {reason}" for n in (3, 4, 5)]


@pytest.mark.parametrize(
    "tail, reason, added",
    [
        ("delay=0", "delay must be >= 1", 0),
        ("delay=x", "delay must be an integer, got 'x'", 0),
        ("weight=1/0", "weight: malformed rational '1/0'", 0),
        ("weight=2 colour=red", "unexpected token 'colour=red'", 3),
    ],
)
def test_repeated_malformed_synapse_tail_reports_every_line(tail, reason, added):
    text = (
        "snn 1\n"
        "neuron aa\n"
        "synapse aa -> aa weight=2\n"  # a well-formed tail that starts like the last case
        f"synapse aa -> aa {tail}\n"
        f"synapse aa -> aa {tail}\n"
        f"synapse aa -> aa {tail}\n"
        "accept aa\n"
    )
    assert _errors(text) == [f"line {n}: {reason}" for n in (4, 5, 6)]
    # A stray token is reported but does not stop its line's synapse.
    assert _Parser(text).synapses == [SynapseSpec("aa", "aa", 1, Fraction(2))] * (1 + added)


def test_tail_on_a_line_with_a_bad_id_reports_the_id_and_adds_no_neuron():
    text = (
        "snn 1\n"
        "neuron aa\n"
        "neuron aa reset=1/3\n"  # the tail's first line has a duplicate id
        "neuron a-b leak=1/4\n"  # and this one's an invalid id
        "neuron bb reset=1/3\n"
        "neuron cc leak=1/4\n"
        "neuron dd threshold=2\n"
        "neuron dd threshold=2\n"  # a tail read before, on a duplicate id
        "neuron c-d threshold=2\n"
        "accept aa\n"
    )
    parser = _Parser(text)
    assert parser.neurons == [
        NeuronSpec("aa"),
        NeuronSpec("bb", reset=Fraction(1, 3)),
        NeuronSpec("cc", leak=Fraction(1, 4)),
        NeuronSpec("dd", threshold=Fraction(2)),
    ]
    assert _errors(text) == [
        "line 3: duplicate id 'aa' (first declared on line 2)",
        "line 4: invalid id 'a-b'",
        "line 8: duplicate id 'dd' (first declared on line 7)",
        "line 9: invalid id 'c-d'",
    ]


def test_synapse_ids_are_checked_on_every_line_with_a_repeated_tail():
    declared_later = parse_network(
        "snn 1\nneuron aa\nsynapse aa -> bb weight=2\nsynapse bb -> aa weight=2\nneuron bb\naccept aa\n"
    )
    assert [(syn.pre, syn.post) for syn in declared_later.synapses] == [("aa", "bb"), ("bb", "aa")]
    errors = _errors(
        "snn 1\n"
        "neuron aa\n"
        "synapse aa -> zz weight=2\n"
        "neuron bb\n"
        "synapse bb -> zz weight=2\n"
        "synapse aa -> zz\n"
        "synapse zz -> bb weight=2\n"
        "accept aa\n"
    )
    assert errors == [
        "line 3: synapse post names unknown id 'zz'",
        "line 5: synapse post names unknown id 'zz'",
        "line 6: synapse post names unknown id 'zz'",
        "line 7: synapse pre names unknown id 'zz'",
    ]


# Bad tokens drawn like those of test_parser_fuzz.py, but kept here so that
# the pin below does not move with them. Numerals stay short: how int()
# treats very long digit strings differs between interpreter releases.
_BAD_VALUES = [
    "", "-1", "1/0", "2/-3", "0x10", "1e3", "1_0", "٣", "x", "1;2", "2;1", ";", "1;;2",
    "periodic:0:1", "9" * 30,
]
_BAD_IDS = ["", "->", "é", "a-b", "unknown"]
_BAD_WORDS = ["->", "=", "é", "periodic", "goto", "colour=red", "reset=1"]
_GOOD_IDS = ["a", "b", "acc", "a_1", "rej", "n0", "n1", "n2", "n3", "n4"]
_GOOD_VALUES = {
    "threshold": ["0", "1", "2", "1/2", "5/3"],
    "reset": ["0", "1", "1/3"],
    "leak": ["0", "1", "1/2", "3/4"],
    "delay": ["1", "2", "3"],
    "weight": ["1", "2", "-1", "1/2", "-7/3"],
    "schedule": ["", "0", "2", "0;3;4"],
    "offset": ["0", "1", "3"],
    "period": ["1", "2", "5"],
}


def _corpus_text(rng: random.Random) -> str:
    """A short `.snn` text, clean or noisy, whose lines share a few attribute tails."""
    noise = rng.choice([0.0, 0.0, 0.05, 0.3])

    def pick(good, bad):
        return rng.choice(bad if rng.random() < noise else good)

    def tail(*keys):
        chosen = rng.sample(keys, rng.randrange(len(keys) + 1))
        words = [f"{key}={pick(_GOOD_VALUES[key], _BAD_VALUES)}" for key in chosen]
        if rng.random() < noise:
            words.insert(rng.randrange(len(words) + 1), rng.choice(_BAD_WORDS))
        return words

    ids = rng.sample(_GOOD_IDS, rng.randrange(2, 7))
    neuron_tails = [tail("threshold", "reset", "leak") for _ in range(3)]
    synapse_tails = [tail("delay", "weight") for _ in range(3)]
    body = []
    for name in ids:
        if rng.random() < 0.2:
            schedule = rng.choice([["periodic", *tail("offset", "period")], tail("schedule")])
            body.append(["input", pick([name], _BAD_IDS), *schedule])
        else:
            body.append(["neuron", pick([name], _BAD_IDS), *rng.choice(neuron_tails)])
    for _ in range(rng.randrange(12)):
        arrow = pick(["->"], ["-", "=>"])
        body.append(["synapse", pick(ids, _BAD_IDS), arrow, pick(ids, _BAD_IDS), *rng.choice(synapse_tails)])
    body += [[role, pick(ids, _BAD_IDS)] for role in ("accept", "reject", "gadget") if rng.random() < 0.5]
    if rng.random() < 0.3:
        rng.shuffle(body)  # ids named before the lines that declare them
    lines = [pick(["snn 1", " snn\t1 # header"], ["snn 2", "neuron a"])]
    for words in body:
        line = rng.choice([" ", " ", "\t", "  "]).join(words)
        lines.append(f"  {line} # note" if rng.random() < 0.1 else line)
        if rng.random() < noise:
            lines.append(rng.choice([line, "", "# comment"]))
    return "\n".join(lines) + "\n"


def test_parse_outcomes_match_a_parser_without_tail_reuse():
    # The pin was computed with the parser from before attribute tails were
    # reused, which read every tail afresh; any changed outcome moves it.
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    parsed = 0
    for _ in range(2000):
        try:
            outcome = "network\n" + serialize_network(parse_network(_corpus_text(rng)))
            parsed += 1
        except NetworkFormatError as exc:
            outcome = "errors\n" + "\n".join(exc.errors)
        digest.update(outcome.encode() + b"\0")
    assert parsed == 633
    assert digest.hexdigest() == "328041f85da1a2eac40da61f4aa717528d9225c3ad4651d5f918b6c715e2b787"
