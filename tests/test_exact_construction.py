"""The construction layer's integer arithmetic matches the Fraction formulas.

`validate_network`, the `.snn` neuron checks, `Network.incoming_weight_magnitudes`
and `ResourceBounds.caps` work on integer numerator/denominator pairs and
build at most one `Fraction` at the end. The property tests compare each of
them with the Fraction-operator formula it replaced. The tripwire tests make
Fraction's arithmetic and ordering operators raise, so a Fraction operation
that creeps back into one of these paths fails here instead of only showing
up as a slowdown.
"""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit import randnet
from snnkit.arraysearch import ArrayInstance, compile_search_embedded
from snnkit.gadgets import attach_meter, attach_timer
from snnkit.harness import ResourceBound, ResourceBounds, ResourceCaps
from snnkit.model import Network, NeuronSpec, SynapseSpec, format_rational, validate_network
from snnkit.snnfmt import NetworkFormatError, parse_network

PROPERTY = settings(max_examples=200, deadline=None)

TRIPWIRED = ("__add__", "__radd__", "__mul__", "__lt__", "__le__", "__gt__", "__ge__")

# Small values near the valid ranges' edges, and values with large denominators.
fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 3),
                     Fraction(4, 3), Fraction(2)]),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**15)),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)
nonneg_fractions = st.builds(abs, fractions)
POSTS = ("a", "b", "c")
IDS = ("a", "b", "c", "x")


def _arm_tripwire(monkeypatch):
    def tripped(*args):
        raise AssertionError("Fraction operator called")

    for name in TRIPWIRED:
        monkeypatch.setattr(Fraction, name, tripped)


# -- differential properties -------------------------------------------------


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(POSTS), fractions), max_size=12))
def test_incoming_weight_magnitude_matches_fraction_sum(edges):
    network = Network(synapses=tuple(SynapseSpec("a", post, 1, w) for post, w in edges))
    together = network.incoming_weight_magnitudes(POSTS)
    for post in POSTS:
        got = network.incoming_weight_magnitudes([post])[post]
        want = sum((abs(w) for p, w in edges if p == post), Fraction(0))
        assert type(got) is Fraction
        assert got == want
        assert together[post] == want


@PROPERTY
@given(st.booleans(), nonneg_fractions, nonneg_fractions, st.integers(0, 40))
def test_bound_caps_match_fraction_formula(constant, intercept, slope, n):
    if constant:
        slope = Fraction(0)
        bounds = [ResourceBound.constant(intercept, name) for name in ("time", "space", "energy")]
    else:
        bounds = [ResourceBound.linear(slope, intercept, name) for name in ("time", "space", "energy")]
    assert ResourceBounds(*bounds).caps(n) == ResourceCaps(*[floor(intercept + slope * n)] * 3)


def _neuron_messages(spec):
    out = []
    if spec.threshold < 0:
        out.append("threshold must be >= 0")
    if spec.reset < 0:
        out.append("reset must be >= 0")
    if not 0 <= spec.leak <= 1:
        out.append("leak must be in [0, 1]")
    return out


neuron_params = st.tuples(fractions, fractions, fractions)
synapse_rows = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS), st.integers(0, 2))


@PROPERTY
@given(st.lists(neuron_params, min_size=1, max_size=3), st.lists(synapse_rows, max_size=4))
def test_validate_network_matches_fraction_checks(params, rows):
    neurons = tuple(NeuronSpec(f"n{i}", *p) for i, p in enumerate(params))
    names = {"a", "b", "c"}
    network = Network(
        neurons=neurons + tuple(NeuronSpec(name) for name in sorted(names)),
        synapses=tuple(SynapseSpec(pre, post, delay) for pre, post, delay in rows),
    )
    want = [f"neuron {spec.id}: {m}" for spec in neurons for m in _neuron_messages(spec)]
    for syn in network.synapses:
        label = f"synapse {syn.pre}->{syn.post}"
        if syn.pre not in names:
            want.append(f"{label}: unknown pre neuron {syn.pre!r}")
        if syn.post not in names:
            want.append(f"{label}: unknown post neuron {syn.post!r}")
        if syn.delay < 1:
            want.append(f"{label}: delay must be >= 1")
    assert validate_network(network) == want


def _neuron_line(i, threshold, reset, leak):
    return (f"neuron n{i} threshold={format_rational(threshold)} "
            f"reset={format_rational(reset)} leak={format_rational(leak)}")


@PROPERTY
@given(st.lists(neuron_params, min_size=1, max_size=3))
def test_parser_neuron_checks_match_fraction_checks(params):
    lines = [_neuron_line(i, *p) for i, p in enumerate(params)]
    text = "snn 1\n" + "\n".join(lines) + "\naccept n0\n"
    want = [
        f"line {i + 2}: {m}"
        for i, p in enumerate(params)
        for m in _neuron_messages(NeuronSpec(f"n{i}", *p))
    ]
    try:
        network = parse_network(text)
    except NetworkFormatError as exc:
        assert exc.errors == want
    else:
        assert want == []
        assert [(s.threshold, s.reset, s.leak) for s in network.neurons] == params


# -- tripwire: the integer paths use no Fraction operator ------------------------


def test_tripwire_is_armed(monkeypatch):
    _arm_tripwire(monkeypatch)
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a < b, lambda a, b: a >= b):
        with pytest.raises(AssertionError, match="Fraction operator called"):
            op(Fraction(1, 2), Fraction(1, 3))


def test_validate_sparse_network_without_fraction_operators(monkeypatch):
    network = randnet.sparse_benchmark_network(1000, 0)
    bad = Network(neurons=(NeuronSpec("a", -1, Fraction(-1, 2), Fraction(3, 2)),))
    want = validate_network(network), validate_network(bad)
    _arm_tripwire(monkeypatch)
    assert (validate_network(network), validate_network(bad)) == want


def test_weight_magnitude_without_fraction_operators(monkeypatch):
    network = compile_search_embedded(ArrayInstance((3, 1, 4, 1), 4, 8))
    network = attach_meter(attach_timer(network, 9), 6)
    want = {name: network.incoming_weight_magnitudes([name])[name] for name in network.ids()}
    assert any(syn.weight.denominator > 1 for syn in network.synapses)
    _arm_tripwire(monkeypatch)
    assert network.incoming_weight_magnitudes(network.ids()) == want


def test_bound_caps_without_fraction_operators(monkeypatch):
    bounds = ResourceBounds(
        time=ResourceBound.constant(Fraction(7, 2), "time"),
        space=ResourceBound.linear(Fraction(5, 4), 3, "space"),
        energy=ResourceBound.linear(Fraction(2, 3), Fraction(1, 2), "energy"),
    )
    want = [bounds.caps(n) for n in range(6)]
    _arm_tripwire(monkeypatch)
    assert [bounds.caps(n) for n in range(6)] == want


@pytest.mark.parametrize(
    "lines",
    [
        "neuron a threshold=3/2 reset=1/3 leak=1/2\nneuron b leak=0\naccept a\n",
        "neuron a threshold=-1 reset=-2/3 leak=4/3\nneuron b leak=-1/2\naccept a\n",
    ],
)
def test_parse_neurons_without_fraction_operators(monkeypatch, lines):
    text = "snn 1\n" + lines

    def outcome():
        try:
            return parse_network(text)
        except NetworkFormatError as exc:
            return exc.errors

    want = outcome()
    _arm_tripwire(monkeypatch)
    assert outcome() == want
