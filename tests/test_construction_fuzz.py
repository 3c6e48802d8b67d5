"""Malformed construction calls reach the caller as ValueError, never a stray error.

The library's construction API takes ids of any type: the builder's
methods, `Network(...)` itself, and the compositions in `gadgets`. Ids are
drawn from text, ints, None, lists and tuples, so many are invalid and some
cannot be hashed. Parameters are drawn exact, since a float parameter is a
documented TypeError. Every call must return a result or raise a
ValueError subclass, and `validate_network` must list what it refuses
rather than raise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.gadgets import attach_meter, attach_timer, merge
from snnkit.model import (
    ExplicitSchedule,
    Network,
    NetworkBuilder,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
    validate_network,
)
from snnkit.snnfmt import serialize_network

FUZZ = settings(max_examples=100, deadline=None)

# Common names recur, so that ids collide and valid networks get drawn too.
HASHABLE_IDS = st.one_of(
    st.sampled_from(["a", "b", "acc", "rej", "timer", "meter"]),
    st.text(max_size=3),
    st.integers(-2, 2),
    st.none(),
    st.tuples(st.sampled_from(["a", "b"])),
)
IDS = HASHABLE_IDS | st.lists(st.sampled_from(["a", "b"]), max_size=2)
EXACT = st.integers(-2, 3) | st.fractions(min_value=-2, max_value=3, max_denominator=4)
TIMES = st.lists(st.integers(-1, 6), max_size=3)
SCHEDULES = st.one_of(
    TIMES,
    TIMES.map(tuple).map(ExplicitSchedule),
    st.builds(PeriodicSchedule, st.integers(-1, 3), st.integers(-1, 3)),
)
NEURONS = st.builds(NeuronSpec, IDS, EXACT, EXACT, EXACT)
SYNAPSES = st.builds(SynapseSpec, IDS, IDS, st.integers(-1, 3), EXACT)
NETWORKS = st.builds(
    Network,
    neurons=st.lists(NEURONS, max_size=4).map(tuple),
    programmed=st.dictionaries(HASHABLE_IDS, SCHEDULES, max_size=3),
    synapses=st.lists(SYNAPSES, max_size=4).map(tuple),
    accept=IDS,
    reject=IDS,
    gadget_tags=st.frozensets(HASHABLE_IDS, max_size=2),
)

BUILDER_CALLS = st.one_of(
    st.tuples(st.just("has"), st.tuples(IDS)),
    st.tuples(st.just("add_neuron"), st.tuples(IDS, EXACT, EXACT, EXACT)),
    st.tuples(st.just("add_input"), st.tuples(IDS, SCHEDULES)),
    st.tuples(st.just("add_synapse"), st.tuples(IDS, IDS, st.integers(-1, 3), EXACT)),
    st.tuples(st.just("add_network"), st.tuples(NETWORKS)),
    st.tuples(st.just("set_accept"), st.tuples(IDS)),
    st.tuples(st.just("set_reject"), st.tuples(IDS)),
    st.tuples(st.just("tag_gadget"), st.tuples(IDS)),
    st.tuples(st.just("build"), st.tuples(st.booleans())),
)


@FUZZ
@given(st.lists(BUILDER_CALLS, max_size=8))
def test_builder_calls_return_or_raise_value_error(calls):
    builder = NetworkBuilder()
    for method, args in calls:
        before = builder.build(validate=False)
        try:
            getattr(builder, method)(*args)
        except ValueError:
            # A refused call adds nothing.
            assert builder.build(validate=False) == before


@FUZZ
@given(NETWORKS)
def test_network_is_validated_and_serialized_or_refused(network):
    violations = validate_network(network)
    assert all(isinstance(reason, str) for reason in violations)
    try:
        serialize_network(network)
    except ValueError:
        assert violations
    else:
        assert not violations


@FUZZ
@given(
    st.lists(NETWORKS, min_size=1, max_size=2),
    st.lists(SYNAPSES, max_size=2),
    IDS,
    IDS,
    st.integers(-1, 4),
)
def test_compositions_return_or_raise_value_error(parts, cross_synapses, accept, reject, bound):
    for compose in (
        lambda: merge(parts, cross_synapses, accept, reject),
        lambda: attach_timer(parts[0], bound),
        lambda: attach_meter(parts[0], bound),
    ):
        try:
            compose()
        except ValueError:
            pass

