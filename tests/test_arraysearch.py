import itertools
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from snnkit import arraysearch
from snnkit.arraysearch import (
    ArrayInstance,
    compile_search_embedded,
    compile_search_full_input,
    compile_search_value_input,
    contains_target,
    step_limit,
)
from snnkit.engine import RunLimits, run
from snnkit.harness import (
    COMPILE_FLAGS,
    Domain,
    ResourceCaps,
    compile_from_flags,
    get_compiler,
    registered_compilers,
    verify_equivalence,
)
from snnkit.model import NetworkBuilder, one_shot
from snnkit.snnfmt import serialize_network


def _decide(variant, instance, trace=False):
    network = get_compiler(f"array-search-{variant}").build(instance, NetworkBuilder())
    return run(network, RunLimits(step_limit(variant, instance.bound)), trace=trace)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayInstance((1, 2), 5, 4)  # target out of range
        with pytest.raises(ValueError):
            ArrayInstance((9,), 1, 4)  # element out of range
        with pytest.raises(ValueError):
            ArrayInstance((), 0, 0)  # empty bound

    def test_brute_force_reference(self):
        assert contains_target(ArrayInstance((3, 5, 7), 5, 8))
        assert not contains_target(ArrayInstance((3, 5, 7), 4, 8))
        assert not contains_target(ArrayInstance((), 1, 2))

    @pytest.mark.parametrize("domain", [Domain(3, 5), Domain(0, 1)], ids=repr)
    def test_enumerated_instances_equal_checked_ones(self, domain):
        # The enumerator skips ArrayInstance's checks; what it yields must
        # still be exactly what the checked constructor builds.
        instances = list(get_compiler("array-search-b").enumerate_domain(domain))
        assert len(instances) == sum(domain.max_val ** (n + 1) for n in range(domain.max_len + 1))
        for instance in instances:
            checked = ArrayInstance(instance.elements, instance.target, instance.bound)
            assert type(instance) is ArrayInstance
            assert vars(instance) == vars(checked)
            assert type(instance.elements) is tuple
            assert instance == checked
            assert hash(instance) == hash(checked)
            assert str(instance) == str(checked)
        last = instances[-1]
        with pytest.raises(ValueError, match="target must satisfy"):
            replace(last, target=domain.max_val)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            replace(last, bound=0)
        assert replace(last, elements=[0]).elements == (0,)


class TestVariantA:
    def test_member_accepts(self):
        report, _ = _decide("a", ArrayInstance((3, 5, 7), 5, 8))
        assert report.verdict == "accept"
        assert report.energy_payload <= 3 + 2

    def test_nonmember_rejects_at_deadline(self):
        instance = ArrayInstance((3, 5, 7), 4, 8)
        report, trace = _decide("a", instance, trace=True)
        assert report.verdict == "reject"
        assert trace.steps[-1].t == 10  # V + 2
        assert report.energy_payload == 3 + 2

    def test_empty_array_rejects(self):
        report, _ = _decide("a", ArrayInstance((), 1, 2))
        assert report.verdict == "reject"
        assert report.energy_payload == 2

    def test_accept_step_is_target_plus_one(self):
        for target in range(6):
            instance = ArrayInstance((target,), target, 6)
            report, trace = _decide("a", instance, trace=True)
            assert trace.steps[-1].t == target + 1


class TestVariantB:
    def test_member_accepts(self):
        compiled = compile_search_value_input((3, 5, 7), 8)
        network = compiled.bind({"val": one_shot(5)})
        report, _ = run(network, RunLimits(step_limit("b", 8)))
        assert report.verdict == "accept"
        assert report.energy_payload <= 3 + 3

    def test_nonmember_rejects_at_delay_invariant_step(self):
        instance = ArrayInstance((3, 5, 7), 4, 8)
        report, trace = _decide("b", instance, trace=True)
        assert report.verdict == "reject"
        assert trace.steps[-1].t == 4 + 8 + 1  # i + V + 1

    def test_one_build_many_inputs(self):
        compiled = compile_search_value_input((3, 5, 7), 8)
        verdicts = []
        for target in (3, 6):
            network = compiled.bind({"val": one_shot(target)})
            verdicts.append(run(network, RunLimits(step_limit("b", 8))).report.verdict)
        assert verdicts == ["accept", "reject"]

    def test_all_value_inputs_reusable(self):
        elements = (1, 4)
        bound = 6
        compiled = compile_search_value_input(elements, bound)
        for target in range(bound):
            network = compiled.bind({"val": one_shot(target)})
            report, _ = run(network, RunLimits(step_limit("b", bound)))
            expected = "accept" if target in elements else "reject"
            assert report.verdict == expected


class TestVariantC:
    def test_member_accepts(self):
        report, _ = _decide("c", ArrayInstance((3, 5, 7), 5, 8))
        assert report.verdict == "accept"
        assert report.energy_payload <= 2 * 3 + 2

    def test_nonmember_rejects(self):
        report, _ = _decide("c", ArrayInstance((1, 2, 3), 0, 8))
        assert report.verdict == "reject"

    def test_empty_rejects(self):
        report, _ = _decide("c", ArrayInstance((), 3, 8))
        assert report.verdict == "reject"

    def test_ports_exposed(self):
        compiled = compile_search_full_input(3, 8)
        assert compiled.input_ports == ("a0", "a1", "a2", "val")


BOUND = "bound must be >= 1"
TARGET = "target must satisfy 0 <= target < bound"
ELEMENT = "array elements must satisfy 0 <= element < bound"


class TestSplit:
    """The entries' `split` writes b's and c's port schedules, one spike at each value."""

    @staticmethod
    def _split(variant, instance):
        return get_compiler(f"array-search-{variant}").split(instance)

    def test_variant_b_single_spike(self):
        args, schedules = self._split("b", ArrayInstance((3, 5, 7), 5, 8))
        assert args == ((3, 5, 7), 8)
        assert schedules == {"val": one_shot(5)}

    def test_variant_c_all_zero(self):
        args, schedules = self._split("c", ArrayInstance((0, 0), 0, 4))
        assert args == (2, 4)
        assert schedules == {"a0": one_shot(0), "a1": one_shot(0), "val": one_shot(0)}

    def test_arity_mismatch_rejected_at_bind(self):
        compiled = compile_search_full_input(3, 8)
        _, schedules = self._split("c", ArrayInstance((1, 2), 1, 8))
        with pytest.raises(ValueError, match="unbound"):
            compiled.bind(schedules)
        _, extra = self._split("c", ArrayInstance((1, 2, 3, 4), 1, 8))
        with pytest.raises(ValueError, match="unknown"):
            compiled.bind(extra)

    @pytest.mark.parametrize(
        "variant, array, target, bound, message",
        [("b", (3,), 8, 8, TARGET), ("c", (1,), -1, 4, TARGET), ("c", (0, 4), 0, 4, ELEMENT)],
    )
    def test_value_out_of_range_rejected_before_split(self, variant, array, target, bound, message):
        # `split` trusts its instance; the flags path checks it through ArrayInstance first.
        with pytest.raises(ValueError) as error:
            get_compiler(f"array-search-{variant}").from_flags(array, None, target, bound)
        assert str(error.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ArrayInstance((1,), 0, 0), BOUND),
        (lambda: ArrayInstance((1,), 4, 4), TARGET),
        (lambda: ArrayInstance((1, -1), 0, 4), ELEMENT),
        (lambda: ArrayInstance((1,), -1, 4), TARGET),
        (lambda: ArrayInstance((1, 4), 0, 4), ELEMENT),
        (lambda: compile_search_value_input((1,), 0), BOUND),
        (lambda: compile_search_value_input((1, 4), 4), ELEMENT),
        (lambda: compile_search_value_input((1, -1), 4), ELEMENT),
        (lambda: compile_search_full_input(2, 0), BOUND),
        (lambda: compile_search_full_input(-1, 4), "size must be >= 0"),
        # Only an exact int passes: no float, and no bool, though both compare as numbers.
        (lambda: ArrayInstance((1.0,), 1, 4), "array elements must be integers"),
        (lambda: ArrayInstance((True,), 0, 2), "array elements must be integers"),
        (lambda: ArrayInstance((), 0, True), "bound must be an integer"),
        (lambda: ArrayInstance((1,), 1.0, 4), "target must be an integer"),
        (lambda: ArrayInstance((1,), True, 4), "target must be an integer"),
        (lambda: ArrayInstance((), 0, 4.0), "bound must be an integer"),
        (lambda: compile_search_full_input(True, 4), "size must be an integer"),
        (lambda: compile_search_full_input(2.0, 4), "size must be an integer"),
        (lambda: compile_search_full_input(2, 4.0), "bound must be an integer"),
        (lambda: compile_search_value_input((1,), 4.0), "bound must be an integer"),
        (lambda: compile_search_value_input((1,), True), "bound must be an integer"),
        (lambda: compile_search_value_input((0, False), 4), "array elements must be integers"),
    ],
)
def test_each_broken_range_rule_names_itself(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


class TestDuplicates:
    def test_duplicate_elements_never_false_accept(self):
        for variant in ("a", "b", "c"):
            for n in (2, 3, 4):
                instance = ArrayInstance((1,) * n, 2, 4)
                report, _ = _decide(variant, instance)
                assert report.verdict == "reject", (variant, n)

    def test_duplicate_match_still_accepts(self):
        for variant in ("a", "b", "c"):
            report, _ = _decide(variant, ArrayInstance((2, 2, 2), 2, 4))
            assert report.verdict == "accept", variant


def _assert_within_caps(variant, instance, report):
    caps = get_compiler(f"array-search-{variant}").caps(instance)
    assert report.time <= caps.time, instance
    assert report.neurons <= caps.space, instance
    assert report.energy_payload <= caps.energy, instance


class TestOracleEquivalenceSmall:
    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_exhaustive_small_domain(self, variant):
        values = range(4)
        for length in range(0, 3):
            for elements in itertools.product(values, repeat=length):
                for target in values:
                    instance = ArrayInstance(elements, target, 4)
                    report, _ = _decide(variant, instance)
                    expected = "accept" if contains_target(instance) else "reject"
                    assert report.verdict == expected, instance

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_random_instances(self, variant):
        rng = Random(7)
        for _ in range(100):
            length = rng.randint(0, 10)
            bound = rng.randint(1, 32)
            elements = tuple(rng.randrange(bound) for _ in range(length))
            instance = ArrayInstance(elements, rng.randrange(bound), bound)
            report, _ = _decide(variant, instance)
            expected = "accept" if contains_target(instance) else "reject"
            assert report.verdict == expected, instance
            _assert_within_caps(variant, instance, report)

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_thousand_seeded_random_instances(self, variant):
        rng = Random(1234)
        for _ in range(1000):
            length = rng.randint(0, 16)
            elements = tuple(rng.randrange(64) for _ in range(length))
            instance = ArrayInstance(elements, rng.randrange(64), 64)
            report, _ = _decide(variant, instance)
            expected = "accept" if contains_target(instance) else "reject"
            assert report.verdict == expected, instance
            _assert_within_caps(variant, instance, report)


class TestVerdictTiming:
    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_timing_formula(self, variant):
        rng = Random(11)
        for _ in range(40):
            length = rng.randint(0, 5)
            bound = rng.randint(1, 10)
            elements = tuple(rng.randrange(bound) for _ in range(length))
            instance = ArrayInstance(elements, rng.randrange(bound), bound)
            report, trace = _decide(variant, instance, trace=True)
            verdict_step = trace.steps[-1].t
            if contains_target(instance):
                assert verdict_step == instance.target + 1
            elif variant == "a":
                assert verdict_step == instance.bound + 2
            else:
                assert verdict_step == instance.target + instance.bound + 1


def _with_fresh_detector_fractions(network, n):
    """`network` with the detector's threshold and element weights built anew from n."""
    m = max(n, 1)
    neurons = tuple(
        replace(spec, threshold=Fraction(m + 1, m)) if spec.id == "acc" else spec
        for spec in network.neurons
    )
    synapses = tuple(
        syn._replace(weight=Fraction(1, m)) if syn.post == "acc" and syn.pre != "val" else syn
        for syn in network.synapses
    )
    return replace(network, neurons=neurons, synapses=synapses)


class TestDetectorParameters:
    @pytest.mark.parametrize("sizes", [range(21), range(20, -1, -1)], ids=["up", "down"])
    def test_networks_equal_ones_built_with_fresh_fractions(self, sizes):
        # The detector's weight 1/n and threshold (n+1)/n are shared between
        # compiles of one length; every length must still get its own.
        for n in sizes:
            elements = tuple(j % 4 for j in range(n))
            networks = (
                compile_search_embedded(ArrayInstance(elements, 1, 4)),
                compile_search_value_input(elements, 4).network,
                compile_search_full_input(n, 4).network,
            )
            for network in networks:
                fresh = _with_fresh_detector_fractions(network, n)
                assert network == fresh
                assert serialize_network(network) == serialize_network(fresh)


class TestOneNetwork:
    def test_b_is_c_with_the_elements_bound(self):
        domain = Domain(3, 6)
        for length in range(domain.max_len + 1):
            c = compile_search_full_input(length, domain.max_val).network
            for array in itertools.product(range(domain.max_val), repeat=length):
                b = compile_search_value_input(array, domain.max_val).network
                bound = c.bind_schedules(
                    {f"a{j}": one_shot(value) for j, value in enumerate(array)}
                )
                assert b == bound, array
                assert serialize_network(b) == serialize_network(bound), array


class TestBounds:
    def test_bound_table(self):
        instance = ArrayInstance((1, 2, 3), 0, 8)
        caps = {v: get_compiler(f"array-search-{v}").caps(instance) for v in "abc"}
        assert caps["a"] == ResourceCaps(time=11, space=6, energy=5)
        assert caps["b"] == caps["c"] == ResourceCaps(time=17, space=6, energy=5)

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_every_declared_cap_is_reached_for_each_length(self, variant):
        # Over Domain(3, 4), each length's worst instance meets every cap:
        # none of TIME, SPACE and ENERGY is declared with slack.
        entry = get_compiler(f"array-search-{variant}")
        worst = {}
        for instance in entry.enumerate_domain(Domain(3, 4)):
            report, _ = _decide(variant, instance)
            measured = (report.time, report.neurons, report.energy_payload)
            previous = worst.get(instance.size, (0, 0, 0))
            worst[instance.size] = tuple(map(max, previous, measured))
        for size, measured in worst.items():
            caps = entry.caps(ArrayInstance((0,) * size, 0, 4))
            assert measured == (caps.time, caps.space, caps.energy), size

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_run_cap_covers_the_declared_time(self, variant):
        entry = get_compiler(f"array-search-{variant}")
        domain = Domain(3, 6, random_instances=300)
        rng = Random(5)
        instances = list(entry.enumerate_domain(domain))
        instances += [entry.sample(rng, domain) for _ in range(domain.random_instances)]
        for instance in instances:
            assert entry.step_limit(instance) >= entry.caps(instance).time, instance


class TestCallTimeLookup:
    """The registered entries reach the compilers through the module's globals.

    Wrappers installed on `snnkit.arraysearch` (profilers, tracers) must see
    every compile call made through the registry.
    """

    COMPILERS = {
        "a": "compile_search_embedded",
        "b": "compile_search_value_input",
        "c": "compile_search_full_input",
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in self.COMPILERS.values():
            def wrapper(*args, _name=name, _original=getattr(arraysearch, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(arraysearch, name, wrapper)
        return calls

    @staticmethod
    def _expected(variant):
        return [TestCallTimeLookup.COMPILERS[variant]]

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_build(self, calls, variant):
        get_compiler(f"array-search-{variant}").build(ArrayInstance((1, 2), 2, 4), NetworkBuilder())
        assert calls == self._expected(variant)

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_verify_equivalence(self, calls, variant):
        report = verify_equivalence(f"array-search-{variant}", Domain(max_len=0, max_val=1))
        assert report.checked == 1 and not report.mismatches
        assert calls == self._expected(variant)

    @pytest.mark.parametrize("variant", ("a", "b", "c"))
    def test_compile_from_flags(self, calls, variant):
        flags = COMPILE_FLAGS.parse_args(
            ["--variant", variant, "--array", "1,2", "--target", "2", "--bound", "4"]
        )
        compile_from_flags("array-search", flags)
        assert calls == self._expected(variant)

    def test_every_array_search_entry_is_covered(self):
        names = {name for name in registered_compilers() if name.startswith("array-search-")}
        assert names == {f"array-search-{variant}" for variant in self.COMPILERS}
