import itertools
from random import Random

import pytest

from snnkit import arraysearch
from snnkit.arraysearch import (
    ArrayInstance,
    compile_search_full_input,
    compile_search_value_input,
    contains_target,
    encode_input,
    expected_accept_step,
    expected_reject_step,
    payload_energy_bound,
    step_limit,
)
from snnkit.engine import RunLimits, run
from snnkit.harness import (
    COMPILE_FLAGS,
    Domain,
    compile_from_flags,
    get_compiler,
    registered_compilers,
    verify_equivalence,
)
from snnkit.model import NetworkBuilder, one_shot


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
            assert trace.steps[-1].t == expected_accept_step(instance)


class TestVariantB:
    def test_member_accepts(self):
        compiled = compile_search_value_input((3, 5, 7), 8)
        network = compiled.bind(encode_input("b", bound=8, target=5))
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
            network = compiled.bind(encode_input("b", bound=8, target=target))
            verdicts.append(run(network, RunLimits(step_limit("b", 8))).report.verdict)
        assert verdicts == ["accept", "reject"]

    def test_all_value_inputs_reusable(self):
        elements = (1, 4)
        bound = 6
        compiled = compile_search_value_input(elements, bound)
        for target in range(bound):
            network = compiled.bind(encode_input("b", bound=bound, target=target))
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


class TestEncodeInput:
    def test_variant_b_single_spike(self):
        assert encode_input("b", bound=8, target=5) == {"val": one_shot(5)}

    def test_variant_c_all_zero(self):
        schedules = encode_input("c", bound=4, target=0, elements=(0, 0))
        assert schedules == {"a0": one_shot(0), "a1": one_shot(0), "val": one_shot(0)}

    def test_arity_mismatch_rejected_at_bind(self):
        compiled = compile_search_full_input(3, 8)
        schedules = encode_input("c", bound=8, target=1, elements=(1, 2))
        with pytest.raises(ValueError, match="unbound"):
            compiled.bind(schedules)
        extra = encode_input("c", bound=8, target=1, elements=(1, 2, 3, 4))
        with pytest.raises(ValueError, match="unknown"):
            compiled.bind(extra)

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            encode_input("b", bound=8, target=8)
        with pytest.raises(ValueError):
            encode_input("c", bound=4, target=0, elements=(4,))


BOUND = "bound must be >= 1"
TARGET = "target must satisfy 0 <= target < bound"
ELEMENT = "array elements must satisfy 0 <= element < bound"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ArrayInstance((1,), 0, 0), BOUND),
        (lambda: ArrayInstance((1,), 4, 4), TARGET),
        (lambda: ArrayInstance((1, -1), 0, 4), ELEMENT),
        (lambda: compile_search_value_input((1,), 0), BOUND),
        (lambda: compile_search_value_input((1, 4), 4), ELEMENT),
        (lambda: compile_search_full_input(2, 0), BOUND),
        (lambda: encode_input("b", bound=4, target=-1), TARGET),
        (lambda: encode_input("c", bound=4, target=4, elements=(1,)), TARGET),
        (lambda: encode_input("c", bound=4, target=0, elements=(1, 4)), ELEMENT),
        (lambda: compile_search_full_input(-1, 4), "size must be >= 0"),
        (lambda: encode_input("b", bound=4, target=1, elements=(1,)),
         "variant b encodes exactly the target value"),
        (lambda: encode_input("c", bound=4, target=1),
         "variant c encodes the elements and the target value"),
        (lambda: encode_input("a", bound=4, target=1), "no input encoding for variant 'a'"),
        (lambda: payload_energy_bound("d", 1), "unknown variant 'd'"),
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
            assert report.energy_payload <= payload_energy_bound(variant, length)

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
            assert report.energy_payload <= payload_energy_bound(variant, length)


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
                assert verdict_step == expected_accept_step(instance)
            else:
                assert verdict_step == expected_reject_step(variant, instance)


class TestBounds:
    def test_bound_table(self):
        assert payload_energy_bound("a", 3) == 5
        assert payload_energy_bound("b", 3) == 6
        assert payload_energy_bound("c", 3) == 8


class TestCallTimeLookup:
    """The registered entries reach the compilers through the module's globals.

    Wrappers installed on `snnkit.arraysearch` (profilers, tracers) must see
    every compile and encode call made through the registry.
    """

    COMPILERS = {
        "a": "compile_search_embedded",
        "b": "compile_search_value_input",
        "c": "compile_search_full_input",
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in (*self.COMPILERS.values(), "encode_input"):
            def wrapper(*args, _name=name, _original=getattr(arraysearch, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(arraysearch, name, wrapper)
        return calls

    @staticmethod
    def _expected(variant):
        compiler = TestCallTimeLookup.COMPILERS[variant]
        return [compiler] if variant == "a" else ["encode_input", compiler]

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
