import hashlib
from dataclasses import astuple, replace
from fractions import Fraction
from random import Random

import pytest

from snnkit import harness
from snnkit.arraysearch import (
    VARIANTS,
    ArrayInstance,
    compile_search_value_input,
    contains_target,
)
from snnkit.engine import RunLimits, run
from snnkit.gadgets import make_constant_firer, merge
from snnkit.harness import (
    ACCEPTED,
    PROMISE_VIOLATED,
    REJECTED,
    CompiledStructure,
    Domain,
    GeneratorCost,
    Instrument,
    Mismatch,
    MismatchReport,
    ResourceBound,
    ResourceBounds,
    ResourceCaps,
    generate_and_decide,
    get_compiler,
    composed_build,
    network_halting_oracle,
    register_compiler,
    registered_compilers,
    verify_equivalence,
)
from snnkit.model import NetworkBuilder, PeriodicSchedule, one_shot
from snnkit.randnet import random_network


def _uniform(make):
    """ResourceBounds holding `make(resource)` in each of its three slots."""
    return ResourceBounds(*(make(name) for name in ("time", "space", "energy")))


class TestResourceBound:
    def test_constant(self):
        bounds = _uniform(lambda name: ResourceBound.constant(5, name))
        assert bounds.time == ResourceBound("time", 5, 0)
        assert bounds.caps(0) == bounds.caps(100) == ResourceCaps(5, 5, 5)

    def test_linear(self):
        bounds = _uniform(lambda name: ResourceBound.linear(2, 3, name))
        assert bounds.energy == ResourceBound("energy", 3, 2)
        assert bounds.caps(0) == ResourceCaps(3, 3, 3)
        assert bounds.caps(4) == ResourceCaps(11, 11, 11)

    def test_fractional_coefficients(self):
        b = ResourceBound.linear(Fraction(1, 2), 1, "time")
        assert (b.intercept, b.slope) == (1, Fraction(1, 2))
        assert type(b.intercept) is type(b.slope) is Fraction

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ResourceBound.linear(0.1, 1, "time"),
            lambda: ResourceBound.constant(2.0, "space"),
            lambda: ResourceBound("time", 1, 0.25),
            lambda: ResourceBound("space", 0.5, 0),
            lambda: ResourceBound.linear(1, 0.5, "energy"),
        ],
    )
    def test_rejects_floats_like_the_builder(self, make):
        with pytest.raises(TypeError, match="exact rational"):
            make()

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            ResourceBound.linear(-1, 0, "time")

    def test_rejects_negative_intercept(self):
        with pytest.raises(ValueError, match=">= 0"):
            ResourceBound.constant(-3, "time")

    def test_reads_rational_strings_like_the_builder(self):
        b = ResourceBound.linear("1/2", "3", "space")
        assert (b.intercept, b.slope) == (3, Fraction(1, 2))

    def test_caps_floor_across_denominators(self):
        # 2/3 + n/3: whole at n = 1 and 4, so the floor must not fall one short there.
        bounds = _uniform(lambda name: ResourceBound.linear(Fraction(1, 3), Fraction(2, 3), name))
        assert [bounds.caps(n).time for n in range(5)] == [0, 1, 1, 1, 2]

    def test_caps_stay_exact_at_large_sizes(self):
        n = 10**18 + 3
        bounds = _uniform(lambda name: ResourceBound.linear(Fraction(1, 7), Fraction(6, 7), name))
        assert bounds.caps(n) == ResourceCaps(*[(n + 6) // 7] * 3)

    def test_rejects_unknown_resource(self):
        with pytest.raises(ValueError):
            ResourceBound.constant(1, "luck")

    @pytest.mark.parametrize("slot,other", [("time", "energy"), ("space", "time"), ("energy", "space")])
    def test_bounds_refuse_a_bound_declared_for_another_slot(self, slot, other):
        slots = {name: ResourceBound.constant(5, name) for name in ("time", "space", "energy")}
        slots[slot] = ResourceBound.constant(5, other)
        with pytest.raises(ValueError, match=f"{slot} bound is declared for {other}"):
            ResourceBounds(**slots)

    def test_negative_size_names_itself(self):
        with pytest.raises(ValueError) as error:
            _uniform(lambda name: ResourceBound.constant(1, name)).caps(-1)
        assert str(error.value) == "input size must be >= 0"

    @pytest.mark.parametrize(
        "measured, over",
        [
            ((5, 4, 3), ()),
            ((0, 0, 0), ()),
            ((6, 4, 3), ("time",)),
            ((5, 5, 3), ("space",)),
            ((5, 4, 4), ("energy",)),
            ((6, 5, 4), ("time", "space", "energy")),
            ((6, 4, 4), ("time", "energy")),
        ],
    )
    def test_exceeded_names_the_resources_over_their_caps(self, measured, over):
        assert ResourceCaps(time=5, space=4, energy=3).exceeded(*measured) == over

    def test_caps_floor(self):
        bounds = ResourceBounds(
            time=ResourceBound.linear(Fraction(1, 2), 1, "time"),
            space=ResourceBound.constant(4, "space"),
            energy=ResourceBound.constant(Fraction(7, 2), "energy"),
        )
        caps = bounds.caps(3)
        assert caps == ResourceCaps(time=2, space=4, energy=3)


def _fig_bounds(bound):
    # time n + V + 3, space n + 3, energy n + 2 (as functions of n)
    return ResourceBounds(
        time=ResourceBound.linear(1, bound + 3, "time"),
        space=ResourceBound.linear(1, 3, "space"),
        energy=ResourceBound.linear(1, 2, "energy"),
    )


class TestGenerateAndDecide:
    def test_within_bounds(self):
        instance = ArrayInstance((3, 5, 7), 5, 8)
        decision = generate_and_decide("array-search-a", instance, _fig_bounds(8))
        assert decision.verdict == "accept"
        assert decision.violations == ()
        assert decision.size == 3
        assert decision.caps.time == 14

    def test_energy_bound_violation_flagged_not_fatal(self):
        instance = ArrayInstance((3, 5, 7), 4, 8)  # reject path spends n + 2
        bounds = ResourceBounds(
            time=ResourceBound.linear(1, 11, "time"),
            space=ResourceBound.linear(1, 3, "space"),
            energy=ResourceBound.linear(1, 1, "energy"),  # n + 1: one too few
        )
        decision = generate_and_decide("array-search-a", instance, bounds)
        assert decision.verdict == "reject"
        assert decision.violations == ("energy",)

    def test_space_bound_violation_flagged_not_fatal(self):
        instance = ArrayInstance((3, 5, 7), 5, 8)
        bounds = replace(_fig_bounds(8), space=ResourceBound.linear(1, 2, "space"))  # n + 3 used
        decision = generate_and_decide("array-search-a", instance, bounds)
        assert decision.verdict == "accept"
        assert decision.violations == ("space",)

    def test_constant_generator_has_constant_cost(self):
        costs = set()
        for instance in (ArrayInstance((), 0, 1), ArrayInstance((1, 2, 3), 2, 4)):
            decision = generate_and_decide(
                "constant-accept",
                instance,
                ResourceBounds(
                    time=ResourceBound.constant(2, "time"),
                    space=ResourceBound.constant(1, "space"),
                    energy=ResourceBound.constant(1, "energy"),
                ),
            )
            assert decision.verdict == "accept"
            costs.add(decision.cost)
        assert len(costs) == 1

    def test_constant_accept_reaches_its_caps(self):
        # Its one run measures exactly the caps it declares, so a cap one
        # lower on any resource is reported.
        entry = get_compiler("constant-accept")
        instance = ArrayInstance((1, 2, 3), 2, 4)
        caps = entry.caps(instance)
        network = entry.build(instance, NetworkBuilder())
        report = run(network, RunLimits(max(caps.time, 1) + 2)).report
        measured = (report.time, report.neurons, report.energy_payload)
        assert report.verdict == "accept"
        assert caps == ResourceCaps(1, 1, 1) and measured == (1, 1, 1)
        assert caps.exceeded(*measured) == ()
        for resource in ("time", "space", "energy"):
            lower = replace(caps, **{resource: getattr(caps, resource) - 1})
            assert lower.exceeded(*measured) == (resource,)

    def test_generator_cost_counts_ops(self):
        instance = ArrayInstance((3, 5), 1, 8)
        decision = generate_and_decide("array-search-a", instance, _fig_bounds(8))
        cost = decision.cost
        assert cost.peak_neurons == 5  # 2 elements + value + detector + reject
        assert cost.peak_synapses == 5
        assert cost.builder_ops >= cost.peak_neurons + cost.peak_synapses

    def test_timer_instrumentation_forces_reject_on_time_overrun(self):
        instance = ArrayInstance((3,), 2, 8)  # would reject at V+2 = 10
        bounds = ResourceBounds(
            time=ResourceBound.constant(5, "time"),  # too tight
            space=ResourceBound.constant(10, "space"),
            energy=ResourceBound.constant(10, "energy"),
        )
        plain = generate_and_decide("array-search-a", instance, bounds)
        assert plain.verdict == "timeout"
        timed = generate_and_decide(
            "array-search-a", instance, bounds, Instrument(timer=True)
        )
        assert timed.verdict == "reject"
        assert timed.report.time <= 5 + 1
        assert "time" in timed.violations

    def test_meter_instrumentation_blocks_over_budget_accept(self):
        instance = ArrayInstance((0, 1, 2, 3), 3, 4)  # accepts at step 4
        bounds = ResourceBounds(
            time=ResourceBound.constant(12, "time"),
            space=ResourceBound.constant(10, "space"),
            energy=ResourceBound.constant(2, "energy"),  # too tight
        )
        plain = generate_and_decide("array-search-a", instance, bounds)
        assert plain.verdict == "accept"
        assert "energy" in plain.violations
        metered = generate_and_decide(
            "array-search-a", instance, bounds, Instrument(meter=True)
        )
        assert metered.verdict != "accept"

    def test_unknown_compiler(self):
        with pytest.raises(KeyError):
            generate_and_decide("nope", None, _fig_bounds(2))


def _caps(time, space, energy):
    return ResourceCaps(time=time, space=space, energy=energy)


class TestOracle:
    def test_trivial_accept(self, trivial_accept_network):
        answer = network_halting_oracle(trivial_accept_network, _caps(2, 2, 2))
        assert answer.outcome == ACCEPTED
        assert answer.report.verdict == "accept"

    def test_timeout_is_promise_violation(self):
        firer = make_constant_firer("c")
        builder = NetworkBuilder()
        builder.add_neuron("acc", threshold=100)
        unreachable = builder.build()
        net = merge([firer, unreachable], accept="acc")
        answer = network_halting_oracle(net, _caps(10, 10, 100))
        assert answer.outcome == PROMISE_VIOLATED
        assert answer.report.verdict == "timeout"

    def test_variant_b_with_inputs(self):
        compiled = compile_search_value_input((3, 5, 7), 8)
        answer = network_halting_oracle(
            compiled.bind({"val": one_shot(5)}),
            _caps(20, 6, 6),
        )
        assert answer.outcome == ACCEPTED
        assert answer.report.energy_payload <= 3 + 3

    def test_rejected(self):
        compiled = compile_search_value_input((3,), 8)
        answer = network_halting_oracle(
            compiled.bind({"val": one_shot(4)}),
            _caps(20, 6, 6),
        )
        assert answer.outcome == REJECTED

    def test_negative_energy_cap_is_violated_without_a_run(self, trivial_accept_network):
        answer = network_halting_oracle(trivial_accept_network, _caps(2, 2, -1))
        assert answer.outcome == PROMISE_VIOLATED
        assert (answer.report.time, answer.report.energy) == (0, 0)

    def test_unmeetable_space_cap_is_violated_without_a_run(self):
        # SPACE is static: a network larger than its space cap never keeps
        # the promise, however long it would run.
        builder = NetworkBuilder()
        builder.add_input("acc", [0])
        builder.add_input("other", [0])
        builder.set_accept("acc")
        answer = network_halting_oracle(builder.build(), _caps(50, 1, 50))
        assert answer.outcome == PROMISE_VIOLATED
        assert (answer.report.time, answer.report.energy) == (0, 0)
        assert answer.report.neurons == 2

    def test_space_violation(self, trivial_accept_network):
        answer = network_halting_oracle(trivial_accept_network, _caps(2, 0, 2))
        assert answer.outcome == PROMISE_VIOLATED

    def test_energy_violation_even_with_verdict(self):
        builder = NetworkBuilder()
        builder.add_input("noise", [0])
        builder.add_input("acc", [1])
        builder.set_accept("acc")
        net = builder.build()
        assert network_halting_oracle(net, _caps(4, 4, 2)).outcome == ACCEPTED
        assert network_halting_oracle(net, _caps(4, 4, 1)).outcome == PROMISE_VIOLATED

    def test_zero_time_cap(self, trivial_accept_network):
        answer = network_halting_oracle(trivial_accept_network, _caps(0, 5, 5))
        assert answer.outcome == PROMISE_VIOLATED
        assert answer.report.time == 0

    def test_ambiguous_is_promise_violation(self):
        builder = NetworkBuilder()
        builder.add_input("a", [0])
        builder.add_input("r", [0])
        builder.set_accept("a")
        builder.set_reject("r")
        answer = network_halting_oracle(builder.build(), _caps(5, 5, 5))
        assert answer.outcome == PROMISE_VIOLATED

    def test_charged_cost_never_exceeds_time_cap(self):
        for seed in range(30):
            net = random_network(seed, max_neurons=10, max_synapses=25)
            for cap in (1, 3, 10):
                answer = network_halting_oracle(net, _caps(cap, 100, 1000))
                assert answer.report.time <= cap

    def test_consistency_with_direct_run(self):
        for seed in range(30):
            net = random_network(seed, max_neurons=10, max_synapses=25)
            report, _ = run(net, RunLimits(50))
            answer = network_halting_oracle(net, _caps(50, 100, 10_000))
            if answer.outcome == ACCEPTED:
                assert report.verdict == "accept"
            elif answer.outcome == REJECTED:
                assert report.verdict == "reject"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_declared_caps_keep_the_oracle_promise(self, variant):
        # A compiler's declared caps are a promise its networks keep, so the
        # oracle answers every instance under them.
        entry = get_compiler(f"array-search-{variant}")
        for instance in entry.enumerate_domain(Domain(2, 4)):
            network = entry.build(instance, NetworkBuilder())
            answer = network_halting_oracle(network, entry.caps(instance))
            assert answer.outcome == (ACCEPTED if contains_target(instance) else REJECTED), instance

    def test_promise_monotonicity(self):
        # Loosening every cap never flips accepted <-> rejected; it can only
        # turn promise_violated into a definite answer.
        definite = {ACCEPTED, REJECTED}
        for seed in range(40):
            net = random_network(seed, max_neurons=10, max_synapses=25)
            tight = network_halting_oracle(net, _caps(5, 8, 6))
            loose = network_halting_oracle(net, _caps(25, 80, 600))
            if tight.outcome in definite:
                assert loose.outcome == tight.outcome


def _per_instance_report(compiler, domain, seed):
    """verify_equivalence as a plain loop: build, plan and run every instance."""
    entry = get_compiler(compiler)
    instances = list(entry.enumerate_domain(domain))
    rng = Random(seed)
    instances += [entry.sample(rng, domain) for _ in range(domain.random_instances)]
    mismatches, bound_violations = [], []
    for instance in instances:
        network = entry.build(instance, NetworkBuilder())
        caps = entry.caps(instance)
        report = run(network, RunLimits(max_steps=max(caps.time, 1) + 2), validate=False).report
        expected = entry.reference(instance)
        if report.verdict != ("accept" if expected else "reject"):
            mismatches.append(Mismatch(instance, report.verdict, expected))
        if (
            report.time > caps.time
            or report.neurons > caps.space
            or report.energy_payload > caps.energy
        ):
            bound_violations.append(instance)
    return MismatchReport(len(instances), tuple(mismatches), tuple(bound_violations), ())


class TestCheckPorts:
    def _structure(self, *ports):
        builder = NetworkBuilder()
        for name in ports:
            builder.add_input(name, [])
        builder.add_neuron("acc")
        builder.set_accept("acc")
        return CompiledStructure(builder.build(), ports)

    def test_exact_ports_pass(self):
        self._structure("p", "q").check_ports({"q": [1], "p": [0]})
        self._structure().check_ports({})

    @pytest.mark.parametrize(
        "schedules, message",
        [
            ({"p": [0], "q": [1], "z": [2], "y": [3]}, "unknown input ports: ['y', 'z']"),
            ({"q": [1]}, "ports left unbound: ['p']"),
            ({}, "ports left unbound: ['p', 'q']"),
            # Unknown names are reported before missing ones.
            ({"z": [0], "a": [1]}, "unknown input ports: ['a', 'z']"),
        ],
        ids=["extra", "missing", "none", "extra-and-missing"],
    )
    def test_mismatched_ports_are_named_sorted(self, schedules, message):
        with pytest.raises(ValueError) as excinfo:
            self._structure("p", "q").check_ports(schedules)
        assert str(excinfo.value) == message

    def test_no_ports_refuse_any_schedule(self):
        with pytest.raises(ValueError) as excinfo:
            self._structure().check_ports({"p": [0]})
        assert str(excinfo.value) == "unknown input ports: ['p']"


class TestVerifyEquivalence:
    @pytest.fixture(autouse=True)
    def _own_registry(self, monkeypatch):
        # Entries a test registers stay out of every other test's registry.
        monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))

    def test_variant_a_exhaustive_small(self):
        report = verify_equivalence("array-search-a", Domain(max_len=3, max_val=4))
        assert report.checked == (1 + 4 + 16 + 64) * 4
        assert report.mismatches == ()
        assert report.bound_violations == ()

    def test_random_sampling_included(self):
        report = verify_equivalence(
            "array-search-b",
            Domain(max_len=1, max_val=2, random_instances=25,
                   random_max_len=8, random_max_val=16),
            seed=3,
        )
        assert report.checked == (1 + 2) * 2 + 25
        assert report.mismatches == ()

    def test_variant_c_five_hundred_random(self):
        report = verify_equivalence(
            "array-search-c",
            Domain(max_len=0, max_val=1, random_instances=500),
            seed=17,
        )
        assert report.checked == 501
        assert report.mismatches == ()
        assert report.bound_violations == ()
        assert report.inequality_violations == ()

    @pytest.mark.parametrize(
        "bounds",
        [
            {"max_len": -1, "max_val": 3},
            {"max_len": 1, "max_val": 0},
            {"max_len": 1, "max_val": 2, "random_instances": -1},
            {"max_len": 1, "max_val": 2, "random_max_len": -1},
            {"max_len": 1, "max_val": 2, "random_max_val": 0},
            # Every field is an int: a bool or a float is refused, not swept.
            {"max_len": 2, "max_val": 2.5},
            {"max_len": 2, "max_val": 4, "random_instances": 1.5},
            {"max_len": True, "max_val": 4},
            {"max_len": 2, "max_val": 4, "random_instances": True},
            {"max_len": 2, "max_val": 4, "random_max_len": 4.0},
            {"max_len": 2, "max_val": 4, "random_max_val": True},
        ],
    )
    def test_empty_or_malformed_domain_rejected(self, bounds):
        with pytest.raises(ValueError):
            Domain(**bounds)

    def test_domain_names_the_field_of_another_type(self):
        with pytest.raises(ValueError, match="random_instances must be an integer, not 1.5"):
            Domain(2, 4, random_instances=1.5)

    def test_corrupted_compiler_is_caught(self):
        # Lowering the detector threshold to 1 lets duplicate elements alone
        # cross it: a mutation the sweep must flag.
        entry = get_compiler("array-search-a")

        def corrupted_compile(instance):
            compiled = entry.compile(instance)
            neurons = tuple(
                spec if spec.id != "acc" else replace(spec, threshold=Fraction(1))
                for spec in compiled.network.neurons
            )
            return replace(compiled, network=replace(compiled.network, neurons=neurons))

        register_compiler(
            replace(
                entry,
                name="array-search-a-corrupted",
                build=composed_build(entry.split, corrupted_compile),
                compile=corrupted_compile,
                from_flags=None,
            )
        )
        report = verify_equivalence("array-search-a-corrupted", Domain(max_len=3, max_val=4))
        assert len(report.mismatches) > 0
        assert any(
            len(set(m.instance.elements)) < len(m.instance.elements)
            for m in report.mismatches
        )

    def test_entry_without_domain_enumeration_is_refused(self):
        with pytest.raises(ValueError, match="'constant-accept' does not support domain enumeration"):
            verify_equivalence("constant-accept", Domain(1, 2))

    def test_random_instances_need_a_sampler(self):
        entry = replace(get_compiler("array-search-b"), name="array-search-b-unsampled", from_flags=None)
        register_compiler(replace(entry, sample=None))
        with pytest.raises(ValueError, match="'array-search-b-unsampled' does not support random sampling"):
            verify_equivalence("array-search-b-unsampled", Domain(1, 2, random_instances=1))

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_swept_report_equals_per_instance_loop(self, variant):
        domain = Domain(max_len=3, max_val=4, random_instances=25, random_max_len=6, random_max_val=9)
        name = f"array-search-{variant}"
        assert verify_equivalence(name, domain, seed=2) == _per_instance_report(name, domain, seed=2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_limits_are_shared_only_between_equal_values(self, variant):
        # Each instance's TIME cap is declared so that its run cap, two steps
        # past it, is exactly the step count of its verdict; a sweep that ran
        # one instance under another's cap would time it out.
        def steps(instance):
            if contains_target(instance):
                return instance.target + 2  # accept at i + 1
            if variant == "a":
                return instance.bound + 3  # reject at V + 2
            return instance.target + instance.bound + 2  # reject at i + V + 1

        entry = get_compiler(f"array-search-{variant}")
        for name, slack in (("tight", 2), ("short", 3)):
            def caps(instance, slack=slack):
                return replace(entry.caps(instance), time=steps(instance) - slack)

            register_compiler(replace(entry, name=name, caps=caps, from_flags=None))
        domain = Domain(max_len=2, max_val=4, random_instances=10, random_max_len=4, random_max_val=9)
        report = verify_equivalence("tight", domain, seed=1)
        assert report == _per_instance_report("tight", domain, seed=1)
        assert report.checked == 94 and report.mismatches == ()
        # A TIME cap below 1 still gives a 3-step run, so only the
        # instances that need more than 3 steps time out one cap short.
        short = verify_equivalence("short", domain, seed=1)
        assert short == _per_instance_report("short", domain, seed=1)
        rng = Random(1)
        instances = list(entry.enumerate_domain(domain))
        instances += [entry.sample(rng, domain) for _ in range(domain.random_instances)]
        assert [m.instance for m in short.mismatches] == [i for i in instances if steps(i) > 3]
        assert 0 < len(short.mismatches) < short.checked
        assert {m.network_verdict for m in short.mismatches} == {"timeout"}

    def test_step_limit_of_the_wrong_type_fails_after_an_equal_int(self):
        entry = get_compiler("array-search-b")

        def caps(instance):
            declared = entry.caps(instance)
            return replace(declared, time=float(declared.time)) if instance.target == 1 else declared

        register_compiler(replace(entry, name="float-cap", caps=caps, from_flags=None))
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            verify_equivalence("float-cap", Domain(max_len=0, max_val=2))

    def test_corrupted_split_compiler_is_caught_through_reuse(self):
        # The same mutation in a compiler whose structures the sweep reuses:
        # the swept report must still equal one built instance by instance.
        entry = get_compiler("array-search-c")

        def corrupted_compile(size, bound):
            compiled = entry.compile(size, bound)
            neurons = tuple(
                spec if spec.id != "acc" else type(spec)(spec.id, 1, spec.reset, spec.leak)
                for spec in compiled.network.neurons
            )
            return replace(compiled, network=replace(compiled.network, neurons=neurons))

        register_compiler(
            replace(
                entry,
                name="array-search-c-corrupted",
                build=composed_build(entry.split, corrupted_compile),
                compile=corrupted_compile,
            )
        )
        domain = Domain(max_len=3, max_val=4, random_instances=25, random_max_len=6, random_max_val=9)
        report = verify_equivalence("array-search-c-corrupted", domain)
        assert len(report.mismatches) > 0
        # Element spikes alone now reach the threshold: only false accepts.
        assert all(m.network_verdict == "accept" and not m.reference for m in report.mismatches)
        assert report == _per_instance_report("array-search-c-corrupted", domain, seed=0)

    def test_split_that_drops_a_port_is_refused(self):
        entry = get_compiler("array-search-c")

        def split(instance):
            args, schedules = entry.split(instance)
            return args, {name: sched for name, sched in schedules.items() if name != "val"}

        register_compiler(replace(entry, name="array-search-c-portless", split=split, from_flags=None))
        with pytest.raises(ValueError) as excinfo:
            verify_equivalence("array-search-c-portless", Domain(max_len=1, max_val=2))
        assert str(excinfo.value) == "ports left unbound: ['val']"

    @pytest.mark.parametrize("resource", ["time", "space", "energy"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_declared_cap_one_too_low_is_reported(self, variant, resource):
        entry = get_compiler(f"array-search-{variant}")

        def caps(instance):
            declared = entry.caps(instance)
            return replace(declared, **{resource: getattr(declared, resource) - 1})

        register_compiler(replace(entry, name="tight", caps=caps, from_flags=None))
        domain = Domain(max_len=3, max_val=4)
        assert verify_equivalence(entry.name, domain).bound_violations == ()
        report = verify_equivalence("tight", domain)
        assert report.mismatches == ()
        assert len(report.bound_violations) > 0
        assert report == _per_instance_report("tight", domain, seed=0)

    def test_registry_lists_array_search(self):
        names = registered_compilers()
        assert {"array-search-a", "array-search-b", "array-search-c"} <= set(names)


class TestGeneratorCost:
    def test_counts(self):
        builder = NetworkBuilder()
        builder.add_neuron("n")
        builder.add_input("p", [0, 1, 2])
        builder.add_input("q", [])
        builder.add_synapse("p", "n")
        cost = GeneratorCost.of(builder.build())
        assert cost.peak_neurons == 3
        assert cost.peak_synapses == 1
        # 3 declarations + 3 scheduled spikes + 1 synapse
        assert cost.builder_ops == 7
        assert cost.builder_ops >= cost.peak_neurons + cost.peak_synapses

    def test_periodic_schedule_counts_one_spike(self):
        builder = NetworkBuilder()
        builder.add_input("p", PeriodicSchedule(offset=1, period=2))
        assert GeneratorCost.of(builder.build()) == GeneratorCost(2, 1, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_add_network_costs_what_its_adds_cost(self, seed):
        network = random_network(seed)
        whole = NetworkBuilder()
        whole.add_neuron("first")
        whole.add_network(network)
        piecewise = NetworkBuilder()
        piecewise.add_neuron("first")
        for spec in network.neurons:
            piecewise.add_neuron(spec.id, spec.threshold, spec.reset, spec.leak)
        for name, sched in network.programmed.items():
            piecewise.add_input(name, sched)
        for syn in network.synapses:
            piecewise.add_synapse(syn.pre, syn.post, syn.delay, syn.weight)
        whole_network = whole.build(validate=False)
        piecewise_network = piecewise.build(validate=False)
        assert GeneratorCost.of(whole_network) == GeneratorCost.of(piecewise_network)
        assert whole_network == piecewise_network

    def test_adds_that_raise_cost_nothing(self):
        builder = NetworkBuilder()
        builder.add_neuron("n")
        with pytest.raises(ValueError):
            builder.add_neuron("n")
        with pytest.raises(TypeError):
            builder.add_input("p", 5)
        with pytest.raises(TypeError):
            builder.add_synapse("n", "n", weight=0.5)
        network = builder.build()
        assert network.size() == 1
        assert GeneratorCost.of(network) == GeneratorCost(builder_ops=1, peak_neurons=1, peak_synapses=0)

    def test_array_search_costs_are_pinned(self):
        # GeneratorCost is a reported resource: hash it for every instance
        # of Domain(2, 4), built alone and through a metered decide.
        digest = hashlib.sha256()
        count = 0
        instrument = Instrument(timer=True, meter=True)
        for variant in VARIANTS:
            entry = get_compiler(f"array-search-{variant}")
            for instance in entry.enumerate_domain(Domain(max_len=2, max_val=4)):
                built = GeneratorCost.of(entry.build(instance, NetworkBuilder()))
                decision = generate_and_decide(
                    entry.name, instance, _fig_bounds(instance.bound), instrument
                )
                for cost in (built, decision.cost):
                    digest.update(repr(astuple(cost)).encode())
                count += 1
        assert count == 3 * 84
        assert digest.hexdigest() == "289938055d33a1d7f0ca82b069ed76c866b6db41b0a39ca3450bcd3bf1df4b2a"
