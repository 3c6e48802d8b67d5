"""The compiler registry drives the command line and the host language.

CLI `compile`/`verify` and the host `compile` statement resolve
`<problem> --variant <v>` to the registered `<problem>-<v>` entry and build
through its `from_flags` and `compile`, so the two front-ends and the
entry's own `build` must agree on every network.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit import harness
from snnkit.arraysearch import ArrayInstance
from snnkit.cli import main
from snnkit.harness import (
    CompiledStructure,
    CompilerEntry,
    Domain,
    composed_build,
    get_compiler,
    register_compiler,
    registered_compilers,
)
from snnkit.hostprog import HostProgramError, build_compiled_network, host_run
from snnkit.model import ExplicitSchedule, Network, NetworkBuilder, one_shot
from snnkit.snnfmt import parse_network, parse_port_bindings


def _cli_network(problem, flags, directory):
    """Run CLI `compile`; return its exit code and the written network bound with its sidecar.

    A sidecar is asked for only when the flags give a target to bind.
    """
    out = directory / "net.snn"
    sidecar = directory / "net.in"
    out.unlink(missing_ok=True)
    sidecar.unlink(missing_ok=True)
    targeted = any(flag.startswith("--target") for flag in flags)
    sidecar_flags = ["--inputs-out", str(sidecar)] if targeted else []
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["compile", problem, *flags, "--output", str(out), *sidecar_flags])
    if code != 0:
        return code, None
    network = parse_network(out.read_text())
    if sidecar.exists():
        network = network.bind_schedules(parse_port_bindings(sidecar.read_text()))
    return code, network


# (variant, flags after --variant, the instance the flags name or None)
FRONT_END_CASES = [
    ("a", ("--array", "1,2", "--target", "2", "--bound", "4"), ArrayInstance((1, 2), 2, 4)),
    ("a", ("--target", "0", "--bound", "3"), ArrayInstance((), 0, 3)),
    ("a", ("--array", "3,1", "--size", "2", "--target", "0", "--bound", "4"),
     ArrayInstance((3, 1), 0, 4)),
    ("b", ("--array", "3,5,7", "--target", "5", "--bound", "8"), ArrayInstance((3, 5, 7), 5, 8)),
    ("b", ("--array", "3,5,7", "--bound", "8"), None),
    ("b", ("--bound", "2"), None),
    ("c", ("--array", "1,2", "--target", "0", "--bound", "4"), ArrayInstance((1, 2), 0, 4)),
    ("c", ("--array", "1,2", "--size", "2", "--target", "2", "--bound", "4"),
     ArrayInstance((1, 2), 2, 4)),
    ("c", ("--array", "1,2", "--bound", "4"), None),
    ("c", ("--array", "1,2", "--size", "2", "--bound", "4"), None),
    ("c", ("--size", "3", "--bound", "4"), None),
    ("c", ("--target", "1", "--bound", "4"), ArrayInstance((), 1, 4)),
    ("a", ("--array", "1,2", "--target=2", "--bound", "4"), ArrayInstance((1, 2), 2, 4)),
]


@pytest.mark.parametrize("variant,flags,instance", FRONT_END_CASES)
def test_front_ends_agree(variant, flags, instance, tmp_path):
    flags = ("--variant", variant, *flags)
    host = build_compiled_network("array-search", flags).network
    code, cli = _cli_network("array-search", flags, tmp_path)
    assert code == 0
    assert cli == host
    if instance is not None:
        built = get_compiler(f"array-search-{variant}").build(instance, NetworkBuilder())
        assert host == built
    else:
        assert any(
            isinstance(s, ExplicitSchedule) and not s.times for s in host.programmed.values()
        )


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--variant", "c", "--size", "3", "--array", "1,2", "--target", "1", "--bound", "4"),
         "--size disagrees with --array"),
        (("--variant", "c", "--size", "2", "--target", "2", "--bound", "4"),
         "--size disagrees with --array"),
        (("--variant", "a", "--array", "1", "--bound", "4"), "variant a needs --target"),
        (("--variant", "b", "--size", "3", "--bound", "4"), "--size disagrees with --array"),
        (("--variant", "c", "--array", "9,-3", "--bound", "4"),
         "array elements must satisfy 0 <= element < bound"),
    ],
)
def test_front_ends_reject_alike(flags, message, tmp_path, capsys):
    with pytest.raises(HostProgramError, match=message):
        build_compiled_network("array-search", flags)
    sidecar = tmp_path / "net.in"
    code = main(["compile", "array-search", *flags, "--inputs-out", str(sidecar)])
    out, err = capsys.readouterr()
    assert code == 2
    assert message in err
    assert out == ""
    assert not sidecar.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--variant", "a", "--tar", "2", "--bound", "4"),
        ("--var", "a", "--target", "2", "--bound", "4"),
        ("--variant", "a", "--target", "2", "--bound", "٥"),
        ("--variant", "a", "--target", "2", "--bound", "+4"),
        ("--variant", "c", "--size", "1_0", "--bound", "4"),
        ("--variant", "a", "--array", "1,+2", "--target", "2", "--bound", "4"),
    ],
)
def test_front_ends_reject_outside_spellings(flags, tmp_path, capsys):
    # Abbreviated flags and integers outside ASCII -?[0-9]+ fail in both front ends.
    with pytest.raises(HostProgramError):
        build_compiled_network("array-search", flags)
    sidecar = tmp_path / "net.in"
    code = main(["compile", "array-search", *flags, "--inputs-out", str(sidecar)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not sidecar.exists()


@pytest.mark.parametrize(
    "name", [name for name in registered_compilers() if get_compiler(name).split is not None]
)
def test_compile_takes_exactly_the_split_arguments(name):
    # Every entry compiles from `split`'s arguments alone, and its build,
    # which still takes a builder, binds that structure and leaves the builder empty.
    entry = get_compiler(name)
    domain = Domain(max_len=2, max_val=3, random_instances=20, random_max_len=5, random_max_val=7)
    rng = Random(3)
    instances = list(entry.enumerate_domain(domain))
    instances += [entry.sample(rng, domain) for _ in range(domain.random_instances)]
    for instance in instances:
        args, schedules = entry.split(instance)
        compiled = entry.compile(*args)
        assert isinstance(compiled, CompiledStructure), instance
        builder = NetworkBuilder()
        assert compiled.bind(schedules) == entry.build(instance, builder), instance
        assert builder.build() == Network()


def _toy_entry(calls):
    """A one-port compiler: the port fires at the target and excites accept."""

    def split(instance):
        return (instance.bound,), {"p": one_shot(instance.target)}

    def compile(bound):
        calls.append(bound)
        builder = NetworkBuilder()
        builder.add_input("p", ExplicitSchedule())
        builder.add_neuron("acc")
        builder.add_synapse("p", "acc")
        builder.set_accept("acc")
        return CompiledStructure(builder.build(), ("p",))

    def from_flags(array, size, target, bound):
        if target is None:
            return (bound,), None
        return split(ArrayInstance((), target, bound))

    return CompilerEntry(
        name="toy-x",
        size_of=lambda instance: 0,
        build=composed_build(split, compile),
        reference=lambda instance: True,
        step_limit=lambda instance: instance.bound + 2,
        enumerate_domain=lambda domain: (
            ArrayInstance((), t, domain.max_val) for t in range(domain.max_val)
        ),
        split=split,
        compile=compile,
        from_flags=from_flags,
    )


def test_registered_entry_reaches_every_front_end(tmp_path, capsys):
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))
        register_compiler(_toy_entry(calls))
        assert harness.flag_compilers()["toy"] == ("x",)

        code, network = _cli_network("toy", ("--variant", "x", "--target", "1", "--bound", "3"),
                                     tmp_path)
        assert code == 0
        assert (tmp_path / "net.in").read_text() == "p=1\n"
        assert network.programmed["p"] == one_shot(1)
        assert calls == [3]

        assert main(["verify", "toy", "--variant", "x", "--max-len", "0", "--max-val", "3"]) == 0
        assert "checked=3" in capsys.readouterr().out
        assert calls == [3, 3]  # the sweep compiles its one structure once

        result = host_run(
            "let n = compile toy --variant x --target 1 --bound 3\n"
            "let b = oracle n time=5 space=5 energy=5\n"
            "if b goto yes\nreject\nlabel yes\naccept\n"
        )
        assert result.verdict == "accept"
        assert calls == [3, 3, 3]
    assert "toy" not in harness.flag_compilers()
    with redirect_stderr(io.StringIO()):
        assert main(["compile", "toy", "--variant", "x", "--bound", "3"]) == 2
    with pytest.raises(HostProgramError, match="unknown compiler"):
        build_compiled_network("toy", ("--variant", "x", "--bound", "3"))


# Numbers stay <= 64 so that no drawn example builds a large network.
_JUNK = st.sampled_from(
    ["", "x", ",", "1,", "-1", "0", "64", "d", "--bogus", "array-search",
     "--tar", "--target=1", "٥", "+4", "1_0"]
)


@st.composite
def _compile_tokens(draw):
    """The flags of a valid instance in any order, some dropped or spoiled, plus strays."""
    bound = draw(st.integers(1, 64))
    below = st.integers(0, bound - 1)
    elements = draw(st.lists(below, max_size=5))
    flags = {
        "--variant": draw(st.sampled_from("abc")),
        "--array": ",".join(map(str, elements)),
        "--size": str(len(elements)),
        "--target": str(draw(below)),
        "--bound": str(bound),
    }
    pairs = []
    for flag, value in flags.items():
        fate = draw(st.integers(0, 9))  # 0: drop the flag, 1: spoil its value
        if fate != 0:
            pairs.append([flag, draw(_JUNK) if fate == 1 else value])
    tokens = [token for pair in draw(st.permutations(pairs)) for token in pair]
    for stray in draw(st.lists(_JUNK, max_size=1)):
        tokens.insert(draw(st.integers(0, len(tokens))), stray)
    return tokens


_PROBLEMS = st.sampled_from(["array-search", "array-search", "array-search", "sort"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(problem=_PROBLEMS, tokens=_compile_tokens())
def test_fuzzed_compile_args_fail_only_as_documented(problem, tokens, fuzz_dir):
    try:
        host = build_compiled_network(problem, tuple(tokens)).network
    except HostProgramError:
        host = None
    code, cli = _cli_network(problem, tokens, fuzz_dir)
    assert code in (0, 2)
    assert cli == host
