import pytest

from snnkit.cli import main
from snnkit.hostprog import HostProgramError, build_compiled_network, host_run, parse_program
from snnkit.snnfmt import serialize_port_bindings
from snnkit.model import one_shot

LOOPING_PROGRAM = """\
# scan targets 0..3 against the fixed array [2]; accept at the first hit
let n0 = compile array-search --variant a --array 2 --target 0 --bound 4
let b0 = oracle n0 time=12 space=8 energy=8
if b0 goto done
let n1 = compile array-search --variant a --array 2 --target 1 --bound 4
let b1 = oracle n1 time=12 space=8 energy=8
if b1 goto done
let n2 = compile array-search --variant a --array 2 --target 2 --bound 4
let b2 = oracle n2 time=12 space=8 energy=8
if b2 goto done
let n3 = compile array-search --variant a --array 2 --target 3 --bound 4
let b3 = oracle n3 time=12 space=8 energy=8
if b3 goto done
reject
label done
accept
"""


class TestPrograms:
    def test_single_call_accepts(self):
        program = (
            "let net = compile array-search --variant a --array 1,2 --target 2 --bound 4\n"
            "let bit = oracle net time=12 space=8 energy=8\n"
            "if bit goto yes\n"
            "reject\n"
            "label yes\n"
            "accept\n"
        )
        result = host_run(program)
        assert result.verdict == "accept"
        assert len(result.calls) == 1
        assert result.calls[0].outcome == "accepted"

    def test_constant_program_makes_no_calls(self):
        result = host_run("accept\n")
        assert result.verdict == "accept"
        assert result.calls == ()
        assert host_run("reject\n").verdict == "reject"

    def test_looping_program_halts_after_three_calls(self):
        result = host_run(LOOPING_PROGRAM)
        assert result.verdict == "accept"
        assert len(result.calls) == 3
        assert [c.outcome for c in result.calls] == ["rejected", "rejected", "accepted"]

    def test_call_log_format(self):
        result = host_run(LOOPING_PROGRAM)
        lines = result.call_log().splitlines()
        assert lines[0].startswith("call=1 network=n0 outcome=rejected time=")
        assert lines[2].startswith("call=3 network=n2 outcome=accepted time=")

    def test_branch_on_violation(self):
        program = (
            "let net = compile array-search --variant a --array 2 --target 0 --bound 4\n"
            "let bit = oracle net time=3 space=8 energy=8\n"  # too tight: rejects at V+2
            "if bit=violated goto caught\n"
            "reject\n"
            "label caught\n"
            "accept\n"
        )
        result = host_run(program)
        assert result.verdict == "accept"
        assert result.calls[0].outcome == "promise_violated"

    def test_negative_energy_cap_is_a_violation(self):
        program = (
            "let n = compile array-search --variant a --array 1,2 --target 2 --bound 4\n"
            "let b = oracle n time=20 space=10 energy=-1\n"
            "if b=violated goto caught\n"
            "reject\n"
            "label caught\n"
            "accept\n"
        )
        result = host_run(program)
        assert result.verdict == "accept"
        assert result.calls[0].outcome == "promise_violated"
        assert (result.calls[0].time, result.calls[0].energy) == (0, 0)

    def test_branch_on_rejected(self):
        program = (
            "let net = compile array-search --variant a --array 2 --target 0 --bound 4\n"
            "let bit = oracle net time=12 space=8 energy=8\n"
            "if bit=rejected goto no\n"
            "accept\n"
            "label no\n"
            "reject\n"
        )
        assert host_run(program).verdict == "reject"

    def test_inputs_file(self, tmp_path):
        (tmp_path / "value.in").write_text(serialize_port_bindings({"val": one_shot(5)}))
        program = (
            "let net = compile array-search --variant b --array 3,5,7 --bound 8\n"
            "let bit = oracle net inputs=value.in time=20 space=8 energy=8\n"
            "if bit goto yes\n"
            "reject\n"
            "label yes\n"
            "accept\n"
        )
        assert host_run(program, base_dir=tmp_path).verdict == "accept"


class TestErrors:
    def test_unknown_instruction(self):
        with pytest.raises(HostProgramError, match="unknown instruction"):
            host_run("frobnicate\n")

    def test_unknown_label(self):
        with pytest.raises(HostProgramError, match="unknown label"):
            host_run("let n = compile array-search --variant a --target 0 --bound 2\n"
                     "let b = oracle n time=5 space=5 energy=5\n"
                     "if b goto nowhere\naccept\n")

    def test_oracle_before_compile(self):
        with pytest.raises(HostProgramError, match="no network"):
            host_run("let b = oracle ghost time=5 space=5 energy=5\naccept\n")

    def test_missing_caps(self):
        with pytest.raises(HostProgramError, match="missing"):
            host_run("let n = compile array-search --variant a --target 0 --bound 2\n"
                     "let b = oracle n time=5\naccept\n")

    def test_program_without_verdict(self):
        with pytest.raises(HostProgramError, match="without accept or reject"):
            host_run("let n = compile array-search --variant a --target 0 --bound 2\n")

    def test_duplicate_label(self):
        with pytest.raises(HostProgramError, match="duplicate label"):
            host_run("label x\nlabel x\naccept\n")

    def test_infinite_loop_cut_off(self):
        with pytest.raises(HostProgramError, match="exceeded"):
            host_run(
                "let n = compile array-search --variant a --array 1 --target 1 --bound 2\n"
                "label top\n"
                "let b = oracle n time=8 space=8 energy=8\n"
                "if b goto top\n"
                "accept\n",
                max_ops=50,
            )

    def test_unknown_bit(self):
        with pytest.raises(HostProgramError, match="unknown bit"):
            host_run("if ghost goto x\nlabel x\naccept\n")

    @pytest.mark.parametrize("caps", ["time=2_0 space=5 energy=5", "time=5 space=١٠ energy=5",
                                      "time=5 space=5 energy=+8"])
    def test_caps_are_ascii_integers(self, caps):
        with pytest.raises(HostProgramError, match="must be an integer"):
            host_run("let n = compile array-search --variant a --target 0 --bound 2\n"
                     f"let b = oracle n {caps}\naccept\n")

    @pytest.mark.parametrize("attrs, key", [
        ("time=1 time=50 space=9 energy=9", "time"),
        ("time=9 space=9 space=50 energy=9", "space"),
        ("time=9 space=9 energy=9 energy=50", "energy"),
        ("inputs=a.in time=9 space=9 energy=9 inputs=b.in", "inputs"),
    ])
    def test_repeated_oracle_attribute(self, attrs, key):
        # A later copy of a cap must not loosen the promise the program states.
        with pytest.raises(HostProgramError, match=f"line 2: duplicate token '{key}'"):
            parse_program("let n = compile array-search --variant a --target 0 --bound 2\n"
                          f"let b = oracle n {attrs}\naccept\n")

    def test_repeated_oracle_cap_exits_2(self, tmp_path, capsys):
        program = tmp_path / "prog.host"
        program.write_text("let n = compile array-search --variant a --target 0 --bound 2\n"
                           "let b = oracle n time=1 time=50 space=9 energy=9\naccept\n")
        assert main(["host", str(program)]) == 2
        assert "line 2: duplicate token 'time'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("let x = oracle", "line 2: oracle needs a network name"),
        ("let x = oracle n time", "line 2: unexpected token 'time'"),
        ("let x = oracle n foo=1 time=1 space=1 energy=1", "line 2: unexpected token 'foo=1'"),
        ("let x = frob n", "line 2: let binds compile or oracle, not 'frob'"),
    ])
    def test_malformed_let_names_its_line(self, line, message):
        with pytest.raises(HostProgramError) as error:
            parse_program("let n = compile array-search --variant a --target 0 --bound 2\n"
                          f"{line}\naccept\n")
        assert str(error.value) == message

    @pytest.mark.parametrize("inputs, message", [
        (None, "line 2: [Errno 2] No such file or directory"),
        ("zz=1\n", "line 2: unknown input ports: ['zz']"),
    ])
    def test_bad_inputs_file_names_its_line(self, tmp_path, inputs, message):
        if inputs is not None:
            (tmp_path / "value.in").write_text(inputs)
        program = ("let n = compile array-search --variant b --array 3,5,7 --bound 8\n"
                   "let b = oracle n inputs=value.in time=20 space=8 energy=8\naccept\n")
        with pytest.raises(HostProgramError) as error:
            host_run(program, base_dir=tmp_path)
        assert str(error.value).startswith(message)

    def test_undefined_flag_value(self):
        with pytest.raises(HostProgramError):
            host_run("let n = compile array-search --variant a --target\naccept\n")

    @pytest.mark.parametrize("inputs, outcome", [
        ("val=5\n", "rejected"),
        ("val=1\n", "accepted"),
        ("a0=5\nval=5\n", "line 2: unknown input ports: ['a0']"),
        ("val=5\na1=5\na0=5\n", "line 2: unknown input ports: ['a0', 'a1']"),
    ], ids=["open-port-miss", "open-port-hit", "element", "elements"])
    def test_inputs_bind_only_open_ports(self, tmp_path, inputs, outcome):
        # The array 1,2 is compiled into the network: an inputs file may set
        # the target on the open port `val`, but not overwrite an element.
        (tmp_path / "f").write_text(inputs)
        program = ("let n = compile array-search --variant b --array 1,2 --bound 8\n"
                   "let x = oracle n inputs=f time=20 space=10 energy=10\n"
                   "if x goto yes\nreject\nlabel yes\naccept\n")
        if outcome.startswith("line"):
            with pytest.raises(HostProgramError) as error:
                host_run(program, base_dir=tmp_path)
            assert str(error.value) == outcome
        else:
            result = host_run(program, base_dir=tmp_path)
            assert [call.outcome for call in result.calls] == [outcome]

    def test_inputs_after_a_target_bind_nothing(self, tmp_path):
        (tmp_path / "f").write_text("val=1\n")
        program = ("let n = compile array-search --variant b --array 1,2 --target 5 --bound 8\n"
                   "let x = oracle n inputs=f time=20 space=10 energy=10\naccept\n")
        with pytest.raises(HostProgramError) as error:
            host_run(program, base_dir=tmp_path)
        assert str(error.value) == "line 2: unknown input ports: ['val']"

    @pytest.mark.parametrize("compile_args, inputs, message", [
        ("--variant c --size 2 --bound 8", "val=5\n", "line 2: ports left unbound: ['a0', 'a1']"),
        ("--variant b --array 1,2 --bound 8", None, "line 2: ports left unbound: ['val']"),
    ], ids=["c-elements", "b-value"])
    def test_oracle_call_binds_every_open_port(self, tmp_path, capsys, compile_args, inputs, message):
        # Each oracle call asks about a whole instance, never a half-bound structure.
        inputs_token = ""
        if inputs is not None:
            (tmp_path / "f").write_text(inputs)
            inputs_token = " inputs=f"
        program = tmp_path / "prog.host"
        program.write_text(f"let n = compile array-search {compile_args}\n"
                           f"let x = oracle n{inputs_token} time=20 space=10 energy=10\naccept\n")
        with pytest.raises(HostProgramError) as error:
            host_run(program.read_text(), base_dir=tmp_path)
        assert str(error.value) == message
        assert main(["host", str(program)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_closed_port_exits_2(self, tmp_path, capsys):
        (tmp_path / "f").write_text("a0=5\nval=5\n")
        program = tmp_path / "prog.host"
        program.write_text("let n = compile array-search --variant b --array 1,2 --bound 8\n"
                           "let x = oracle n inputs=f time=20 space=10 energy=10\naccept\n")
        assert main(["host", str(program)]) == 2
        assert "line 2: unknown input ports: ['a0']" in capsys.readouterr().err


class TestBuildCompiledNetwork:
    def test_variant_a(self):
        compiled = build_compiled_network(
            "array-search", ("--variant", "a", "--array", "1,2", "--target", "1", "--bound", "4")
        )
        assert compiled.network.accept == "acc"
        assert compiled.input_ports == ()

    def test_variant_b_unbound(self):
        compiled = build_compiled_network(
            "array-search", ("--variant", "b", "--array", "1,2", "--bound", "4")
        )
        assert compiled.network.programmed["val"].times == ()
        assert compiled.input_ports == ("val",)

    def test_variant_b_with_target_leaves_no_port_open(self):
        compiled = build_compiled_network(
            "array-search", ("--variant", "b", "--array", "1,2", "--target", "2", "--bound", "4")
        )
        assert compiled.network.programmed["val"].times == (2,)
        assert compiled.input_ports == ()

    def test_variant_c_with_size(self):
        compiled = build_compiled_network(
            "array-search", ("--variant", "c", "--size", "2", "--bound", "4")
        )
        assert set(compiled.network.programmed) == {"a0", "a1", "val"}
        assert compiled.input_ports == ("a0", "a1", "val")

    def test_unknown_compiler(self):
        with pytest.raises(HostProgramError, match="unknown compiler"):
            build_compiled_network("sort", ())

    def test_unknown_flag(self):
        with pytest.raises(HostProgramError, match="unknown flag '--bogus'"):
            build_compiled_network(
                "array-search",
                ("--variant", "b", "--array", "1", "--bound", "4", "--bogus", "1"),
            )
