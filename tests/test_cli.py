import io
from dataclasses import replace

import pytest

from snnkit import harness
from snnkit.arraysearch import ArrayInstance
from snnkit.cli import main
from snnkit.engine import NoVerdictNeuronError
from snnkit.hostprog import HostProgramError
from snnkit.model import InvalidNetworkError
from snnkit.snnfmt import NetworkFormatError, parse_network

TRIVIAL = "snn 1\ninput acc schedule=0\naccept acc\n"


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSim:
    def test_trivial_accept(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text(TRIVIAL)
        code, out, _ = run_cli(["sim", str(path), "--max-steps", "100", "--trace"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "t=0 fired=acc energy=1",
            "verdict=accept time=1 energy=1 payload_energy=1 neurons=1 synapses=0",
        ]

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(["sim", "-"], capsys, stdin=TRIVIAL, monkeypatch=monkeypatch)
        assert code == 0
        assert "verdict=accept" in out

    def test_text_inside_a_comment_stays_in_the_comment(self, capsys, monkeypatch):
        # Only "\n" ends a line: U+2028 inside the comment does not start one.
        text = "snn 1\nneuron a threshold=0\nneuron r # was: \u2028reject a\naccept a\n"
        outs = []
        for stdin in (text, text.replace("\n", "\r\n")):
            code, out, err = run_cli(["sim", "-"], capsys, stdin=stdin, monkeypatch=monkeypatch)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("verdict=accept time=1 ")

    def test_reject_exit_code(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\ninput rej schedule=0\nreject rej\n")
        code, out, _ = run_cli(["sim", str(path)], capsys)
        assert code == 1
        assert "verdict=reject" in out

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\nneuron acc\naccept acc\n")
        code, out, _ = run_cli(["sim", str(path), "--max-steps", "5"], capsys)
        assert code == 3
        assert "verdict=timeout time=5" in out

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\nneuron a\nsynapse a -> a delay=0\naccept a\n")
        code, _, err = run_cli(["sim", str(path)], capsys)
        assert code == 2
        assert "delay must be >= 1" in err

    def test_empty_stdin_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(["sim", "-"], capsys, stdin="", monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: line 1: expected header 'snn 1'\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["sim", "/nonexistent/net.snn"], capsys)
        assert code == 2

    def test_raster(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text(TRIVIAL)
        code, out, _ = run_cli(["sim", str(path), "--raster"], capsys)
        assert code == 0
        assert "acc |*|" in out

    def test_max_spikes_cap(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\nneuron acc\ninput p periodic offset=0 period=1\naccept acc\n")
        code, out, _ = run_cli(
            ["sim", str(path), "--max-steps", "50", "--max-spikes", "3"], capsys
        )
        assert code == 3
        assert "verdict=timeout time=4" in out

    def test_inputs_binding(self, tmp_path, capsys):
        net = tmp_path / "net.snn"
        net.write_text("snn 1\nneuron out\ninput val schedule=\nsynapse val -> out\naccept out\n")
        inputs = tmp_path / "net.in"
        inputs.write_text("val=2\n")
        code, out, _ = run_cli(["sim", str(net), "--inputs", str(inputs)], capsys)
        assert code == 0
        assert "verdict=accept time=4" in out

    @pytest.mark.parametrize("command", [["sim"], ["oracle", "--time", "5", "--space", "5", "--energy", "5"]])
    def test_unknown_port_message_is_unquoted(self, tmp_path, capsys, command):
        net = tmp_path / "net.snn"
        net.write_text(TRIVIAL)
        inputs = tmp_path / "net.in"
        inputs.write_text("zz=2\n")
        argv = [command[0], str(net), *command[1:], "--inputs", str(inputs)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == "error: no programmed neuron 'zz' to bind\n"


class TestGadget:
    def test_clock_emits_valid_snn(self, capsys):
        code, out, _ = run_cli(["gadget", "clock", "--period", "3"], capsys)
        assert code == 0
        net = parse_network(out)
        assert "clk_out" in net.ids()

    def test_number(self, capsys):
        code, out, _ = run_cli(["gadget", "number", "--value", "2", "--period", "5"], capsys)
        assert code == 0
        parse_network(out)

    def test_timer_attach(self, tmp_path, capsys):
        base = tmp_path / "base.snn"
        base.write_text("snn 1\nneuron acc\naccept acc\n")
        code, out, _ = run_cli(
            ["gadget", "timer", "--bound", "4", "--attach", str(base)], capsys
        )
        assert code == 0
        net = parse_network(out)
        assert "timer" in net.gadget_tags
        assert net.reject is not None

    def test_meter_attach(self, tmp_path, capsys):
        base = tmp_path / "base.snn"
        base.write_text("snn 1\nneuron acc\naccept acc\n")
        code, out, _ = run_cli(
            ["gadget", "meter", "--bound", "3", "--attach", str(base)], capsys
        )
        assert code == 0
        net = parse_network(out)
        assert "meter" in net.gadget_tags

    def test_output_file_holds_what_stdout_would(self, tmp_path, capsys):
        base = tmp_path / "base.snn"
        base.write_text("snn 1\nneuron acc\naccept acc\n")
        argv = ["gadget", "timer", "--bound", "4", "--attach", str(base)]
        _, printed, _ = run_cli(argv, capsys)
        code, out, err = run_cli([*argv, "--output", str(tmp_path / "timed.snn")], capsys)
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "timed.snn").read_text() == printed
        assert sorted(path.name for path in tmp_path.iterdir()) == ["base.snn", "timed.snn"]

    def test_attach_to_text_without_a_header_exit_2(self, tmp_path, capsys):
        base = tmp_path / "base.snn"
        base.write_text("# no network here\n")
        code, out, err = run_cli(["gadget", "timer", "--bound", "4", "--attach", str(base)], capsys)
        assert (code, out, err) == (2, "", "error: line 1: expected header 'snn 1'\n")

    @pytest.mark.parametrize("kind", ["constant", "clock", "number"])
    def test_invalid_prefix_is_usage_error(self, kind, capsys):
        code, out, err = run_cli(
            ["gadget", kind, "--period", "3", "--value", "1", "--prefix", "bad-id"], capsys
        )
        assert code == 2
        assert out == ""
        assert "invalid neuron id 'bad-id_" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["gadget", "clock"], capsys)
        assert code == 2
        assert "--period" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["number", "--value", "2"], "error: gadget number needs --value and --period\n"),
            (["timer", "--bound", "3"], "error: gadget timer needs --bound and --attach\n"),
        ],
    )
    def test_missing_gadget_flags_are_usage_errors(self, argv, message, capsys):
        code, out, err = run_cli(["gadget", *argv], capsys)
        assert (code, out, err) == (2, "", message)


class TestCompile:
    def test_variant_a_pipeline(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["compile", "array-search", "--variant", "a", "--array", "3,5,7",
             "--target", "5", "--bound", "8"],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["sim", "-", "--max-steps", "32"], capsys, stdin=out, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "verdict=accept" in out
        payload = int(out.rsplit("payload_energy=", 1)[1].split()[0])
        assert payload <= 3 + 2

    def test_variant_b_sidecar(self, tmp_path, capsys):
        net_path = tmp_path / "b.snn"
        inputs_path = tmp_path / "b.in"
        code, _, _ = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "3,5,7",
             "--target", "5", "--bound", "8",
             "--output", str(net_path), "--inputs-out", str(inputs_path)],
            capsys,
        )
        assert code == 0
        assert inputs_path.read_text() == "val=5\n"
        code, out, _ = run_cli(
            ["sim", str(net_path), "--inputs", str(inputs_path), "--max-steps", "32"],
            capsys,
        )
        assert code == 0
        assert "verdict=accept" in out

    def test_variant_c_sidecar(self, tmp_path, capsys):
        net_path = tmp_path / "c.snn"
        inputs_path = tmp_path / "c.in"
        code, _, _ = run_cli(
            ["compile", "array-search", "--variant", "c", "--array", "1,2",
             "--target", "0", "--bound", "4",
             "--output", str(net_path), "--inputs-out", str(inputs_path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["sim", str(net_path), "--inputs", str(inputs_path), "--max-steps", "32"],
            capsys,
        )
        assert code == 1  # 0 not in [1, 2]

    def test_sidecar_needs_inputs_out(self, capsys):
        code, _, err = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1",
             "--target", "0", "--bound", "4"],
            capsys,
        )
        assert code == 2
        assert "--inputs-out" in err

    def test_failed_output_leaves_no_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "side.in"
        code, _, _ = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1,2",
             "--target", "1", "--bound", "4", "--inputs-out", str(sidecar),
             "--output", str(tmp_path / "missing" / "x.snn")],
            capsys,
        )
        assert code == 2
        assert not sidecar.exists()

    @pytest.mark.parametrize("output", ["x.snn", "-"])
    def test_failed_sidecar_leaves_no_network(self, tmp_path, capsys, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1,2",
             "--target", "1", "--bound", "4",
             "--inputs-out", str(tmp_path / "missing" / "side.in"), "--output", output],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1,2",
             "--target", "1", "--bound", "4", "--inputs-out", "-", "--output", "x.snn"],
            capsys,
        )
        assert code == 0
        assert out == "val=1\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.snn"]
        parse_network((tmp_path / "x.snn").read_text())

    @pytest.mark.parametrize("target", [(), ("--target", "1")])
    def test_network_and_sidecar_cannot_share_stdout(self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1,2", *target,
             "--bound", "4", "--inputs-out", "-", "--output", "-"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--inputs-out" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sidecar", ["x.snn", "./x.snn", "sub/../x.snn"])
    def test_network_and_sidecar_cannot_share_a_file(self, tmp_path, capsys, monkeypatch, sidecar):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, out, err = run_cli(
            ["compile", "array-search", "--variant", "b", "--array", "1,2", "--target", "1",
             "--bound", "4", "--output", "x.snn", "--inputs-out", sidecar],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--inputs-out" in err
        assert [path.name for path in tmp_path.iterdir()] == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    @pytest.mark.parametrize("variant", ["b", "c"])
    def test_sidecar_without_target_is_a_usage_error(self, tmp_path, capsys, variant):
        sidecar = tmp_path / "side.in"
        code, out, err = run_cli(
            ["compile", "array-search", "--variant", variant, "--array", "1,2", "--bound", "4",
             "--inputs-out", str(sidecar)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--inputs-out needs --target" in err
        assert not sidecar.exists()

    def test_portless_variant_writes_an_empty_sidecar(self, tmp_path, capsys):
        net_path = tmp_path / "a.snn"
        sidecar = tmp_path / "a.in"
        code, _, _ = run_cli(
            ["compile", "array-search", "--variant", "a", "--array", "1,2", "--target", "1",
             "--bound", "4", "--output", str(net_path), "--inputs-out", str(sidecar)],
            capsys,
        )
        assert code == 0
        assert sidecar.read_text() == ""
        code, out, _ = run_cli(
            ["sim", str(net_path), "--inputs", str(sidecar), "--max-steps", "32"], capsys
        )
        assert code == 0
        assert "verdict=accept" in out

    def test_generator_output_accepted_verbatim_by_sim(self, capsys, monkeypatch):
        # Pipeline composability: every generator's output parses untouched.
        for argv in (
            ["gadget", "constant"],
            ["gadget", "clock", "--period", "4"],
            ["gadget", "number", "--value", "1", "--period", "4"],
            ["compile", "array-search", "--variant", "a", "--array", "2",
             "--target", "2", "--bound", "4"],
            ["compile", "array-search", "--variant", "b", "--array", "2", "--bound", "4"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            parse_network(out)


class TestOracle:
    def test_accepted(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text(TRIVIAL)
        code, out, _ = run_cli(
            ["oracle", str(path), "--time", "2", "--space", "2", "--energy", "2"], capsys
        )
        assert code == 0
        assert "outcome=accepted" in out

    def test_rejected_exit_1(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\ninput rej schedule=0\nreject rej\n")
        code, out, _ = run_cli(
            ["oracle", str(path), "--time", "2", "--space", "2", "--energy", "2"], capsys
        )
        assert code == 1
        assert "outcome=rejected" in out

    def test_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\nneuron acc\naccept acc\n")
        code, out, _ = run_cli(
            ["oracle", str(path), "--time", "5", "--space", "5", "--energy", "5"], capsys
        )
        assert code == 3
        assert "outcome=promise_violated" in out

    @pytest.mark.parametrize("cap", ["--time", "--space", "--energy"])
    def test_negative_cap_exit_3(self, tmp_path, capsys, cap):
        path = tmp_path / "net.snn"
        path.write_text(TRIVIAL)
        caps = {"--time": "5", "--space": "5", "--energy": "5", cap: "-1"}
        code, out, _ = run_cli(["oracle", str(path), *(x for kv in caps.items() for x in kv)], capsys)
        assert code == 3
        assert "outcome=promise_violated" in out

    @pytest.mark.parametrize("variant", ["b", "c"])
    def test_inputs_bind_a_compiled_sidecar(self, tmp_path, capsys, variant):
        net, sidecar = tmp_path / "net.snn", tmp_path / "net.in"
        code, _, _ = run_cli(
            ["compile", "array-search", "--variant", variant, "--array", "3,5,7", "--target", "5",
             "--bound", "8", "--output", str(net), "--inputs-out", str(sidecar)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["oracle", str(net), "--time", "20", "--space", "8", "--energy", "8",
             "--inputs", str(sidecar)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "outcome=accepted"
        assert out.splitlines()[1].startswith("verdict=accept ")


class TestHost:
    def test_host_program(self, tmp_path, capsys):
        program = tmp_path / "prog.host"
        program.write_text(
            "let n = compile array-search --variant a --array 1,2 --target 2 --bound 4\n"
            "let b = oracle n time=12 space=8 energy=8\n"
            "if b goto done\nreject\nlabel done\naccept\n"
        )
        code, out, _ = run_cli(["host", str(program)], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("call=1 network=n outcome=accepted")
        assert out.splitlines()[-1] == "verdict=accept"

    def test_malformed_program_exit_2(self, tmp_path, capsys):
        program = tmp_path / "prog.host"
        program.write_text("maybe\n")
        code, _, err = run_cli(["host", str(program)], capsys)
        assert code == 2


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            ["verify", "array-search", "--variant", "a", "--max-len", "2", "--max-val", "3"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert "mismatches=0" in lines
        assert "bound_violations=0" in lines
        assert f"checked={(1 + 3 + 9) * 3}" in lines

    def test_reproducible_with_seed(self, capsys):
        argv = ["verify", "array-search", "--variant", "b", "--max-len", "1",
                "--max-val", "2", "--random", "10", "--seed", "42"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize(
        "bounds,message",
        [
            (("--max-len", "1", "--max-val", "0"), "value bounds must be >= 1"),
            (("--max-len", "-1", "--max-val", "3"), "array lengths must be >= 0"),
        ],
    )
    def test_empty_domain_is_a_usage_error(self, bounds, message, capsys):
        code, out, err = run_cli(["verify", "array-search", "--variant", "a", *bounds], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_mismatch_line(self, capsys, monkeypatch):
        # A compiler that drops the array accepts nothing, so every instance
        # whose array holds the target is a mismatch.
        entry = harness.get_compiler("array-search-a")

        def compile_without_array(instance):
            return entry.compile(ArrayInstance((), instance.target, instance.bound))

        monkeypatch.setattr(harness, "_REGISTRY", dict(harness._REGISTRY))
        harness.register_compiler(replace(entry, compile=compile_without_array))
        code, out, _ = run_cli(
            ["verify", "array-search", "--variant", "a", "--max-len", "2", "--max-val", "2"],
            capsys,
        )
        assert code == 3
        lines = out.splitlines()
        assert "mismatches=8" in lines
        assert lines[4] == "mismatch array=0 target=0 bound=2 verdict=reject expected=True"
        assert lines[-1] == "mismatch array=1,1 target=1 bound=2 verdict=reject expected=True"


def test_library_errors_are_value_errors():
    # main reports every ValueError as a usage error (exit 2), these included.
    for error in (NetworkFormatError, InvalidNetworkError, HostProgramError, NoVerdictNeuronError):
        assert issubclass(error, ValueError)


class TestUsage:
    def test_no_args(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "NET", "--max-steps", "١٠"],
            ["gadget", "clock", "--period", "+3"],
            ["oracle", "NET", "--time", "1_0", "--space", "5", "--energy", "5"],
            ["verify", "array-search", "--variant", "a", "--max-len", "1", "--max-val", "2",
             "--seed", "٣"],
        ],
    )
    def test_integers_are_ascii(self, argv, tmp_path, capsys):
        path = tmp_path / "net.snn"
        path.write_text(TRIVIAL)
        code, out, _ = run_cli([str(path) if a == "NET" else a for a in argv], capsys)
        assert code == 2
        assert out == ""


class TestModuleEntry:
    def test_python_m_runs_main(self, tmp_path, capsys):
        # `python -m snnkit.cli` is how the CLI runs without an installed
        # package; the child imports the snnkit under test.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import snnkit

        package_root = str(Path(snnkit.__file__).resolve().parent.parent)
        child_path = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )

        def child(*argv):
            return subprocess.run(
                [sys.executable, "-m", "snnkit.cli", *argv],
                capture_output=True,
                text=True,
                # The child writes no bytecode into the checkout under test.
                env={
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": child_path,
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
                cwd=tmp_path,
            )

        argv = ["compile", "array-search", "--variant", "a", "--array", "3,5,7",
                "--target", "5", "--bound", "8"]
        proc = child(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(argv, capsys)[1]
        assert "acc" in parse_network(proc.stdout).ids()

        proc = child("compile", "array-search", "--variant", "c", "--size", "2",
                     "--target", "2", "--bound", "4")
        assert proc.returncode == 2
        assert "--size disagrees with --array" in proc.stderr
