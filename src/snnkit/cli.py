"""Command-line entry point.

Every subcommand writes networks in the `.snn` text format and accepts `-`
for standard input/output, so generators compose with `sim` in pipelines:

    snnkit compile array-search --variant a --array 3,5,7 --target 5 --bound 8 | snnkit sim -

Exit codes: 0 accept/success, 1 reject, 2 usage error,
3 promise violation, verification mismatch, or a timeout/ambiguous verdict.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import engine, gadgets, harness, hostprog, snnfmt
from .model import parse_int

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

# The exit code of each verdict that `sim`, `oracle` and `host` print; any other exits 3.
_VERDICT_EXITS = {
    engine.ACCEPT: EXIT_ACCEPT,
    harness.ACCEPTED: EXIT_ACCEPT,
    engine.REJECT: EXIT_REJECT,
    harness.REJECTED: EXIT_REJECT,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_outputs(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text): the files together, then each `-` text to stdout."""
    _write_files_together([(path, text) for path, text in outputs if path != "-"])
    for path, text in outputs:
        if path == "-":
            sys.stdout.write(text)


def _write_files_together(files: list[tuple[str, str]]) -> None:
    """Write each (path, text) so that either every file appears or none does.

    Each text goes to a temporary file beside its target; the targets are
    replaced only after every write has succeeded.
    """
    staged = []
    try:
        for path, text in files:
            target = Path(path)
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((temp, target))
            temp.write_text(text)
        for temp, target in staged:
            os.replace(temp, target)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


def _load_network(path: str, inputs: str | None = None):
    # `.snn` text declares no ports, so a sidecar may rebind any programmed neuron.
    network = snnfmt.parse_network(_read_text(path))
    if inputs:
        network = network.bind_schedules(snnfmt.parse_port_bindings(_read_text(inputs)))
    return network


def _cmd_sim(args) -> int:
    network = _load_network(args.network, args.inputs)
    limits = engine.RunLimits(max_steps=args.max_steps, max_total_spikes=args.max_spikes)
    want_trace = args.trace or args.raster
    report, trace = engine.run(network, limits, trace=want_trace)
    if args.trace:
        for step in trace.steps:
            print(step.render())
    if args.raster:
        sys.stdout.write(engine.render_raster(trace, network))
    print(engine.format_report_line(report))
    return _VERDICT_EXITS.get(report.verdict, EXIT_VIOLATION)


def _cmd_gadget(args) -> int:
    kind = args.kind
    if kind == "constant":
        network = gadgets.make_constant_firer(args.prefix or "const").to_network()
    elif kind == "clock":
        if args.period is None:
            raise ValueError("gadget clock needs --period")
        network = gadgets.make_clock(args.period, args.prefix or "clk").to_network()
    elif kind == "number":
        if args.value is None or args.period is None:
            raise ValueError("gadget number needs --value and --period")
        network = gadgets.make_number(args.value, args.period, args.prefix or "num").to_network()
    else:
        if args.bound is None or args.attach is None:
            raise ValueError(f"gadget {kind} needs --bound and --attach")
        base = _load_network(args.attach)
        if kind == "timer":
            network = gadgets.attach_timer(base, args.bound)
        else:
            network = gadgets.attach_meter(base, args.bound)
    _write_outputs([(args.output, snnfmt.serialize_network(network))])
    return EXIT_ACCEPT


def _same_destination(a: str, b: str) -> bool:
    if "-" in (a, b):
        return a == b
    return Path(a).resolve() == Path(b).resolve()


def _cmd_compile(args) -> int:
    if args.inputs_out is not None and _same_destination(args.output, args.inputs_out):
        raise ValueError("--output and --inputs-out must name different destinations")
    compiled, schedules = harness.compile_from_flags(args.problem, args)
    if args.inputs_out is not None and schedules is None:
        raise ValueError("--inputs-out needs --target")
    if schedules and not args.inputs_out:
        raise ValueError("emitting input schedules needs --inputs-out <file>")
    outputs = []
    if args.inputs_out is not None:
        outputs.append((args.inputs_out, snnfmt.serialize_port_bindings(schedules)))
    outputs.append((args.output, snnfmt.serialize_network(compiled.network)))
    _write_outputs(outputs)
    return EXIT_ACCEPT


def _cmd_oracle(args) -> int:
    network = _load_network(args.network, args.inputs)
    caps = harness.ResourceCaps(time=args.time, space=args.space, energy=args.energy)
    answer = harness.network_halting_oracle(network, caps)
    print(f"outcome={answer.outcome}")
    print(engine.format_report_line(answer.report))
    return _VERDICT_EXITS.get(answer.outcome, EXIT_VIOLATION)


def _cmd_host(args) -> int:
    path = Path(args.program)
    result = hostprog.host_run(path.read_text(), base_dir=path.parent)
    sys.stdout.write(result.call_log())
    print(f"verdict={result.verdict}")
    return _VERDICT_EXITS.get(result.verdict, EXIT_VIOLATION)


def _cmd_verify(args) -> int:
    compiler = harness.flag_compiler(args.problem, args.variant)
    domain = harness.Domain(
        max_len=args.max_len,
        max_val=args.max_val,
        random_instances=args.random,
    )
    report = harness.verify_equivalence(compiler.name, domain, seed=args.seed)
    print(f"checked={report.checked}")
    print(f"mismatches={len(report.mismatches)}")
    print(f"bound_violations={len(report.bound_violations)}")
    print(f"inequality_violations={len(report.inequality_violations)}")
    for mismatch in report.mismatches[:20]:
        print(
            f"mismatch {mismatch.instance}"
            f" verdict={mismatch.network_verdict} expected={mismatch.reference}"
        )
    ok = (
        not report.mismatches
        and not report.bound_violations
        and not report.inequality_violations
    )
    return EXIT_ACCEPT if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    problems = harness.flag_compilers()
    variants = sorted({variant for names in problems.values() for variant in names})
    parser = argparse.ArgumentParser(prog="snnkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="simulate a network until verdict or cap")
    p.add_argument("network", help=".snn file or - for stdin")
    p.add_argument("--inputs", help="port-binding file (port=<schedule> lines)")
    p.add_argument("--max-steps", type=parse_int, default=10_000)
    p.add_argument("--max-spikes", type=parse_int, default=None)
    p.add_argument("--trace", action="store_true", help="print per-step firings")
    p.add_argument("--raster", action="store_true", help="print a spike raster")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("gadget", help="emit a circuit fragment or augment a network")
    p.add_argument("kind", choices=("constant", "clock", "number", "timer", "meter"))
    p.add_argument("--period", type=parse_int, help="clock period K")
    p.add_argument("--value", type=parse_int, help="number to encode temporally")
    p.add_argument("--bound", type=parse_int, help="step deadline (timer) or spike budget (meter)")
    p.add_argument("--attach", help="network to augment (.snn file or -)")
    p.add_argument("--prefix", help="id prefix for fragment neurons")
    p.add_argument("--output", default="-", help="where to write the .snn (default stdout)")
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("compile", parents=[harness.COMPILE_FLAGS], allow_abbrev=False,
                       help="compile a problem instance into a network")
    p.add_argument("problem", choices=sorted(problems))
    p.add_argument("--output", default="-", help="where to write the .snn (default stdout)")
    p.add_argument("--inputs-out", help="write port schedules here, - for stdout (given a --target)")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("oracle", help="promise-bounded accept/reject query")
    p.add_argument("network", help=".snn file or - for stdin")
    p.add_argument("--time", type=parse_int, required=True)
    p.add_argument("--space", type=parse_int, required=True)
    p.add_argument("--energy", type=parse_int, required=True)
    p.add_argument("--inputs", help="port-binding file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("host", help="run a host program with oracle access")
    p.add_argument("program", help="program file")
    p.set_defaults(fn=_cmd_host)

    p = sub.add_parser("verify", help="sweep a compiler against brute force")
    p.add_argument("problem", choices=sorted(problems))
    p.add_argument("--variant", choices=variants, required=True)
    p.add_argument("--max-len", type=parse_int, required=True)
    p.add_argument("--max-val", type=parse_int, required=True)
    p.add_argument("--random", type=parse_int, default=0, help="extra seeded random instances")
    p.add_argument("--seed", type=parse_int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except KeyError as exc:
        # str() of a KeyError quotes its message; print the message itself.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # Each command's own usage errors are ValueErrors, as are
        # NetworkFormatError, InvalidNetworkError, HostProgramError and
        # NoVerdictNeuronError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
