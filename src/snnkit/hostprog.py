"""Minimal host language driving the network-halting oracle.

Models a classical controller that builds networks, queries the oracle
about them, and branches on the answers. Line-oriented grammar, where as
in `.snn` text only ``\n`` ends a line and ``#`` starts a comment:

    let <name> = compile <compiler> <args...>
    let <bit> = oracle <name> [inputs=<file>] time=<n> space=<n> energy=<n>
    if <bit> goto <label>
    if <bit>=accepted|rejected|violated goto <label>
    label <l>
    accept
    reject

A bare ``if <bit>`` tests for an accepted answer; the ``=violated`` form
lets programs branch on the distinguished promise-violation outcome.
Compile args are the command line's compile flags, parsed by the same
`harness.COMPILE_FLAGS`, e.g. ``array-search --variant b --array 1,2 --bound 4``;
``--flag=value`` works, abbreviations are rejected, and every integer (the
oracle caps too) is ASCII ``-?[0-9]+``. Each oracle call is a whole
instance: its inputs file, none meaning no bindings, goes through
`CompiledStructure.bind`, so it must bind exactly the ports its network's
``compile`` left open, which are none when ``--target`` bound them.

Execution is sequential and the call log records every oracle query.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .harness import (
    ACCEPTED,
    COMPILE_FLAGS,
    PROMISE_VIOLATED,
    REJECTED,
    CompiledStructure,
    ResourceCaps,
    compile_from_flags,
    network_halting_oracle,
)
from .model import parse_int
from .snnfmt import numbered_lines, parse_port_bindings

_OUTCOME_TOKENS = {"accepted": ACCEPTED, "rejected": REJECTED, "violated": PROMISE_VIOLATED}
# Instructions one program may execute before it is cut off as a runaway loop.
MAX_OPS = 100_000


class HostProgramError(ValueError):
    """Malformed program text or a runtime fault (unknown name, no verdict)."""


@dataclass(frozen=True)
class OracleCall:
    index: int
    network: str
    outcome: str
    time: int
    energy: int

    def log_line(self) -> str:
        return (
            f"call={self.index} network={self.network} outcome={self.outcome}"
            f" time={self.time} energy={self.energy}"
        )


@dataclass(frozen=True)
class HostResult:
    verdict: str
    calls: tuple[OracleCall, ...]

    def call_log(self) -> str:
        return "".join(call.log_line() + "\n" for call in self.calls)


@dataclass(frozen=True)
class _Compile:
    lineno: int
    name: str
    compiler: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class _Oracle:
    lineno: int
    bit: str
    network: str
    inputs_file: str | None
    caps: ResourceCaps


@dataclass(frozen=True)
class _If:
    lineno: int
    bit: str
    outcome: str
    label: str


@dataclass(frozen=True)
class _Halt:
    lineno: int
    verdict: str


def build_compiled_network(
    compiler: str, args: tuple[str, ...], lineno: int = 0
) -> CompiledStructure:
    """Build a network from CLI-style compile arguments, with the ports it leaves open.

    Without a --target the network's input ports are left open, for each
    oracle call's inputs file to bind; a --target binds them all through
    `CompiledStructure.bind` and leaves none open.
    """
    try:
        flags, extra = COMPILE_FLAGS.parse_known_args(args)
        if extra:
            raise ValueError(f"unknown flag {extra[0]!r}")
        compiled, schedules = compile_from_flags(compiler, flags)
        if schedules is None:
            return compiled
        return CompiledStructure(compiled.bind(schedules), ())
    except ValueError as exc:
        raise HostProgramError(f"line {lineno}: {exc}") from None


def parse_program(text: str):
    """Parse program text into instructions and a label table."""
    instructions = []
    labels: dict[str, int] = {}
    for lineno, raw in numbered_lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "label":
            if len(tokens) != 2:
                raise HostProgramError(f"line {lineno}: label takes exactly one name")
            if tokens[1] in labels:
                raise HostProgramError(f"line {lineno}: duplicate label {tokens[1]!r}")
            labels[tokens[1]] = len(instructions)
        elif head in ("accept", "reject"):
            if len(tokens) != 1:
                raise HostProgramError(f"line {lineno}: {head} takes no arguments")
            instructions.append(_Halt(lineno, head))
        elif head == "if":
            if len(tokens) != 4 or tokens[2] != "goto":
                raise HostProgramError(f"line {lineno}: syntax is: if <bit>[=outcome] goto <label>")
            bit, eq, outcome_token = tokens[1].partition("=")
            if eq:
                if outcome_token not in _OUTCOME_TOKENS:
                    raise HostProgramError(
                        f"line {lineno}: unknown outcome {outcome_token!r}"
                        " (accepted, rejected, violated)"
                    )
                outcome = _OUTCOME_TOKENS[outcome_token]
            else:
                outcome = ACCEPTED
            instructions.append(_If(lineno, bit, outcome, tokens[3]))
        elif head == "let":
            if len(tokens) < 4 or tokens[2] != "=":
                raise HostProgramError(f"line {lineno}: syntax is: let <name> = compile|oracle ...")
            name, op, rest = tokens[1], tokens[3], tokens[4:]
            if op == "compile":
                if not rest:
                    raise HostProgramError(f"line {lineno}: compile needs a compiler name")
                instructions.append(_Compile(lineno, name, rest[0], tuple(rest[1:])))
            elif op == "oracle":
                if not rest:
                    raise HostProgramError(f"line {lineno}: oracle needs a network name")
                caps = {}
                inputs_file = None
                for token in rest[1:]:
                    key, eq, value = token.partition("=")
                    if not eq:
                        raise HostProgramError(f"line {lineno}: unexpected token {token!r}")
                    if key in caps or (key == "inputs" and inputs_file is not None):
                        raise HostProgramError(f"line {lineno}: duplicate token {key!r}")
                    if key == "inputs":
                        inputs_file = value
                    elif key in ("time", "space", "energy"):
                        try:
                            caps[key] = parse_int(value)
                        except ValueError:
                            raise HostProgramError(
                                f"line {lineno}: {key} must be an integer"
                            ) from None
                    else:
                        raise HostProgramError(f"line {lineno}: unexpected token {token!r}")
                missing = {"time", "space", "energy"} - set(caps)
                if missing:
                    raise HostProgramError(
                        f"line {lineno}: oracle is missing {', '.join(sorted(missing))}"
                    )
                instructions.append(
                    _Oracle(lineno, name, rest[0], inputs_file, ResourceCaps(**caps))
                )
            else:
                raise HostProgramError(f"line {lineno}: let binds compile or oracle, not {op!r}")
        else:
            raise HostProgramError(f"line {lineno}: unknown instruction {head!r}")
    for instr in instructions:
        if isinstance(instr, _If) and instr.label not in labels:
            raise HostProgramError(f"line {instr.lineno}: unknown label {instr.label!r}")
    return instructions, labels


def host_run(text: str, base_dir: str | Path = ".") -> HostResult:
    """Execute a host program; return the final verdict and the call log."""
    instructions, labels = parse_program(text)
    base = Path(base_dir)
    networks: dict[str, CompiledStructure] = {}
    bits: dict[str, str] = {}
    calls: list[OracleCall] = []
    pc = 0
    for _ in range(MAX_OPS):
        if pc >= len(instructions):
            raise HostProgramError("program ended without accept or reject")
        instr = instructions[pc]
        pc += 1
        if isinstance(instr, _Halt):
            return HostResult(instr.verdict, tuple(calls))
        if isinstance(instr, _Compile):
            networks[instr.name] = build_compiled_network(
                instr.compiler, instr.args, instr.lineno
            )
        elif isinstance(instr, _Oracle):
            if instr.network not in networks:
                raise HostProgramError(
                    f"line {instr.lineno}: no network named {instr.network!r} has been built"
                )
            try:
                inputs = {}
                if instr.inputs_file is not None:
                    inputs = parse_port_bindings((base / instr.inputs_file).read_text())
                network = networks[instr.network].bind(inputs)
            except (OSError, ValueError) as exc:
                raise HostProgramError(f"line {instr.lineno}: {exc}") from None
            answer = network_halting_oracle(network, instr.caps)
            bits[instr.bit] = answer.outcome
            calls.append(
                OracleCall(
                    index=len(calls) + 1,
                    network=instr.network,
                    outcome=answer.outcome,
                    time=answer.report.time,
                    energy=answer.report.energy,
                )
            )
        elif isinstance(instr, _If):
            if instr.bit not in bits:
                raise HostProgramError(f"line {instr.lineno}: unknown bit {instr.bit!r}")
            if bits[instr.bit] == instr.outcome:
                pc = labels[instr.label]
    raise HostProgramError(f"program exceeded {MAX_OPS} instruction executions")
