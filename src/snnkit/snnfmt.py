"""The `.snn` plain-text network description format.

Line-oriented, `#` starts a comment, blank lines are ignored. The first
significant line must be the header ``snn 1``. Remaining lines:

    neuron <id> [threshold=<rat>] [reset=<rat>] [leak=<rat>]
    input <id> schedule=<t1;t2;...>
    input <id> periodic offset=<t> period=<K>
    synapse <pre> -> <post> [delay=<int>] [weight=<rat>]
    accept <id>
    reject <id>
    gadget <id>

Numerals are ASCII: an integer is `-?[0-9]+` and a rational is `p` or `p/q`
with q > 0; anything else (`+2`, `1_0`, non-ASCII digits) is a format error.
Omitted attributes take the defaults (threshold=1, reset=0, leak=1, delay=1,
weight=1). Serialization is canonical: parse(serialize(n)) == n for every
valid network and repeated serialize calls are byte-identical. One parse
shares each id and each rational text among every line that names it, and
reads each distinct well-formed neuron and synapse attribute tail once.

The line rules, which apply `model`'s rules as each line is read, are the
one check of `.snn` text; `engine.Simulation` still validates before stepping.
The writer keeps no rule of its own: it refuses, through
`model.check_network`, exactly the networks `validate_network` refuses.

The same module handles the sidecar port-binding files consumed by
``sim --inputs``, ``oracle --inputs`` and the host's oracle calls: one
``port=<schedule>`` line per port, where <schedule> is ``t1;t2;...`` or
``periodic:<offset>:<period>``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .model import (
    DEFAULT_DELAY,
    DEFAULT_LEAK,
    DEFAULT_RESET,
    DEFAULT_THRESHOLD,
    DEFAULT_WEIGHT,
    ExplicitSchedule,
    InvalidNetworkError,
    Network,
    NeuronSpec,
    PeriodicSchedule,
    SpikeSchedule,
    SynapseSpec,
    check_network,
    delay_violations,
    format_rational,
    is_valid_id,
    neuron_violations,
    parse_int,
    parse_rational,
    schedule_violations,
)

HEADER = "snn 1"
_NEURON_DEFAULTS = (("threshold", DEFAULT_THRESHOLD), ("reset", DEFAULT_RESET), ("leak", DEFAULT_LEAK))
_SYNAPSE_DEFAULTS = (("delay", DEFAULT_DELAY), ("weight", DEFAULT_WEIGHT))


class NetworkFormatError(ValueError):
    """Raised with the full list of parse errors, one per violated rule."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _split_attrs(tokens, lineno, errors, allowed):
    attrs = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in allowed:
            errors.append(f"line {lineno}: unexpected token {token!r}")
            continue
        if key in attrs:
            errors.append(f"line {lineno}: duplicate attribute {key!r}")
            continue
        attrs[key] = value
    return attrs


def _parse_int(value, what, lineno, errors):
    try:
        return parse_int(value)
    except ValueError:
        errors.append(f"line {lineno}: {what} must be an integer, got {value!r}")
        return None


def _parse_times(value, lineno, errors):
    if value == "":
        return ()
    times = []
    for piece in value.split(";"):
        t = _parse_int(piece, "schedule time", lineno, errors)
        if t is None:
            return None
        times.append(t)
    return tuple(times)


def _rules_hold(reasons, lineno, errors):
    """Note each model rule `reasons` names as broken; True when it names none."""
    errors.extend(f"line {lineno}: {reason}" for reason in reasons)
    return not reasons


class _Parser:
    def __init__(self, text: str):
        self.errors: list[str] = []
        self.neurons: list[NeuronSpec] = []
        self.programmed: dict[str, SpikeSchedule] = {}
        self.synapses: list[SynapseSpec] = []
        self.accept: str | None = None
        self.reject: str | None = None
        self.gadget_tags: set[str] = set()
        self.declared: dict[str, int] = {}
        self.pending_refs: list[tuple[str, str, int]] = []
        self.header_seen = False
        # One object per id and per rational text, shared by every line naming it.
        self.names: dict[str, str] = {}
        self.rationals: dict[str, Fraction] = {}
        # What each attribute tail parsed to, kept only from lines with no error.
        self.neuron_tails: dict[tuple[str, ...], list[Fraction]] = {}
        self.synapse_tails: dict[tuple[str, ...], tuple[int, Fraction]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if tokens:
                self.line(lineno, tokens)

    def err(self, lineno: int, message: str) -> None:
        self.errors.append(f"line {lineno}: {message}")

    def ident(self, token: str) -> str:
        return self.names.setdefault(token, token)

    def _parse_rat(self, value, what, lineno):
        rat = self.rationals.get(value)
        if rat is None:
            try:
                rat = self.rationals[value] = parse_rational(value)
            except ValueError:  # not cached, so each bad line reports itself
                self.err(lineno, f"{what}: malformed rational {value!r}")
        return rat

    def declare(self, name: str, lineno: int) -> bool:
        if not is_valid_id(name):
            self.err(lineno, f"invalid id {name!r}")
            return False
        if name in self.declared:
            self.err(lineno, f"duplicate id {name!r} (first declared on line {self.declared[name]})")
            return False
        self.declared[name] = lineno
        return True

    def line(self, lineno: int, tokens: list[str]) -> None:
        if not self.header_seen:
            if tokens == HEADER.split():
                self.header_seen = True
            else:
                self.err(lineno, f"expected header {HEADER!r}")
                self.header_seen = True  # report once, keep parsing
            return
        keyword = tokens[0]
        handler = _DIRECTIVES.get(keyword)
        if handler is None:
            self.err(lineno, f"unknown directive {keyword!r}")
            return
        handler(self, lineno, tokens[1:])

    def _kw_neuron(self, lineno, rest):
        if not rest:
            self.err(lineno, "neuron needs an id")
            return
        name = self.ident(rest[0])
        if not self.declare(name, lineno):
            return
        tail = tuple(rest[1:])
        params = self.neuron_tails.get(tail)
        if params is not None:
            self.neurons.append(NeuronSpec(name, *params))
            return
        before = len(self.errors)
        attrs = _split_attrs(tail, lineno, self.errors, ("threshold", "reset", "leak"))
        params = []
        for key, default in _NEURON_DEFAULTS:
            value = self._parse_rat(attrs[key], key, lineno) if key in attrs else None
            params.append(default if value is None else value)
        spec = NeuronSpec(name, *params)
        _rules_hold(neuron_violations(spec), lineno, self.errors)
        if len(self.errors) == before:
            self.neuron_tails[tail] = params
        self.neurons.append(spec)

    def _kw_input(self, lineno, rest):
        if not rest:
            self.err(lineno, "input needs an id")
            return
        name = self.ident(rest[0])
        if not self.declare(name, lineno):
            return
        if len(rest) >= 2 and rest[1] == "periodic":
            attrs = _split_attrs(rest[2:], lineno, self.errors, ("offset", "period"))
            if "offset" not in attrs or "period" not in attrs:
                self.err(lineno, "periodic input needs offset= and period=")
                return
            offset = _parse_int(attrs["offset"], "offset", lineno, self.errors)
            period = _parse_int(attrs["period"], "period", lineno, self.errors)
            if offset is None or period is None:
                return
            sched = PeriodicSchedule(offset, period)
        else:
            attrs = _split_attrs(rest[1:], lineno, self.errors, ("schedule",))
            if "schedule" not in attrs:
                self.err(lineno, "input needs schedule= or periodic")
                return
            times = _parse_times(attrs["schedule"], lineno, self.errors)
            if times is None:
                return
            sched = ExplicitSchedule(times)
        if _rules_hold(schedule_violations(sched), lineno, self.errors):
            self.programmed[name] = sched

    def _kw_synapse(self, lineno, rest):
        if len(rest) < 3 or rest[1] != "->":
            self.err(lineno, "synapse syntax is: synapse <pre> -> <post> [delay=..] [weight=..]")
            return
        pre, post = self.ident(rest[0]), self.ident(rest[2])
        # An id declared by now stays declared, so only later ones need a check.
        if pre not in self.declared:
            self.pending_refs.append(("synapse pre", pre, lineno))
        if post not in self.declared:
            self.pending_refs.append(("synapse post", post, lineno))
        tail = tuple(rest[3:])
        params = self.synapse_tails.get(tail)
        if params is not None:
            self.synapses.append(SynapseSpec(pre, post, *params))
            return
        before = len(self.errors)
        attrs = _split_attrs(tail, lineno, self.errors, ("delay", "weight"))
        delay = DEFAULT_DELAY
        weight = DEFAULT_WEIGHT
        if "delay" in attrs:
            delay = _parse_int(attrs["delay"], "delay", lineno, self.errors)
            if delay is None or not _rules_hold(delay_violations(delay), lineno, self.errors):
                return
        if "weight" in attrs:
            value = self._parse_rat(attrs["weight"], "weight", lineno)
            if value is None:
                return
            weight = value
        if len(self.errors) == before:
            self.synapse_tails[tail] = delay, weight
        self.synapses.append(SynapseSpec(pre, post, delay, weight))

    def _designate(self, role, lineno, rest):
        if len(rest) != 1:
            self.err(lineno, f"{role} takes exactly one id")
            return
        name = self.ident(rest[0])
        self.pending_refs.append((role, name, lineno))
        if getattr(self, role) is not None:
            self.err(lineno, f"duplicate {role} directive")
            return
        setattr(self, role, name)
        other = self.reject if role == "accept" else self.accept
        if other is not None and other == name:
            self.err(lineno, f"accept and reject are both {name!r}")

    def _kw_accept(self, lineno, rest):
        self._designate("accept", lineno, rest)

    def _kw_reject(self, lineno, rest):
        self._designate("reject", lineno, rest)

    def _kw_gadget(self, lineno, rest):
        if len(rest) != 1:
            self.err(lineno, "gadget takes exactly one id")
            return
        name = self.ident(rest[0])
        self.pending_refs.append(("gadget", name, lineno))
        self.gadget_tags.add(name)

    def finish(self) -> Network:
        if not self.header_seen:  # no significant line at all
            self.err(1, f"expected header {HEADER!r}")
        for what, name, lineno in self.pending_refs:
            if name not in self.declared:
                self.err(lineno, f"{what} names unknown id {name!r}")
        self.errors.sort(key=_line_number)
        if self.errors:
            raise NetworkFormatError(self.errors)
        return Network(
            neurons=tuple(self.neurons),
            programmed=self.programmed,
            synapses=tuple(self.synapses),
            accept=self.accept,
            reject=self.reject,
            gadget_tags=frozenset(self.gadget_tags),
        )


# Each directive's handler, looked up by keyword: no name string is built per line.
_DIRECTIVES = {
    "neuron": _Parser._kw_neuron,
    "input": _Parser._kw_input,
    "synapse": _Parser._kw_synapse,
    "accept": _Parser._kw_accept,
    "reject": _Parser._kw_reject,
    "gadget": _Parser._kw_gadget,
}


def _line_number(message: str) -> int:
    return int(message[5:].split(":", 1)[0])  # every message starts "line N: "


def parse_network(text: str) -> Network:
    """Parse `.snn` text into a Network that breaks no model rule.

    Raises NetworkFormatError carrying every violation found, each with the
    line number it was detected on; no second validation pass follows.
    """
    return _Parser(text).finish()


def _format_schedule(sched: SpikeSchedule) -> str:
    if isinstance(sched, PeriodicSchedule):
        return f"periodic offset={sched.offset} period={sched.period}"
    return "schedule=" + ";".join(str(t) for t in sched.times)


def _serialize_unchecked(network: Network) -> str:
    """The `.snn` text of `network`, written as it is, whether or not it is valid."""
    lines = [HEADER]
    for spec in network.neurons:
        lines.append(_with_attrs(f"neuron {spec.id}", spec, _NEURON_DEFAULTS))
    for name in sorted(network.programmed):
        lines.append(f"input {name} {_format_schedule(network.programmed[name])}")
    for syn in network.synapses:
        lines.append(_with_attrs(f"synapse {syn.pre} -> {syn.post}", syn, _SYNAPSE_DEFAULTS))
    if network.accept is not None:
        lines.append(f"accept {network.accept}")
    if network.reject is not None:
        lines.append(f"reject {network.reject}")
    for name in sorted(network.gadget_tags):
        lines.append(f"gadget {name}")
    return "\n".join(lines) + "\n"


def _with_attrs(head: str, spec, defaults) -> str:
    """`head`, then `key=value` for each attribute of `spec` that differs from its default."""
    parts = [head]
    for key, default in defaults:
        value = getattr(spec, key)
        if value != default:
            parts.append(f"{key}={format_rational(value)}")
    return " ".join(parts)


def serialize_network(network: Network) -> str:
    """Canonical `.snn` text: header, neurons, inputs, synapses, designations.

    Default-valued attributes are omitted; rationals print in lowest terms.
    A network that `validate_network` refuses raises InvalidNetworkError
    carrying exactly its violations, so the text of every network written
    here parses back to that network.
    """
    return _serialize_unchecked(check_network(network))


def parse_port_bindings(text: str) -> dict[str, SpikeSchedule]:
    """Parse a sidecar input file: one `port=<schedule>` line per port."""
    errors: list[str] = []
    bindings: dict[str, SpikeSchedule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        name = name.strip()
        if not eq or not is_valid_id(name):
            errors.append(f"line {lineno}: expected port=<schedule>")
            continue
        if name in bindings:
            errors.append(f"line {lineno}: duplicate port {name!r}")
            continue
        value = value.strip()
        if value.startswith("periodic:"):
            pieces = value.split(":")
            if len(pieces) != 3:
                errors.append(f"line {lineno}: periodic schedule is periodic:<offset>:<period>")
                continue
            try:
                sched = PeriodicSchedule(parse_int(pieces[1]), parse_int(pieces[2]))
            except ValueError:
                errors.append(f"line {lineno}: malformed periodic schedule {value!r}")
                continue
        else:
            times = _parse_times(value, lineno, errors)
            if times is None:
                continue
            sched = ExplicitSchedule(times)
        if _rules_hold(schedule_violations(sched), lineno, errors):
            bindings[name] = sched
    if errors:
        raise NetworkFormatError(errors)
    return bindings


def serialize_port_bindings(bindings: Mapping[str, SpikeSchedule]) -> str:
    """Sidecar text, one `port=<schedule>` line per port in sorted order.

    A port name that `is_valid_id` refuses, or a schedule that breaks the
    model's rules, which `parse_port_bindings` would refuse or read back as
    another binding, raises InvalidNetworkError naming each.
    """
    errors = []
    for name, sched in bindings.items():
        if not is_valid_id(name):
            errors.append(f"port {name!r} cannot be written as a sidecar line")
        errors += (f"port {name!r}: {reason}" for reason in schedule_violations(sched))
    if errors:
        raise InvalidNetworkError(errors)
    lines = []
    for name in sorted(bindings):
        sched = bindings[name]
        if isinstance(sched, PeriodicSchedule):
            lines.append(f"{name}=periodic:{sched.offset}:{sched.period}")
        else:
            lines.append(f"{name}=" + ";".join(str(t) for t in sched.times))
    return "\n".join(lines) + ("\n" if lines else "")
