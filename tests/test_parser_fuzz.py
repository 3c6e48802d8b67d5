"""Malformed text reaches the user as the parsers' documented error types.

`.snn` and port-binding text may only raise NetworkFormatError, and host
programs only HostProgramError (the CLI maps both to its usage exit code).
Each parser gets arbitrary text and text shaped by its own grammar, with
good and bad tokens mixed, so most examples get past the first line.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit import hostprog, snnfmt

VALUES = st.sampled_from(
    ["", "0", "1", "-1", "3/4", "1/0", "2/-3", "0x10", "1e3", "1_0", "٣", "x", "1;2", "2;1", ";",
     "1;;2", "periodic:0:1", "periodic:1", "periodic:x:1", "periodic:1:", "periodic:-1:0", "9" * 5000]
)
WORDS = st.sampled_from(["->", "=", "#", "é", "", "periodic", "goto", "--array"]) | st.text(max_size=4)
IDS = st.sampled_from(["a", "b", "acc", "a_1", "", "->", "é"])


def _word(*choices):
    return st.sampled_from(choices)


def _attrs(*keys):
    return st.lists(st.builds("{}={}".format, st.sampled_from(keys), VALUES) | WORDS, max_size=3)


def _line(*parts):
    """Space-separated words; a part draws one word or a list of them."""

    def join(drawn):
        return " ".join(w for part in drawn for w in (part if isinstance(part, list) else [part]))

    return st.tuples(*parts).map(join)


def _text(*lines):
    """One to four lines, each of one of the given shapes."""
    return st.lists(st.one_of(*lines), min_size=1, max_size=4).map("\n".join)


SNN_TEXT = st.builds(
    "{}\n{}".format,
    _word("snn 1", "snn 1", "snn 2"),
    _text(
        _line(_word("neuron"), IDS, _attrs("threshold", "reset", "leak")),
        _line(
            _word("input"), IDS, st.lists(_word("periodic"), max_size=1),
            _attrs("schedule", "offset", "period"),
        ),
        _line(_word("synapse"), IDS, _word("->", "-"), IDS, _attrs("delay", "weight")),
        _line(_word("accept", "reject", "gadget"), IDS, st.lists(IDS, max_size=1)),
    ),
)
BINDINGS_TEXT = _text(st.builds("{}={}".format, IDS, VALUES))
HOST_TEXT = _text(
    _line(
        _word("let"), IDS, _word("=", "=="), _word("compile"),
        st.lists(_word("array-search", "--variant", "--array", "a", "1,2") | VALUES, max_size=5),
    ),
    _line(
        _word("let"), IDS, _word("="), _word("oracle"), IDS,
        st.lists(
            st.builds("{}={}".format, _word("time", "space", "energy", "inputs", "x"), VALUES),
            min_size=3, max_size=4,
        ),
    ),
    _line(
        _word("if"), st.builds("{}{}".format, IDS, _word("", "=accepted", "=x", "=")),
        _word("goto", "goto", "go"), IDS,
    ),
    _line(_word("label", "label", "accept", "reject"), st.lists(IDS, min_size=1, max_size=2)),
)

FUZZ = settings(max_examples=100, deadline=None)


def _parses_or_raises(parse, error, text):
    try:
        parse(text)
    except error:
        pass


@FUZZ
@given(st.text(max_size=200) | SNN_TEXT)
def test_parse_network_raises_only_format_errors(text):
    _parses_or_raises(snnfmt.parse_network, snnfmt.NetworkFormatError, text)


@FUZZ
@given(st.text(max_size=200) | BINDINGS_TEXT)
def test_parse_port_bindings_raises_only_format_errors(text):
    _parses_or_raises(snnfmt.parse_port_bindings, snnfmt.NetworkFormatError, text)


@FUZZ
@given(st.text(max_size=200) | HOST_TEXT)
def test_parse_program_raises_only_host_errors(text):
    _parses_or_raises(hostprog.parse_program, hostprog.HostProgramError, text)
