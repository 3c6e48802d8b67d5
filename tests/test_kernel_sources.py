"""The pure kernel and the Cython source read the plan the same way.

The compiled kernel is only built where Cython is installed, so its
cross-backend tests may skip. These checks read both sources as text: each
must unpack the plan tuple `engine.Plan.kernel_fields` gives into the same
names, iterate outgoing entries with the same fields as `Plan.out` holds,
and keep every gcd out of `step`.
"""

import re
from pathlib import Path

import pytest

import snnkit
from snnkit.engine import build_plan
from snnkit.randnet import random_network

PACKAGE = Path(snnkit.__file__).parent
SOURCES = {name: (PACKAGE / name).read_text() for name in ("_kernel_py.py", "_kernel_cy.pyx")}


def _only(pattern, text):
    found = re.findall(pattern, text, re.MULTILINE)
    assert len(found) == 1, (pattern, found)
    return tuple(name.strip() for name in found[0].split(","))


def _plan_fields(text):
    return _only(r"^\s*\(([\w\s,]+)\) = plan$", text)


def _out_fields(text):
    return _only(r"^\s*for ([\w\s,]+) in self\.out\[k\]:$", text)


def _step_body(text):
    start = text.index("    def step(self):")
    return text[start:text.index("\n    def ", start + 1)]


def test_kernels_unpack_the_plan_alike():
    py, cy = (_plan_fields(text) for text in SOURCES.values())
    assert py == cy
    assert len(py) == len(build_plan(random_network(0)).kernel_fields())


def test_kernels_read_outgoing_entries_alike():
    py, cy = (_out_fields(text) for text in SOURCES.values())
    assert py == cy
    plan = build_plan(random_network(0))
    entries = [entry for out in plan.out for entry in out]
    assert entries and {len(entry) for entry in entries} == {len(py)}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_step_computes_no_gcd(name):
    assert "gcd" not in _step_body(SOURCES[name])
