"""Which of the package's modules may import which, and which owns which rule.

`harness` is the generic frame: the metered generator, the oracle, the
compiler registry and the equivalence sweep. Problem families (array search
in `arraysearch`) build on it and register their compilers with it, so the
harness may import the machine layers beneath it but no family. The gadgets
build their networks through `NetworkBuilder`, and the rules for a
well-formed neuron and schedule are written once, in `model`. The port rule
of a compiled structure is written once, in `harness`, and generator cost is
read off the generated network, so no module needs a builder of its own.
These checks read the sources as text and import nothing.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "snnkit"

# The layers beneath the harness: the network model, the engine and the gadgets.
MACHINE_LAYERS = {"model", "engine", "gadgets", "_kernel"}


def _package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, by their names within the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            dotted = [f"snnkit.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "snnkit":
            dotted = [f"snnkit.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [node.module or ""]
        else:
            continue
        imported.update(name.split(".")[1] for name in dotted if name.startswith("snnkit."))
    return imported


def test_harness_imports_no_problem_family():
    assert _package_imports("harness") <= MACHINE_LAYERS


def test_array_search_registers_its_own_compilers():
    tree = ast.parse((PACKAGE / "arraysearch.py").read_text())
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "register_compiler" in called
    assert "harness" in _package_imports("arraysearch")


def test_gadgets_build_through_the_builder():
    tree = ast.parse((PACKAGE / "gadgets.py").read_text())
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "Network" not in called
    assert not imported & {"validate_network", "InvalidNetworkError", "check_network"}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_port_rule_lives_in_harness_only():
    definers = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("check_ports", "bind")
    }
    assert definers == {"harness"}


def test_no_module_subclasses_the_builder():
    subclasses = {
        (module, node.name)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for base in node.bases
        if "NetworkBuilder" in {getattr(base, "id", None), getattr(base, "attr", None)}
    }
    assert subclasses == set()


# Each neuron and schedule rule's reason. The synapse delay rule is left
# out: the parser checks it inline on purpose, as the sparse set-up path.
RULE_REASONS = (
    r"threshold must be >= 0",
    r"reset must be >= 0",
    r"leak must be in \[0, 1\]",
    r"schedule times must be",
    r"offset (must be|>=)",
    r"(?<!clock )period (must be|>=)",
)


def test_neuron_and_schedule_rules_live_in_model_only():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for reason in RULE_REASONS:
            assert bool(re.search(reason, text)) == (path.stem == "model"), (path.name, reason)
