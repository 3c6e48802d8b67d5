"""Which of the package's modules may import which, and which owns which rule.

`harness` is the generic frame: the metered generator, the oracle, the
compiler registry and the equivalence sweep. Problem families (array search
in `arraysearch`) build on it and register their compilers with it, so the
harness may import the machine layers beneath it but no family. The gadgets
build their networks through `NetworkBuilder`, and the rules for a
well-formed neuron, schedule and synapse delay, and for rebinding a
schedule, are written once, in `model`. The port rule of a compiled
structure is written once, in `harness`, and the host language binds only
through it, as is the rule that caps every measured run by the declared caps. Generator cost is read off the generated network, so no module
needs a builder of its own. The `.snn` parser keeps its caches on the
parser object, so none outlives one parse.
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


def _call_name(call: ast.Call) -> str | None:
    """The name a call is made by, as a bare name or as an attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _called_names(tree: ast.AST) -> set[str]:
    """Names called in `tree`, as a bare name or as an attribute."""
    return {_call_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_gadgets_construct_no_synapse():
    assert "SynapseSpec" not in _called_names(_trees()["gadgets"])


def test_binding_rule_is_called_in_model_only():
    callers = {
        module for module, tree in _trees().items() if "checked_bindings" in _called_names(tree)
    }
    assert callers == {"model"}


def test_host_binds_ports_through_the_port_rule():
    # A network's schedules are rebound directly only by the plan, the port
    # rule and `.snn` sidecars, which have no ports; the host language binds
    # through `CompiledStructure.bind` and never looks at programmed neurons.
    callers = {
        module for module, tree in _trees().items() if "bind_schedules" in _called_names(tree)
    }
    assert callers == {"engine", "harness", "cli"}
    reads = [
        node
        for node in ast.walk(_trees()["hostprog"])
        if isinstance(node, ast.Attribute) and node.attr == "programmed"
    ]
    assert reads == []


def test_harness_caps_runs_by_the_declared_caps_only():
    # One rule derives every measured run's step cap from the caps; entries
    # keep `step_limit` for callers outside the library only.
    reads = [
        node
        for node in ast.walk(_trees()["harness"])
        if isinstance(node, ast.Attribute) and node.attr == "step_limit"
    ]
    assert reads == []


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


# Each neuron, schedule and synapse delay rule's reason.
RULE_REASONS = (
    r"threshold must be >= 0",
    r"reset must be >= 0",
    r"leak must be in \[0, 1\]",
    r"schedule times must be",
    r"offset (must be|>=)",
    r"(?<!clock )period (must be|>=)",
    r"delay must be >= 1",
)


def test_neuron_and_schedule_rules_live_in_model_only():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for reason in RULE_REASONS:
            assert bool(re.search(reason, text)) == (path.stem == "model"), (path.name, reason)


def test_parse_caches_live_on_the_parser():
    # A container assigned in the module or in a class body would outlive one parse.
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    builders = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    module = _trees()["snnfmt"].body
    statements = module + [node for cls in module if isinstance(cls, ast.ClassDef) for node in cls.body]
    assigned = set()
    for node in statements:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, containers) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in builders
        ):
            assigned.update(getattr(target, "id", None) for target in targets)
    assert assigned == {"_DIRECTIVES"}


def _innermost_callers(tree: ast.AST, names: set[str]) -> set[str]:
    """The functions whose own bodies, not those of functions nested in them, call one of `names`.

    A call counts by its bare name or its attribute name.
    """
    callers = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call) and _call_name(child) in names:
                callers.add(function)
            visit(child, function)

    visit(tree, "<module>")
    return callers


def test_array_search_wires_its_network_in_one_function():
    # The three variants compile one network and differ only in its arguments.
    wiring = {"add_neuron", "add_input", "add_synapse", "set_accept", "set_reject"}
    callers = _innermost_callers(_trees()["arraysearch"], wiring)
    assert len(callers) == 1 and "<module>" not in callers, callers


def test_network_writer_checks_through_the_model_rule_only():
    # `serialize_network` refuses what `validate_network` refuses, so neither
    # the rest of `snnfmt` nor the command line checks a network it writes.
    assert _innermost_callers(_trees()["snnfmt"], {"check_network"}) == {"serialize_network"}
    assert "check_network" not in _called_names(_trees()["cli"])
