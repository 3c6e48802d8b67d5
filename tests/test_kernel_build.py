"""The kernel's one source and the declarations its optional Cython build reads.

setup.py compiles `_kernel.py` with the C types in `_kernel.pxd`, and marks
the extension optional, so a stale `.pxd` or a wrong source path would only
show as a silent fall-back to the pure build. Cython need not be installed
for these checks: they read the repository's files as text.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_PY = (ROOT / "src" / "snnkit" / "_kernel.py").read_text()
KERNEL_PXD = (ROOT / "src" / "snnkit" / "_kernel.pxd").read_text()


def _kernel_class():
    tree = ast.parse(KERNEL_PY)
    [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Kernel"]
    return cls


def _pxd_declarations():
    """Attribute and method names declared in the `.pxd`'s `cdef class Kernel`."""
    attributes, methods = set(), set()
    for line in KERNEL_PXD.split("cdef class Kernel:\n", 1)[1].splitlines():
        if line and not line[0].isspace():
            break
        line = line.strip()
        if not line.startswith(("cdef ", "cpdef ")):
            continue
        if "(" in line:
            methods.add(re.search(r"(\w+)\(", line).group(1))
        else:
            first, *rest = line.split(",")
            attributes.add(first.split()[-1])
            attributes.update(name.strip() for name in rest)
    return attributes, methods


def _pxd_locals():
    """{method: names} declared by each `@cython.locals(...)` in the `.pxd`."""
    declared = {}
    for args, method in re.findall(r"@cython\.locals\(([^)]*)\)\s*cp?def [^(]*?(\w+)\(", KERNEL_PXD):
        declared[method] = set(re.findall(r"(\w+)\s*=", args))
    return declared


def test_step_computes_no_gcd():
    [step] = [node for node in _kernel_class().body if getattr(node, "name", None) == "step"]
    assert "gcd" not in ast.get_source_segment(KERNEL_PY, step)


def test_pxd_declares_exactly_the_attributes_the_kernel_sets():
    assigned = {
        node.attr
        for node in ast.walk(_kernel_class())
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    attributes, _ = _pxd_declarations()
    assert attributes == assigned


def test_pxd_methods_exist_in_the_kernel():
    defined = {node.name for node in _kernel_class().body if isinstance(node, ast.FunctionDef)}
    _, methods = _pxd_declarations()
    assert {"step"} <= methods <= defined


def test_setup_compiles_the_kernel_source():
    setup = (ROOT / "setup.py").read_text()
    [(module, source)] = re.findall(r'Extension\(\s*"([\w.]+)",\s*\["([^"]+)"\]', setup)
    assert (ROOT / source).is_file(), source
    assert (ROOT / source).with_suffix(".pxd").is_file(), source
    assert Path(source).with_suffix("").parts[-2:] == tuple(module.split("."))


def test_pxd_locals_are_locals_of_their_method():
    # Cython is not installed everywhere the suite runs, so a declaration of
    # a name the method no longer binds would only fail where it compiles.
    methods = {node.name: node for node in _kernel_class().body if isinstance(node, ast.FunctionDef)}
    declared = _pxd_locals()
    assert "step" in declared
    for method, names in declared.items():
        bound = {
            node.id
            for node in ast.walk(methods[method])
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert names <= bound, method


def test_pxd_leaves_big_integers_untyped():
    # Potentials, leak powers and weights are big integers on the rational
    # path; a C type would overflow them.
    code = re.sub(r"#.*", "", KERNEL_PXD)
    assert not {"nu", "du", "w"} & set(re.findall(r"\w+", code))
