"""Guards against dead surface (unused imports, unreferenced private helpers,
unresolvable exports) and against imports from outside the standard
library."""

import ast
import sys
from pathlib import Path

import pytest

import sheafatlas

PACKAGE = Path(sheafatlas.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_guard_sees_unused_imports():
    source = "import os\nfrom .p3rr import chi_o_p3, h0_o_p3\nh0_o_p3(1)\n"
    assert unused_imports(source) == ["chi_o_p3", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_helpers(source: str) -> list[str]:
    """Module-level `_name` functions and classes the module never reads."""
    tree = ast.parse(source)
    private = {n.name for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and n.name.startswith("_")}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(private - used)


def test_the_guard_sees_dead_private_helpers():
    source = ("def _used():\n    pass\n\ndef _dead():\n    return _used()\n"
              "\nclass _Gone:\n    pass\n")
    assert dead_private_helpers(source) == ["_Gone", "_dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_dead_private_helpers(path):
    assert dead_private_helpers(path.read_text(encoding="utf-8")) == []


def test_every_exported_name_resolves():
    assert [n for n in sheafatlas.__all__ if not hasattr(sheafatlas, n)] == []


def absolute_imports(source: str) -> list[str]:
    """Top-level packages of absolute imports anywhere in the source,
    including imports inside functions and classes."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(roots)


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level packages of absolute imports outside the standard library."""
    return sorted(set(absolute_imports(source)) - set(sys.stdlib_module_names)
                  - {"__future__"})


def test_the_guard_sees_non_stdlib_imports():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import sympy\nfrom fractions import Fraction\n"
              "from .p3rr import chi_o_p3\nfrom . import render\n")
    assert non_stdlib_imports(source) == ["sympy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_stdlib_only(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_module_level_fractions():
    source = ("from fractions import Fraction\nimport math\n"
              "def f():\n    import decimal\n    return decimal\n")
    assert absolute_imports(source) == ["decimal", "fractions", "math"]
    # an import inside a function or method is seen as well
    source = ("class P:\n    def f(self):\n"
              "        from fractions import Fraction\n"
              "        return Fraction(1, 2)\n")
    assert absolute_imports(source) == ["fractions"]


@pytest.mark.parametrize("name", ["exactpoly", "p3rr"])
def test_integer_core_does_not_import_fractions(name):
    # The Riemann-Roch core computes in int, at module level and inside
    # every function; Fraction is for the closed-form c3 audit and the JSON
    # rationals, and the power-basis view lives with the tests.
    source = (PACKAGE / ("%s.py" % name)).read_text(encoding="utf-8")
    assert "fractions" not in absolute_imports(source)


# The stack, bottom first; a module imports only from layers below its own.
LAYER_RANK = {"exactpoly": 0, "p3rr": 1, "curvecoh": 2, "families": 2,
              "transform": 3, "atlas": 4, "render": 5, "cli": 6}


def sibling_imports(source: str) -> list[str]:
    """Package modules named by relative imports anywhere in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names |= {a.name for a in node.names}
    return sorted(names)


def test_the_guard_sees_sibling_imports():
    source = ("import os\nfrom .p3rr import chi_o_p3\n"
              "from . import render, transform\n"
              "def f():\n    from .exactpoly import HilbertPolynomial\n")
    assert sibling_imports(source) == ["exactpoly", "p3rr", "render",
                                       "transform"]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES) == sorted(LAYER_RANK)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_import_only_from_lower_layers(path):
    rank = LAYER_RANK[path.stem]
    imported = sibling_imports(path.read_text(encoding="utf-8"))
    assert [m for m in imported if LAYER_RANK[m] >= rank] == []


def reachable_modules(name: str) -> set[str]:
    """Package modules that `name` imports, directly or through siblings."""
    seen, todo = set(), [name]
    while todo:
        source = (PACKAGE / ("%s.py" % todo.pop())).read_text(encoding="utf-8")
        for module in sibling_imports(source):
            if module not in seen:
                seen.add(module)
                todo.append(module)
    return seen


def test_the_guard_sees_imports_through_siblings():
    # cli names no p3rr import of its own; it reaches p3rr through atlas
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "p3rr" not in sibling_imports(cli)
    assert {"atlas", "families", "p3rr"} <= reachable_modules("cli")


@pytest.mark.parametrize(
    "name", [p.stem for p in MODULES if p.stem != "exactpoly"])
def test_chern_numbers_do_not_import_exactpoly(name):
    # Chern numbers are read off integer values through p3rr's value form;
    # the binomial-coordinate class is exported by __init__ and reached by
    # no module, not even through the modules it imports.
    assert "exactpoly" not in reachable_modules(name)
