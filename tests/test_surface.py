"""Guards against dead surface (unused imports, unreferenced private helpers,
names the benchmark looks up that do not resolve), against imports from
outside the standard library, and against a module that imports, or loads
at run time, a layer at or above its own."""

import ast
import subprocess
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


def assert_lines(source: str) -> list[int]:
    """Line numbers of `assert` statements anywhere in the source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Assert))


def test_the_guard_sees_asserts():
    source = ("def f(x):\n    assert x > 0\n    return x\n"
              "class C:\n    def g(self):\n        assert self, 'no'\n")
    assert assert_lines(source) == [2, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_assert_in_package(path):
    # python -O strips assert, so certificates raise CertificateError instead
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def value_rebuilds(source: str) -> list[int]:
    """Line numbers of `._replace` and `._make` anywhere in the source: both
    build a named tuple without its __new__, so they skip validation."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute)
                  and n.attr in ("_replace", "_make"))


def test_the_guard_sees_value_rebuilds():
    source = ("x = opts._replace(k=2)\ny = ChernData._make(row)\n"
              "z = text.replace('a', 'b')\n")
    assert value_rebuilds(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_value_rebuilds_in_package(path):
    assert value_rebuilds(path.read_text(encoding="utf-8")) == []


def child_stdout(snippet: str) -> str:
    """The stdout of `snippet` run in a fresh `python -S` that imports the
    package from this checkout; the snippet may use `sys`."""
    script = "import sys; sys.path.insert(0, %r)\n%s" % (str(PACKAGE.parent),
                                                        snippet)
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_cli_import_skips_dataclasses_and_inspect():
    # each command is a fresh process, so start-up is paid on every call;
    # the package computes in int, so the rational stack stays unloaded too,
    # and only the table imports array, when it is written
    stdout = child_stdout(
        "import sheafatlas.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', "
        "'decimal', 'numbers', 'array'} & set(sys.modules)))")
    assert stdout == "[]\n"


def bare_value_subclasses(source: str) -> list[str]:
    """Classes built on a `namedtuple(...)` call that define no `__new__`,
    method or property: each is the named tuple itself, written twice."""
    bare = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Call) and ast.unparse(b.func) in
                        ("namedtuple", "collections.namedtuple")
                        for b in node.bases)
                and not any(isinstance(n, ast.FunctionDef)
                            for n in node.body)):
            bare.append(node.name)
    return sorted(bare)


def test_the_guard_sees_bare_value_subclasses():
    source = (
        'class Bare(namedtuple("Bare", "x")):\n'
        '    """Documented, but nothing more."""\n    __slots__ = ()\n'
        'class Dotted(collections.namedtuple("Dotted", "x")):\n    pass\n'
        'class Checked(namedtuple("Checked", "x")):\n'
        '    def __new__(cls, x):\n        return tuple.__new__(cls, (x,))\n'
        'class Shown(namedtuple("Shown", "x")):\n    @property\n'
        '    def y(self):\n        return self.x\n'
        'class Other(tuple):\n    __slots__ = ()\n'
        'Plain = namedtuple("Plain", "x")\n')
    assert bare_value_subclasses(source) == ["Bare", "Dotted"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_bare_value_subclasses(path):
    assert bare_value_subclasses(path.read_text(encoding="utf-8")) == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Names the benchmark's tracer still looks up although the package no longer
# defines them; the tracer reads each as 0 rather than failing.
TRACER_DEAD_NAMES = dict.fromkeys((
    "atlas.enumerate_components",
    "exactpoly.HilbertPolynomial.twist",
    "families.hp_of_family",
    "p3rr.hp_o_p3",
    "p3rr.chern_from_hp",
    "p3rr.hp_from_chern",
    "render.atlas_json",
    "render.atlas_csv",
    "render.atlas_table",
), "dropped by ROADMAP item 1")


def tracer_lookups(source: str) -> set[str]:
    """Dotted names, relative to the package, that the tracer's source looks
    up by string: the literal arguments of `count`, `span_total` and
    `names.index`, the literals compared with `name ==`, the `render`
    functions keyed in RENDER_FORMATS, the modules in LAYERS, and attributes
    read off `modules["layer"]`."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in ("count", "span_total")
                    or (func.attr == "index"
                        and getattr(func.value, "attr", None) == "names")):
                found |= {a.value for a in node.args[:1]
                          if isinstance(a, ast.Constant)}
        elif (isinstance(node, ast.Compare)
              and getattr(node.left, "id", None) == "name"
              and isinstance(node.ops[0], ast.Eq)):
            found |= {c.value for c in node.comparators
                      if isinstance(c, ast.Constant)}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Subscript)
              and getattr(node.value.value, "id", None) == "modules"
              and isinstance(node.value.slice, ast.Constant)):
            found.add("%s.%s" % (node.value.slice.value, node.attr))
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target == "LAYERS":
                found |= set(ast.literal_eval(node.value))
            elif target == "RENDER_FORMATS":
                found |= {"render." + f for f in ast.literal_eval(node.value)}
    return found


def test_the_guard_sees_tracer_lookups():
    source = (
        'LAYERS = ("p3rr", "cli")\n'
        'RENDER_FORMATS = {"report_json": "json"}\n'
        'def f(tracer, name, modules, codes, code):\n'
        '    tracer.count("transform.chi_l") + codes.count(code)\n'
        '    tracer.span_total("atlas.verify_atlas")\n'
        '    tracer.names.index("families.chern_of")\n'
        '    if name == "atlas.solve_sabc" or name in RENDER_FORMATS:\n'
        '        return modules["exactpoly"].HilbertPolynomial\n')
    assert sorted(tracer_lookups(source)) == [
        "atlas.solve_sabc", "atlas.verify_atlas", "cli",
        "exactpoly.HilbertPolynomial", "families.chern_of", "p3rr",
        "render.report_json", "transform.chi_l"]


def unresolved_after_cli_import(names) -> list[str]:
    """The names that do not resolve in a fresh process after `import
    sheafatlas.cli`, the only import the tracer makes: the first part must
    be a loaded `sheafatlas` module, the rest attributes of it."""
    return child_stdout(
        "import sheafatlas.cli\n"
        "for name in %r:\n"
        "    first, *rest = name.split('.')\n"
        "    obj = sys.modules.get('sheafatlas.' + first)\n"
        "    for part in rest:\n"
        "        obj = getattr(obj, part, None)\n"
        "    if obj is None:\n"
        "        print(name)\n" % sorted(names)).split()


def test_the_names_the_benchmark_looks_up_resolve():
    # A deleted name would turn its metric into a silent 0; a listed dead
    # name that the tracer stops looking up does not fail this test.
    looked_up = tracer_lookups(TRACER.read_text(encoding="utf-8"))
    assert len(looked_up) >= 10
    unresolved = unresolved_after_cli_import(looked_up | set(TRACER_DEAD_NAMES))
    assert [n for n in unresolved if n not in TRACER_DEAD_NAMES] == []
    assert sorted(TRACER_DEAD_NAMES) == sorted(unresolved)


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_integer_core_does_not_import_fractions(path):
    # Every module computes in int, at module level and inside every
    # function: the half-integral closed-form c3 travels as 2*c3, and the
    # power-basis view lives with the tests.
    source = path.read_text(encoding="utf-8")
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
    # only __init__ imports the binomial-coordinate class's module, for the
    # benchmark's tracer, and no module reaches it, not even through the
    # modules it imports.
    assert "exactpoly" not in reachable_modules(name)


@pytest.mark.parametrize("module", ["sheafatlas", *("sheafatlas." + m
                                                    for m in LAYER_RANK)])
def test_importing_a_layer_loads_only_the_layers_below_it(module):
    # The package root imports exactpoly and nothing else, so a layer's
    # import loads that layer, what its sources reach, and exactpoly; a name
    # re-exported from the root would load its layer for every import.
    layer = module.removeprefix("sheafatlas").removeprefix(".")
    expected = {"exactpoly"}
    if layer:
        expected |= {layer} | reachable_modules(layer)
    loaded = child_stdout(
        "import %s\nprint(*sorted(m.removeprefix('sheafatlas.') for m in "
        "sys.modules if m.startswith('sheafatlas.')))" % module)
    assert loaded.split() == sorted(expected)
