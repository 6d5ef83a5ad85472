"""The README's code is true: its Library example prints what its comments
say, and every backticked `module.name` in it or in a package docstring
names something the package defines."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import sheafatlas.cli  # noqa: F401  (loads every package module)

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = ("p3rr", "exactpoly", "curvecoh", "families", "transform", "atlas",
           "render", "cli")
# a backticked span that starts with a dotted name in the package
REFERENCE = re.compile(r"(?:sheafatlas|%s)(?:\.\w+)+" % "|".join(MODULES))


def test_library_example_prints_its_comments():
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert len(expected) >= 3
    assert out.getvalue().splitlines() == expected


def _docstrings(source):
    """The docstrings of a module's source: those of its module, classes
    and functions, and the strings it assigns to a `<name>.__doc__`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            yield ast.get_docstring(node) or ""
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant)
              and type(node.value.value) is str
              and any(isinstance(t, ast.Attribute) and t.attr == "__doc__"
                      for t in node.targets)):
            yield node.value.value


def test_docstrings_include_doc_assignments():
    source = '''"""Module text."""
Pair = namedtuple("Pair", "a b")
Pair.__doc__ = """Set after the class."""
Pair.__name__ = "not a docstring"
def f():
    "Function text."
'''
    assert sorted(_docstrings(source)) == [
        "Function text.", "Module text.", "Set after the class."]


def _references(text):
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        match = REFERENCE.match(span)
        if match:
            yield match.group(0)


def _resolves(name) -> bool:
    obj = importlib.import_module("sheafatlas")
    for part in name.removeprefix("sheafatlas.").split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_backticked_names_resolve():
    modules = [importlib.import_module(name) for name in
               ("sheafatlas", *("sheafatlas." + m for m in MODULES))]
    texts = [README, *(doc for m in modules for doc in
                       _docstrings(Path(m.__file__).read_text()))]
    names = {n for text in texts for n in _references(text)}
    assert len(names) >= 10
    assert [n for n in sorted(names) if not _resolves(n)] == []
