"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for path in (ROOT / "src" / "clutterkit").glob("*.py")
    if path.name != "__init__.py"  # the package namespace re-exports by import
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read anywhere in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations such as -> "Clutter"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nx = gcd(1, 2)\n"
    assert unused_imports(source) == ["line 2: comb", "line 1: os"]
    assert unused_imports("import os\nos.getcwd()\n") == []
    assert unused_imports("from a import Foo\ndef f() -> 'Foo': ...\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes that no module in ``sources`` refers to.

    A reference is a name, an attribute or an imported name anywhere in the
    modules, apart from a definition's references to itself.
    """
    defined, referenced = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_"):
                    defined[own] = module
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [f"{module}: {name}" for name, module in sorted(defined.items()) if name not in referenced]


def test_the_scan_sees_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used(): ...\ndef _left(): return _left()\nclass _Kept: ...\n",
        "b.py": "from a import _used\nimport a\nx = a._Kept\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py: _left"]


def test_every_private_definition_is_referenced():
    package = ROOT / "src" / "clutterkit"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []
