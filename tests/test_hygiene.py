"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "clutterkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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


def referenced_names(node) -> list[str]:
    """Every name, attribute and imported name under ``node``."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


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
            referenced.update(name for name in referenced_names(node) if name != own)
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


def uncalled_public_definitions(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Public top-level functions and classes in ``sources``, and the public
    methods of those classes, that nothing live refers to.

    Module code outside every definition, and all of ``callers``, is live.
    A definition becomes live when live code refers to it: a top-level one
    by a name, an attribute or an imported name, a method only by an
    attribute (``.name``), and only once its class is live.  A live
    definition's own body is then live, apart from its public methods, and
    this repeats until nothing changes.  So a definition that only dead code
    refers to is dead too.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names, attributes = set(), set()

    def run(nodes) -> None:
        for node in nodes:
            names.update(referenced_names(node))
            attributes.update(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

    run(ast.parse(source) for source in callers.values())
    units = []  # (module, label, name, class name or None, body nodes)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, defs):
                run([node])
                continue
            methods = [
                sub for sub in node.body if isinstance(sub, defs) and not sub.name.startswith("_")
            ] if isinstance(node, ast.ClassDef) else []
            rest = [sub for sub in ast.iter_child_nodes(node) if sub not in methods]
            units.append((module, node.name, node.name, None, rest))
            for method in methods:
                units.append((module, f"{node.name}.{method.name}", method.name, node.name, [method]))
    live = set()
    changed = True
    while changed:
        changed = False
        for module, label, name, owner, body in units:
            if label not in live and (owner in live and name in attributes if owner else name in names):
                live.add(label)
                run(body)
                changed = True
    return [
        f"{module}: {label}"
        for module, label, name, owner, body in units
        if label not in live and not label.startswith("_")
    ]


def test_the_scan_sees_an_uncalled_public_definition():
    sources = {
        "a.py": "def used(): ...\ndef left(): return left()\nclass Kept:\n"
        "    def go(self): ...\n    def stay(self): return self.stay()\n    def _own(self): ...\n",
        "b.py": "from a import used\nx = used().go\n",
    }
    assert uncalled_public_definitions(sources, {"bench.py": "import a\na.Kept()\n"}) == [
        "a.py: left",
        "a.py: Kept.stay",
    ]


def test_the_scan_counts_a_method_called_only_through_an_attribute():
    # a local variable that shares a method's name does not call the method
    source = (
        "class Box:\n    def faces(self): ...\n    def size(self): ...\n"
        "    def build(self):\n        faces = 1\n        return faces + self.size()\n"
        "x = Box().build()\n"
    )
    assert uncalled_public_definitions({"a.py": source}, {}) == ["a.py: Box.faces"]


def test_the_scan_sees_a_definition_only_dead_code_refers_to():
    # helper is called only by dead code, directly and through a private function
    source = (
        "class Row: ...\ndef helper(): return Row()\ndef _middle(): return helper()\n"
        "def dead(): return _middle()\ndef live(): ...\nlive()\n"
    )
    assert uncalled_public_definitions({"a.py": source}, {}) == [
        "a.py: Row", "a.py: helper", "a.py: dead"
    ]


# Public definitions that only the tests call, each kept for the check it serves.
KEPT_FOR_TESTS = {
    "Clutter.empty": "the empty clutter of the edge-case tests",
    "Clutter.maximal_cliques_containing": "the exposure oracle: exposed iff one maximal clique",
    "Clutter.clique_complex": "the clique complex that the clutter, homology and acceptance tests read",
    "SimplicialComplex.from_faces": "builds complexes from any face list in the f- and h-vector tests",
    "SimplicialComplex.reduced_euler_characteristic": "the Euler check on reduced homology",
    "SquarefreeIdeal.zero": "the zero-ideal edge case of the colon and quotient-order tests",
    "QuotientOrderReport.ell_sequence": "a quotient order's colon counts, against the shelling's",
    "write_weighted_graph": "the weighted-graph format round trip",
    "shelling_to_erasures": "the inverse of erasures_to_shelling in the shelling round trip",
    "check_contractible_extendable": "a probe that the shelling tests run; the CLI exposes only Simon's",
}


def test_every_public_definition_has_a_caller():
    package = ROOT / "src" / "clutterkit"
    sources = {path.name: path.read_text() for path in SOURCES if path.parent == package}
    callers = {path.name: path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))}
    kept = {label.split(": ")[1] for label in uncalled_public_definitions(sources, callers)}
    assert kept == set(KEPT_FOR_TESTS)


def unset_default_parameters(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Parameters with a default that no call in ``sources`` or ``callers`` sets.

    The definitions are the top-level functions of ``sources`` and the
    methods of their top-level classes, labelled ``module.name(parameter)``.
    A call matches a definition by its bare name (``f(...)`` or
    ``x.f(...)``), so a call to another function of the same name counts
    too.  A call sets a parameter by keyword, by position (a method's
    first parameter is bound by the attribute, unless it is a static
    method), or through ``*args`` or ``**kwargs``, which set them all.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    candidates = []  # (label, name, position or None, keyword)
    for module, source in sources.items():
        stem = module.removesuffix(".py")
        for node in ast.parse(source).body:
            found = [(node, stem, 0)] if isinstance(node, defs) else []
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs):
                        static = any(getattr(dec, "id", None) == "staticmethod" for dec in sub.decorator_list)
                        found.append((sub, f"{stem}.{node.name}", 0 if static else 1))
            for func, owner, bound in found:
                positional = func.args.posonlyargs + func.args.args
                first = len(positional) - len(func.args.defaults)
                for position, arg in enumerate(positional[first:], start=first - bound):
                    kw = None if arg in func.args.posonlyargs else arg.arg
                    candidates.append((f"{owner}.{func.name}({arg.arg})", func.name, position, kw))
                for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
                    if default is not None:
                        candidates.append((f"{owner}.{func.name}({arg.arg})", func.name, None, arg.arg))
    setters: dict[str, list[tuple[float, set]]] = {}  # name -> (positional count, keywords) per call
    for source in list(sources.values()) + list(callers.values()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {kw.arg for kw in node.keywords}
                setters.setdefault(name, []).append((float("inf") if spread else len(node.args), keywords))
    return [
        label
        for label, name, position, keyword in candidates
        if not any(
            (position is not None and count > position) or keyword in keywords or None in keywords
            for count, keywords in setters.get(name, [])
        )
    ]


def test_the_scan_sees_a_default_no_call_sets():
    sources = {
        "a.py": "def f(x, y=1, z=2): ...\nclass C:\n    def m(self, w=0): ...\n"
        "f(0, 5)\nC().m(w=3)\n",
    }
    assert unset_default_parameters(sources, {}) == ["a.f(z)"]
    assert unset_default_parameters(sources, {"bench.py": "from a import f\nf(1, z=3)\n"}) == []


# Parameters with a default that nothing in src/ or perfbench/ sets, each kept for a reason.
KEPT_DEFAULTS = {
    "cli.main(argv)": "the in-process entry point that the tests call with an argument list",
    "graphs.random_connected_chordal(target_edges)":
        "test_mst_intermediate_states_stay_connected_chordal draws a 12-edge graph",
    "shelling.shelling_to_erasures(d)": "the void shelling carries no dimension",
}


def test_every_default_parameter_has_a_caller():
    package = ROOT / "src" / "clutterkit"
    sources = {path.name: path.read_text() for path in SOURCES if path.parent == package}
    callers = {path.name: path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert set(unset_default_parameters(sources, callers)) == set(KEPT_DEFAULTS)


def unbounded_caches(sources: dict[str, str]) -> list[str]:
    """Functions in ``sources`` memoized by ``functools.cache`` or by an
    ``lru_cache`` whose ``maxsize`` is None, labelled ``module.name``.

    Only decorators count: a plain dict used as a cache, such as
    ``homology._homology_cache``, is outside this scan.
    """
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name == "cache":
                    unbounded = True
                elif name == "lru_cache" and call:
                    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
                    unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
                else:  # a bare @lru_cache keeps 128 entries
                    unbounded = False
                if unbounded:
                    found.append(f"{module.removesuffix('.py')}.{node.name}")
    return found


def test_the_scan_sees_an_unbounded_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): ...\n@functools.lru_cache(None)\ndef b(): ...\n"
        "@cache\ndef c(): ...\n@functools.cache\ndef d(): ...\n"
        "@lru_cache(maxsize=1 << 12)\ndef e(): ...\n@lru_cache\ndef f(): ...\n"
        "@lru_cache(64)\ndef g(): ...\n"
    )
    assert unbounded_caches({"m.py": source}) == ["m.a", "m.b", "m.c", "m.d"]


# Caches kept without a bound, each with the reason it stays small.
KEPT_UNBOUNDED = {
    "clutter.all_d_subsets": "one entry per (n, d)",
    "clutter.d_subset_index": "one entry per (n, d)",
    "clutter.d_subset_masks": "one entry per (n, d)",
    "homology._within_table": "one entry per (n, d)",
}


def test_every_cache_is_bounded():
    package = ROOT / "src" / "clutterkit"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert set(unbounded_caches(sources)) == set(KEPT_UNBOUNDED)
