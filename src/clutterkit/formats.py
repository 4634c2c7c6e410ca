"""Flat-file formats: clutters, ideals, complexes, and weighted graphs.

All formats are line based; ``#`` starts a comment and blank lines are
skipped.  Parse errors carry the 1-based line number of the offender.
The ideal and weighted-graph readers import their kernels when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .clutter import Clutter
from .simplicial import SimplicialComplex

if TYPE_CHECKING:
    from .graphs import WeightedGraph
    from .ideals import SquarefreeIdeal


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _ints(body: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in body.split()]
    except ValueError:
        raise FormatError(f"expected integers, got {body!r}", lineno) from None


def _header(text: str, missing: str, arity: int, wrong: str):
    """The header's line number, its ``arity`` integers, and the content
    lines after it as ``(lineno, body)`` pairs.  A header of another arity
    gets the message ``wrong``."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines:
        raise FormatError(f"missing {missing} header", 1)
    lineno, body = lines[0]
    header = _ints(body, lineno)
    if len(header) != arity:
        raise FormatError(wrong, lineno)
    return lineno, header, lines[1:]


def _build(build, at: int, rows: list):
    """``build`` of the parsed ``(lineno, row)`` pairs; its ``ValueError`` becomes
    a ``FormatError``.  ``build([])`` at the header's line ``at`` and
    ``build([row])`` at each row's line run first, so an error names the line
    of the header or of the one row it is about; an error across rows names ``at``."""
    parts = [(at, [])] + [(lineno, [row]) for lineno, row in rows] + [(at, [row for _, row in rows])]
    for lineno, part in parts:
        try:
            value = build(part)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return value


def read_clutter(text: str) -> Clutter:
    """`n d` header, then one circuit per line as space-separated vertices."""
    at, (n, d), rows = _header(text, "`n d`", 2, "header must be `n d`")
    circuits = []
    for lineno, body in rows:
        vs = _ints(body, lineno)
        if len(vs) != d:
            raise FormatError(f"circuit has {len(vs)} vertices, expected {d}", lineno)
        circuits.append((lineno, tuple(vs)))
    return _build(lambda cs: Clutter.from_circuits(n, d, cs), at, circuits)


def write_clutter(clutter: Clutter) -> str:
    lines = [f"{clutter.n} {clutter.d}"]
    lines += [" ".join(map(str, e)) for e in clutter.circuits]
    return "\n".join(lines) + "\n"


def read_ideal(text: str) -> SquarefreeIdeal:
    """`n` header, then one squarefree monomial per line as variable indices.

    The line order is kept: it is the candidate quotient order.
    """
    from .ideals import SquarefreeIdeal

    at, (n,), rows = _header(text, "`n`", 1, "header must be a single variable count `n`")
    supports = []
    for lineno, body in rows:
        vs = _ints(body, lineno)
        if not vs:
            raise FormatError("empty monomial", lineno)
        supports.append((lineno, tuple(vs)))
    return _build(lambda ss: SquarefreeIdeal.from_supports(n, ss), at, supports)


def write_ideal(ideal: SquarefreeIdeal) -> str:
    lines = [str(ideal.n)]
    lines += [" ".join(map(str, g.support)) for g in ideal.generators]
    return "\n".join(lines) + "\n"


def read_complex(text: str) -> tuple[SimplicialComplex, list[tuple[int, ...]]]:
    """`n` header, then one facet per line; `-` denotes the empty facet.

    Returns the complex together with the facets in file order (shelling
    verification consumes the listed order).
    """
    at, (n,), rows = _header(text, "`n`", 1, "header must be a single vertex count `n`")
    facets = [(lineno, () if body == "-" else tuple(sorted(_ints(body, lineno)))) for lineno, body in rows]
    complex_ = _build(lambda fs: SimplicialComplex.from_facets(n, fs), at, facets)
    return complex_, [f for _, f in facets]


def write_complex(complex_: SimplicialComplex) -> str:
    lines = [str(complex_.n)]
    lines += [" ".join(map(str, f)) if f else "-" for f in complex_.facets]
    return "\n".join(lines) + "\n"


def read_weighted_graph(text: str) -> WeightedGraph:
    """Clutter format with d = 2 and a trailing rational weight per edge line."""
    from fractions import Fraction

    from .graphs import WeightedGraph

    wrong = "weighted graphs need header `n 2`"
    at, (n, d), rows = _header(text, "`n d`", 2, wrong)
    if d != 2:
        raise FormatError(wrong, at)
    edges = []
    first = {}  # edge -> (line, weight) where it first appears
    for lineno, body in rows:
        toks = body.split()
        if len(toks) != 3:
            raise FormatError("edge lines are `u v weight`", lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
            w = Fraction(toks[2])
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad edge line {body!r}", lineno) from None
        edge = (min(u, v), max(u, v))
        at_line, weight = first.setdefault(edge, (lineno, w))
        if weight != w:  # an equal repeat is one edge, as in read_clutter
            raise FormatError(f"edge {edge} has weight {w}, but {weight} on line {at_line}", lineno)
        edges.append((lineno, (u, v, w)))
    return _build(lambda es: WeightedGraph.from_edges(n, es), at, edges)


def write_weighted_graph(weighted: WeightedGraph) -> str:
    lines = [f"{weighted.graph.n} 2"]
    for edge, w in zip(weighted.graph.circuits, weighted.weights):
        lines.append(f"{edge[0]} {edge[1]} {w}")
    return "\n".join(lines) + "\n"
