"""Reduced simplicial homology over exact fields and Betti tables.

Graded Betti numbers of the squarefree ideal attached to the complement of
a clutter are computed with Hochster's formula: beta_{i,j} is the sum over
j-element vertex sets S of dim H~_{j-i-2} of the induced clique complex.
Ranks are exact: GF(2) uses bit-packed elimination, the rational field
uses fraction-free (Bareiss) integer elimination.  Induced-subcomplex
homology is memoized globally, keyed by the labeled induced subclutter, so
exhaustive sweeps over many clutters on the same vertex set share work.
The memo holds only the nonzero dimensions, as ``(k, dim)`` pairs, each
distinct pair one shared object; most induced subcomplexes are acyclic and
store ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .clutter import Clutter, SizeGuardError, all_d_subsets, vertex_mask
from .simplicial import SimplicialComplex

FIELDS = ("gf2", "rational")

HOCHSTER_MAX_N = 16
HOMOLOGY_MAX_N = 20


def _check_field(f: str) -> str:
    if f not in FIELDS:
        raise ValueError(f"unknown field {f!r}; choose one of {FIELDS}")
    return f


# -- exact rank ------------------------------------------------------------

def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of a matrix given as bitmask rows."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        r = row
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                rank += 1
                break
            r ^= p
    return rank


def rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals via fraction-free Gaussian elimination.

    Bareiss' division-exact update keeps every intermediate entry an
    integer minor of the input, so the result is exact for integer input.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, nrows):
            f = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - f * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


# -- reduced homology -------------------------------------------------------

def _boundary_rank(smaller: list[int], larger: list[int], fld: str) -> int:
    """Rank of the boundary map from the faces in `larger` to those in `smaller`.

    Faces are vertex bitmasks; `smaller` holds the faces one vertex shorter.
    """
    if not smaller or not larger:
        return 0
    index = {f: i for i, f in enumerate(smaller)}
    if fld == "gf2":
        rows = []
        for face in larger:
            row = 0
            m = face
            while m:
                low = m & -m
                row |= 1 << index[face ^ low]
                m ^= low
            rows.append(row)
        return rank_gf2(rows)
    rows = []
    width = len(smaller)
    for face in larger:
        row = [0] * width
        sign = 1
        m = face
        while m:
            low = m & -m
            row[index[face ^ low]] = sign
            sign = -sign
            m ^= low
        rows.append(row)
    return rank_exact(rows)


def _homology_from_levels(levels: list[list[int]], fld: str) -> tuple[int, ...]:
    """dim H~_k for k = -1 .. top, from faces-by-size bitmask lists.

    levels[r] lists the faces with r vertices; levels[0] == [0] whenever the
    complex is nonvoid.  Returns () for the void complex.
    """
    if not levels:
        return ()
    ranks = [0] * (len(levels) + 1)
    for r in range(1, len(levels)):
        ranks[r] = _boundary_rank(levels[r - 1], levels[r], fld)
    return tuple(
        len(levels[r]) - ranks[r] - ranks[r + 1] for r in range(len(levels))
    )


def reduced_homology_dims(complex_: SimplicialComplex, field: str = "gf2") -> dict[int, int]:
    """Reduced homology dimensions {k: dim H~_k} for k = -1 .. dim.

    The void complex yields {}; the irrelevant complex {()} yields {-1: 1}.
    """
    fld = _check_field(field)
    if complex_.is_void:
        return {}
    if complex_.n > HOMOLOGY_MAX_N:
        raise SizeGuardError(
            f"size guard: dense homology needs n <= {HOMOLOGY_MAX_N}, got n={complex_.n}"
        )
    levels = [
        [vertex_mask(f) for f in level] for level in complex_._faces_by_size
    ]
    dims = _homology_from_levels(levels, fld)
    return {k - 1: dims[k] for k in range(len(dims))}


# -- induced clique-complex homology, memoized ------------------------------

@lru_cache(maxsize=None)
def _within_table(n: int, d: int) -> list[int]:
    """For each vertex mask s, the bitmask of lex d-subset indices inside s."""
    table = [0] * (1 << n)
    for i, e in enumerate(all_d_subsets(n, d)):
        table[vertex_mask(e)] = 1 << i
    for b in range(n):
        bit = 1 << b
        for s in range(1 << n):
            if s & bit:
                table[s] |= table[s ^ bit]
    return table

_homology_cache: dict[tuple, tuple[tuple[int, int], ...]] = {}
_pairs: dict[tuple[int, int], tuple[int, int]] = {}  # one object per distinct (k, dim), shared by the memo


def _induced_clique_homology(n: int, d: int, fld: str, smask: int, cmask: int) -> tuple[tuple[int, int], ...]:
    """The nonzero ``(k, dim H~_{k-1})`` pairs of the clique complex of the
    induced subclutter.

    `smask` selects the vertex set, `cmask` the circuit indices inside it;
    the arguments are the ``_homology_cache`` key.
    """
    within = _within_table(n, d)
    nverts = smask.bit_count()
    levels: list[list[int]] = [[] for _ in range(nverts + 1)]
    sub = smask
    while True:
        size = sub.bit_count()
        if size < d or (within[sub] & ~cmask) == 0:
            levels[size].append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & smask
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    for level in levels:
        level.sort()
    dims = _homology_from_levels(levels, fld)
    return tuple(_pairs.setdefault(pair, pair) for pair in enumerate(dims) if pair[1])


# -- Betti tables ------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} of a squarefree ideal (not the quotient ring)."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    zero_ideal: bool = False

    def __post_init__(self):
        if self.zero_ideal and self.entries:
            raise ValueError("zero ideal has no Betti entries")
        for (i, j), b in self.entries.items():
            if i < 0 or b <= 0:
                raise ValueError(f"bad Betti entry beta_{{{i},{j}}} = {b}")

    def betti(self, i: int) -> int:
        return sum(b for (ii, _), b in self.entries.items() if ii == i)

    def betti_numbers(self) -> list[int]:
        """[beta_0, beta_1, ...] up to the projective dimension; [] for the zero ideal."""
        if self.zero_ideal or not self.entries:
            return []
        top = max(i for i, _ in self.entries)
        return [self.betti(i) for i in range(top + 1)]

    @property
    def pdim(self) -> int:
        if self.zero_ideal or not self.entries:
            raise ValueError("projective dimension is undefined for the zero ideal")
        return max(i for i, _ in self.entries)

    def is_linear(self, degree: int) -> bool:
        """True iff every nonzero entry sits on the diagonal j = i + degree."""
        return all(j == i + degree for (i, j) in self.entries)

    def to_json_dict(self, quotient: bool = False) -> dict:
        shift = 1 if quotient else 0
        entries = sorted((i + shift, j, b) for (i, j), b in self.entries.items())
        if quotient and not self.zero_ideal:
            entries = [(0, 0, 1)] + entries
        out: dict = {
            "entries": [list(e) for e in entries],
            "convention": "quotient" if quotient else "ideal",
        }
        if self.zero_ideal:
            out["zero_ideal"] = True
            out["pdim"] = None
        else:
            out["pdim"] = self.pdim + shift
        return out

    def diagram(self, quotient: bool = False) -> str:
        """Macaulay2-style Betti diagram (rows indexed by j - i)."""
        entries = dict(self.entries)
        if quotient:
            entries = {(i + 1, j): b for (i, j), b in entries.items()}
            entries[(0, 0)] = 1
        if not entries:
            return "(zero ideal)"
        imax = max(i for i, _ in entries)
        rows = sorted({j - i for i, j in entries})
        cols = list(range(imax + 1))
        grid = [["."] * len(cols) for _ in rows]
        for (i, j), b in entries.items():
            grid[rows.index(j - i)][i] = str(b)
        totals = [str(sum(b for (i, _), b in entries.items() if i == c)) for c in cols]
        width = max(len(x) for row in grid for x in row + totals + [str(c) for c in cols])
        head = " " * 7 + " ".join(f"{c:>{width}}" for c in cols)
        total = "total: " + " ".join(f"{t:>{width}}" for t in totals)
        body = [
            f"{rows[r]:>5}: " + " ".join(f"{x:>{width}}" for x in grid[r])
            for r in range(len(rows))
        ]
        return "\n".join([head, total] + body)


def hochster_betti_table(clutter: Clutter, field: str = "gf2") -> BettiTable:
    """Betti table of the circuit ideal of the complement clutter.

    That ideal is the Stanley-Reisner ideal of the clique complex, so each
    graded piece is a sum of reduced homology of induced subcomplexes.  A
    complete clutter has an empty complement and yields the zero ideal.
    """
    fld = _check_field(field)
    n, d = clutter.n, clutter.d
    if n > HOCHSTER_MAX_N:
        raise SizeGuardError(f"size guard: Hochster sweep needs n <= {HOCHSTER_MAX_N}, got n={n}")
    if len(clutter) == len(all_d_subsets(n, d)):
        return BettiTable(zero_ideal=True)
    within = _within_table(n, d)
    cmask_full = clutter.circuit_index_mask
    entries: dict[tuple[int, int], int] = {}
    for smask in range(1, 1 << n):
        key = (n, d, fld, smask, cmask_full & within[smask])
        nonzero = _homology_cache.get(key)
        if nonzero is None:
            nonzero = _homology_cache[key] = _induced_clique_homology(*key)
        for k, h in nonzero:
            j = smask.bit_count()
            i = j - k - 1  # homology degree (k-1) gives i = j - (k-1) - 2
            if i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable(entries=entries)


def is_connected_graph_algebraic(graph: Clutter) -> bool:
    """Graph connectivity read off the GF(2) Betti table: pdim < n - 2.

    The complete graph has a zero complement ideal and counts as connected.
    """
    if graph.d != 2:
        raise ValueError("connectivity test needs a graph (d = 2)")
    table = hochster_betti_table(graph, "gf2")
    if table.zero_ideal:
        return True
    return table.pdim < graph.n - 2
