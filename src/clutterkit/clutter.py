"""d-uniform clutters: complements, cliques, and exposed circuits.

A d-clutter on vertex set {1..n} is a set of d-element subsets ("circuits").
Everything here is immutable; vertices are 1-based and each circuit is kept
as a sorted tuple.  Internally circuits double as bitmasks (bit v-1 for
vertex v), which caps the supported vertex count at 64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, cached_property
from math import comb

from .simplicial import SimplicialComplex

MAX_VERTICES = 64
# Cap on C(n, d) wherever the full lex list of d-subsets is materialised.
MAX_D_SUBSETS = 1 << 18


def vertex_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def all_d_subsets(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All d-subsets of {1..n} in lexicographic order."""
    if comb(n, d) > MAX_D_SUBSETS:
        raise ValueError(
            f"size guard: at most {MAX_D_SUBSETS} d-subsets supported, got C({n}, {d}) = {comb(n, d)}"
        )
    return tuple(itertools.combinations(range(1, n + 1), d))


@lru_cache(maxsize=None)
def d_subset_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(all_d_subsets(n, d))}


@dataclass(frozen=True)
class ExposedStatus:
    """Whether a circuit lies in a unique maximal clique.

    When ``exposed`` is True, ``clique`` is that unique maximal clique and
    ``proper`` records whether it is strictly larger than the circuit.
    """

    exposed: bool
    clique: tuple[int, ...] | None = None
    proper: bool | None = None


@dataclass(frozen=True)
class Clutter:
    n: int
    d: int
    circuits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 1 <= self.d <= self.n:
            raise ValueError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.n > MAX_VERTICES:
            raise ValueError(f"size guard: at most {MAX_VERTICES} vertices supported, got n={self.n}")
        seen = set()
        for e in self.circuits:
            if len(e) != self.d or len(set(e)) != self.d:
                raise ValueError(f"circuit {e} is not a {self.d}-subset")
            if tuple(sorted(e)) != e:
                raise ValueError(f"circuit {e} is not sorted")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"circuit {e} out of range 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate circuit {e}")
            seen.add(e)
        if list(self.circuits) != sorted(self.circuits):
            raise ValueError("circuits are not in lexicographic order")

    @classmethod
    def from_circuits(cls, n: int, d: int, circuits) -> "Clutter":
        """Build a clutter, normalizing circuit and list order."""
        canon = sorted({tuple(sorted(e)) for e in circuits})
        return cls(n, d, tuple(canon))

    @classmethod
    def complete(cls, n: int, d: int) -> "Clutter":
        return cls(n, d, all_d_subsets(n, d))

    @classmethod
    def empty(cls, n: int, d: int) -> "Clutter":
        return cls(n, d, ())

    # -- basic queries ----------------------------------------------------

    @cached_property
    def circuit_masks(self) -> frozenset[int]:
        return frozenset(vertex_mask(e) for e in self.circuits)

    @cached_property
    def circuit_index_mask(self) -> int:
        """Bitmask over the lex-ordered d-subsets of {1..n}."""
        index = d_subset_index(self.n, self.d)
        m = 0
        for e in self.circuits:
            m |= 1 << index[e]
        return m

    def __contains__(self, e) -> bool:
        return tuple(sorted(e)) in set(self.circuits)

    def __len__(self) -> int:
        return len(self.circuits)

    def complement(self) -> "Clutter":
        """The clutter of d-subsets that are not circuits here."""
        mine = set(self.circuits)
        return Clutter(self.n, self.d, tuple(e for e in all_d_subsets(self.n, self.d) if e not in mine))

    def without(self, e) -> "Clutter":
        e = tuple(sorted(e))
        if e not in self:
            raise ValueError(f"{e} is not a circuit")
        return Clutter(self.n, self.d, tuple(c for c in self.circuits if c != e))

    def induced(self, vertices) -> "Clutter":
        """Subclutter of circuits contained in the given vertex set."""
        vs = set(vertices)
        return Clutter(self.n, self.d, tuple(e for e in self.circuits if set(e) <= vs))

    # -- cliques ----------------------------------------------------------

    def is_clique(self, vertices) -> bool:
        """True iff the set has fewer than d vertices or all its d-subsets are circuits."""
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise ValueError("empty vertex set")
        if vs[0] < 1 or vs[-1] > self.n:
            raise ValueError(f"vertices {vs} out of range 1..{self.n}")
        if len(vs) < self.d:
            return True
        masks = self.circuit_masks
        return all(vertex_mask(s) in masks for s in itertools.combinations(vs, self.d))

    def _compatible(self, clique_vertices: tuple[int, ...], v: int) -> bool:
        # clique_vertices is a clique; adding v stays one iff every d-subset
        # through v is a circuit (the rest are covered by hypothesis).
        if len(clique_vertices) < self.d - 1:
            return True
        masks = self.circuit_masks
        vbit = 1 << (v - 1)
        for rest in itertools.combinations(clique_vertices, self.d - 1):
            if vertex_mask(rest) | vbit not in masks:
                return False
        return True

    def _extend_cliques(self, base: tuple[int, ...], candidates: list[int], excluded: list[int]):
        # Bron-Kerbosch style enumeration; cliqueness is hereditary, so a
        # clique is maximal iff no single vertex extends it.  No pivoting:
        # the pivot pruning argument needs pairwise compatibility, which
        # fails for d > 2.
        if not candidates and not excluded:
            yield base
            return
        cands = list(candidates)
        excl = list(excluded)
        while cands:
            v = cands.pop(0)
            new_base = tuple(sorted(base + (v,)))
            new_cands = [u for u in cands if self._compatible(new_base, u)]
            new_excl = [u for u in excl if self._compatible(new_base, u)]
            yield from self._extend_cliques(new_base, new_cands, new_excl)
            excl.append(v)

    def max_cliques(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal cliques, lexicographically ordered."""
        first = [v for v in range(1, self.n + 1) if self._compatible((), v)]
        return sorted(self._extend_cliques((), first, []))

    def maximal_cliques_containing(self, e) -> list[tuple[int, ...]]:
        """All maximal cliques containing the circuit e, lexicographically ordered."""
        e = tuple(sorted(e))
        if e not in self:
            raise ValueError(f"{e} is not a circuit")
        cands = [v for v in range(1, self.n + 1) if v not in e and self._compatible(e, v)]
        return sorted(self._extend_cliques(e, cands, []))

    def exposed_status(self, e) -> ExposedStatus:
        """Decide whether circuit e lies in a unique maximal clique.

        Uses the closed-extension shortcut: with Q = {v : e+v is a clique},
        e is exposed iff e+Q is itself a clique, and then e+Q is the unique
        maximal clique.  (If e+Q is not a clique, two incompatible
        extensions force two distinct maximal cliques.)
        """
        e = tuple(sorted(e))
        if e not in self:
            raise ValueError(f"{e} is not a circuit")
        q = [v for v in range(1, self.n + 1) if v not in e and self._compatible(e, v)]
        if not q:
            return ExposedStatus(True, e, False)
        closure = tuple(sorted(e + tuple(q)))
        if self.is_clique(closure):
            return ExposedStatus(True, closure, len(closure) > self.d)
        return ExposedStatus(False)

    # -- the clique complex -----------------------------------------------

    def clique_complex(self) -> SimplicialComplex:
        """Complex with full (d-2)-skeleton whose larger faces are cliques."""
        facets = sorted(self.max_cliques(), key=lambda f: (len(f), f))
        return SimplicialComplex(self.n, tuple(facets))
