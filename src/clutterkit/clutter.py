"""d-uniform clutters: complements, cliques, and exposed circuits.

A d-clutter on vertex set {1..n} is a set of d-element subsets ("circuits").
Everything here is immutable; vertices are 1-based and each circuit is kept
as a sorted tuple.  Internally circuits double as bitmasks (bit v-1 for
vertex v), which caps the supported vertex count at 64.

The searches test exposure on a mutable *link table* (``link_table``,
``toggle_circuit``, ``exposed_clique``).  ``exposed_clique`` is the one move
test: it reads Q, the vertices extending e to a clique, off the table's rows
for e's (d-1)-subsets, then tests whether e+Q is a clique.
``Clutter.exposed_status`` is the independent reference: its body,
``_exposed_status``, reads only a set of circuit masks, and certificate replay
runs it on one such set that it updates step by step.
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


class SizeGuardError(ValueError):
    """An input too large for an exponential path, refused before any work."""


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
    """All d-subsets of {1..n} in lexicographic order (d = 0 gives the empty set)."""
    if not 0 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if comb(n, d) > MAX_D_SUBSETS:
        raise SizeGuardError(
            f"size guard: at most {MAX_D_SUBSETS} d-subsets supported, got C({n}, {d}) = {comb(n, d)}"
        )
    return tuple(itertools.combinations(range(1, n + 1), d))


@lru_cache(maxsize=None)
def d_subset_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(all_d_subsets(n, d))}


@lru_cache(maxsize=None)
def d_subset_masks(n: int, d: int) -> tuple[int, ...]:
    """The vertex masks of the lex-ordered d-subsets of {1..n}."""
    return tuple(map(vertex_mask, all_d_subsets(n, d)))


# -- the link table: the exposure kernel of the searches ----------------------

def link_table(n: int, d: int, index_mask: int) -> dict[int, int]:
    """Map each (d-1)-subset mask s to the mask of vertices v with s+v a circuit.

    The circuits are the lex d-subsets whose bits are set in
    ``index_mask``.  At d = 2 this is the adjacency-mask list keyed by
    vertex bit; at d = 1 its one entry, ``link[0]``, is the circuit mask.
    """
    link = dict.fromkeys(d_subset_masks(n, d - 1), 0)
    masks = d_subset_masks(n, d)
    for i in mask_vertices(index_mask):
        toggle_circuit(link, masks[i - 1])
    return link


def toggle_circuit(link: dict[int, int], emask: int) -> None:
    """Add circuit ``emask`` to the link table, or remove it if present."""
    m = emask
    while m:
        low = m & -m
        link[emask ^ low] ^= low
        m ^= low


@lru_cache(maxsize=1 << 12)  # every (mask, k) up to 8 vertices
def _subsets(mask: int, k: int) -> tuple[int, ...]:
    """The masks of the k-subsets of ``mask``."""
    return tuple(map(vertex_mask, itertools.combinations(mask_vertices(mask), k)))


def exposed_clique(link: dict[int, int], emask: int) -> int | None:
    """The mask of the unique maximal clique through circuit ``emask``, or None.

    Q = {v : e+v is a clique} is the AND of ``link[s]`` over the
    (d-1)-subsets s of e, without e's own vertices.  e is exposed iff e+Q
    is a clique, and then e+Q is that clique.  Every d-subset of e+Q other
    than e is r+v for a (d-1)-subset r of e+Q not inside e and some v in
    Q - r, so e+Q is a clique iff Q - r lies in ``link[r]`` for each such
    r.  Only the (d-1)-subsets of e+Q are visited.
    """
    q = ~emask
    m = emask
    while m:
        low = m & -m
        m ^= low
        q &= link[emask ^ low]
    closure = emask | q
    if q & (q - 1):  # with one extension vertex v, e+v is a clique by Q's definition
        for r in _subsets(closure, emask.bit_count() - 1):
            if r & q and q & ~r & ~link[r]:
                return None
    return closure


@dataclass(frozen=True)
class ExposedStatus:
    """Whether a circuit lies in a unique maximal clique.

    When ``exposed`` is True, ``clique`` is that unique maximal clique and
    ``proper`` records whether it is strictly larger than the circuit.
    """

    exposed: bool
    clique: tuple[int, ...] | None = None
    proper: bool | None = None


def _check_size(n: int, d: int) -> None:
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n > MAX_VERTICES:
        raise SizeGuardError(f"size guard: at most {MAX_VERTICES} vertices supported, got n={n}")


# -- the reference exposure test, on a set of circuit masks --------------------

def _is_clique(d: int, masks, vs: tuple[int, ...]) -> bool:
    """True iff ``vs`` has fewer than d vertices or all its d-subsets are in ``masks``."""
    return len(vs) < d or all(vertex_mask(s) in masks for s in itertools.combinations(vs, d))


def _compatible(d: int, masks, clique: tuple[int, ...], v: int) -> bool:
    """True iff clique+v is a clique, given that ``clique`` is one: iff every
    d-subset through v is in ``masks``."""
    if len(clique) < d - 1:
        return True
    vbit = 1 << (v - 1)
    for rest in itertools.combinations(clique, d - 1):
        if vertex_mask(rest) | vbit not in masks:
            return False
    return True


def _exposed_status(n: int, d: int, masks, e: tuple[int, ...]) -> ExposedStatus:
    """Whether the sorted circuit e lies in a unique maximal clique of the
    clutter whose circuit masks are ``masks``.

    Uses the closed-extension shortcut: with Q = {v : e+v is a clique},
    e is exposed iff e+Q is itself a clique, and then e+Q is the unique
    maximal clique.  (If e+Q is not a clique, two incompatible
    extensions force two distinct maximal cliques.)
    """
    q = [v for v in range(1, n + 1) if v not in e and _compatible(d, masks, e, v)]
    if not q:
        return ExposedStatus(True, e, False)
    closure = tuple(sorted(e + tuple(q)))
    if _is_clique(d, masks, closure):
        return ExposedStatus(True, closure, len(closure) > d)
    return ExposedStatus(False)


@dataclass(frozen=True)
class Clutter:
    n: int
    d: int
    circuits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_size(self.n, self.d)
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
    def from_index_mask(cls, n: int, d: int, mask: int) -> "Clutter":
        """The clutter of the lex d-subsets whose bits are set in ``mask``.

        Trusted: those circuits are valid by construction, so only n, d and
        the mask's range are checked, and ``circuit_index_mask`` comes
        pre-filled.
        """
        _check_size(n, d)
        subsets = all_d_subsets(n, d)
        if mask < 0 or mask >> len(subsets):
            raise ValueError(f"mask {mask} is not a set of {len(subsets)} d-subsets")
        circuits = tuple([subsets[i - 1] for i in mask_vertices(mask)])
        clutter = object.__new__(cls)
        vars(clutter).update(n=n, d=d, circuits=circuits, circuit_index_mask=mask)
        return clutter

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

    @cached_property
    def _circuit_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.circuits)

    def __contains__(self, e) -> bool:
        return tuple(sorted(e)) in self._circuit_set

    def __len__(self) -> int:
        return len(self.circuits)

    def complement(self) -> "Clutter":
        """The clutter of d-subsets that are not circuits here."""
        full = (1 << len(all_d_subsets(self.n, self.d))) - 1
        return Clutter.from_index_mask(self.n, self.d, full ^ self.circuit_index_mask)

    def _circuit(self, e) -> tuple[int, ...]:
        """``e`` as a sorted tuple; ``ValueError`` unless it is a circuit here."""
        e = tuple(sorted(e))
        if e not in self:
            raise ValueError(f"{e} is not a circuit")
        return e

    def without(self, e) -> "Clutter":
        e = self._circuit(e)
        return Clutter(self.n, self.d, tuple(c for c in self.circuits if c != e))

    # -- cliques ----------------------------------------------------------

    def _extend_cliques(self, base: tuple[int, ...], candidates: list[int], excluded: list[int]):
        # Bron-Kerbosch style enumeration; cliqueness is hereditary, so a
        # clique is maximal iff no single vertex extends it.  No pivoting:
        # the pivot pruning argument needs pairwise compatibility, which
        # fails for d > 2.
        if not candidates and not excluded:
            yield base
            return
        d, masks = self.d, self.circuit_masks
        cands = list(candidates)
        excl = list(excluded)
        while cands:
            v = cands.pop(0)
            new_base = tuple(sorted(base + (v,)))
            new_cands = [u for u in cands if _compatible(d, masks, new_base, u)]
            new_excl = [u for u in excl if _compatible(d, masks, new_base, u)]
            yield from self._extend_cliques(new_base, new_cands, new_excl)
            excl.append(v)

    def max_cliques(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal cliques, lexicographically ordered."""
        first = [v for v in range(1, self.n + 1) if _compatible(self.d, self.circuit_masks, (), v)]
        return sorted(self._extend_cliques((), first, []))

    def maximal_cliques_containing(self, e) -> list[tuple[int, ...]]:
        """All maximal cliques containing the circuit e, lexicographically ordered."""
        e = self._circuit(e)
        cands = [v for v in range(1, self.n + 1) if v not in e and _compatible(self.d, self.circuit_masks, e, v)]
        return sorted(self._extend_cliques(e, cands, []))

    def exposed_status(self, e) -> ExposedStatus:
        """Decide whether circuit e lies in a unique maximal clique (``_exposed_status``)."""
        return _exposed_status(self.n, self.d, self.circuit_masks, self._circuit(e))

    # -- the clique complex -----------------------------------------------

    def clique_complex(self) -> SimplicialComplex:
        """Complex with full (d-2)-skeleton whose larger faces are cliques."""
        facets = sorted(self.max_cliques(), key=lambda f: (len(f), f))
        return SimplicialComplex(self.n, tuple(facets))
