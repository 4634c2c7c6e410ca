"""Chordal-graph consequences: elimination orders, chromatic polynomials,
minimum spanning trees by erasures, and the properly-exposed subgraph.

Graphs are 2-clutters.  Edge exposure runs on the clutter link table
(``clutter.exposed_clique``), whose d = 2 case is the adjacency list, and
every loop here tests proper exposure with ``erasures._erasable``.
Adjacency bitmask lists (``adj[v-1]`` has bit ``w-1`` set for each
neighbor w) remain for elimination orders, connectivity and
deletion-contraction; the boundary reads its elimination order off the
link table's vertex rows, which are that list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clutter import (
    Clutter,
    SizeGuardError,
    d_subset_masks,
    link_table,
    mask_vertices,
    toggle_circuit,
    vertex_mask,
)
from .erasures import _erasable, erasure_reachable_set

CHORDAL_CLASSIC_MAX_N = 12
DELETION_CONTRACTION_MAX_N = 10


# -- adjacency-mask plumbing --------------------------------------------------

def _require_graph(graph: Clutter) -> None:
    if graph.d != 2:
        raise ValueError("this operation needs a graph (d = 2)")


def adjacency_masks(graph: Clutter) -> list[int]:
    _require_graph(graph)
    adj = [0] * graph.n
    for u, v in graph.circuits:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def graph_from_edge_mask(n: int, mask: int) -> Clutter:
    return Clutter.from_index_mask(n, 2, mask)


def _reach(adj, start: int) -> int:
    """The mask of the vertices reachable from vertex ``start`` (0-based)."""
    seen = 1 << start
    stack = [start]
    while stack:
        rest = adj[stack.pop()] & ~seen
        while rest:
            low = rest & -rest
            seen |= low
            stack.append(low.bit_length() - 1)
            rest ^= low
    return seen


def graph_connected(graph: Clutter) -> bool:
    """Connectivity over the full vertex set {1..n} (isolated vertices count)."""
    return _reach(adjacency_masks(graph), 0) == (1 << graph.n) - 1


# -- chordality ----------------------------------------------------------------

def is_chordal_classic(graph: Clutter) -> bool:
    """Brute-force test: no vertex subset induces a cycle of length >= 4."""
    _require_graph(graph)
    n = graph.n
    if n > CHORDAL_CLASSIC_MAX_N:
        raise SizeGuardError(
            f"size guard: induced-cycle scan needs n <= {CHORDAL_CLASSIC_MAX_N}, got n={n}"
        )
    adj = adjacency_masks(graph)
    from itertools import combinations

    for size in range(4, n + 1):
        for subset in combinations(range(n), size):
            smask = sum(1 << v for v in subset)
            # an induced cycle is connected and 2-regular
            if any((adj[v] & smask).bit_count() != 2 for v in subset):
                continue
            sub_adj = [adj[v] & smask if smask >> v & 1 else 0 for v in range(n)]
            if _reach(sub_adj, subset[0]) == smask:
                return False
    return True


def _peo_masks(adj: list[int], n: int) -> tuple[list[int], list[int]] | None:
    """Greedy simplicial elimination (lexicographic tie-break) on bitmasks.

    Returns (0-based order, later-neighbor counts) or None when stuck,
    which happens exactly for non-chordal graphs.
    """
    alive = (1 << n) - 1
    order: list[int] = []
    degrees: list[int] = []
    for _ in range(n):
        found = -1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            nb = adj[v] & alive
            m = nb
            simplicial = True
            while m:
                wlow = m & -m
                if adj[wlow.bit_length() - 1] & nb != nb ^ wlow:
                    simplicial = False
                    break
                m ^= wlow
            if simplicial:
                found = v
                degrees.append(nb.bit_count())
                break
            rest ^= low
        if found < 0:
            return None
        order.append(found)
        alive ^= 1 << found
    return order, degrees


@dataclass(frozen=True)
class EliminationOrdering:
    """Vertex order where each vertex's later neighborhood is complete.

    ``degrees[i]`` counts the neighbors of ``order[i]`` among the later
    vertices; an isolated vertex gets degree 0.
    """

    order: tuple[int, ...]
    degrees: tuple[int, ...]


def perfect_elimination_ordering(graph: Clutter) -> EliminationOrdering | None:
    _require_graph(graph)
    res = _peo_masks(adjacency_masks(graph), graph.n)
    if res is None:
        return None
    order, degrees = res
    return EliminationOrdering(tuple(v + 1 for v in order), tuple(degrees))


# -- chromatic polynomials -------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial in one variable, coefficients low degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or (len(self.coeffs) > 1 and self.coeffs[-1] == 0):
            raise ValueError("coefficients must be normalized (no trailing zeros)")

    @classmethod
    def from_coeffs(cls, coeffs) -> "Polynomial":
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls(tuple(c) if c else (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs(_poly_mul(self.coeffs, other.coeffs))

    def __call__(self, t: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def __str__(self) -> str:
        if self.coeffs == (0,):
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            term = "t" if k == 1 else f"t^{k}" if k else ""
            mag = "" if abs(c) == 1 and k else str(abs(c))
            piece = f"{mag}{term}"
            if parts:
                parts.append(f"- {piece}" if c < 0 else f"+ {piece}")
            else:
                parts.append(f"-{piece}" if c < 0 else piece)
        return " ".join(parts)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def chromatic_polynomial_product(graph: Clutter) -> Polynomial:
    """Product of (t - later-degree) along a perfect elimination ordering."""
    peo = _peo_masks(adjacency_masks(graph), graph.n)
    if peo is None:
        raise ValueError("the product formula applies to chordal graphs only")
    return _falling(tuple(sorted(peo[1])))


@lru_cache(maxsize=1 << 12)  # 126 keys cover every chordal graph on at most 7 vertices
def _falling(degrees: tuple[int, ...]) -> Polynomial:
    """The product of (t - d) over ``degrees``, sorted: it depends only on the multiset."""
    coeffs: tuple[int, ...] = (1,)
    for deg in degrees:
        coeffs = tuple(_poly_mul(coeffs, (-deg, 1)))
    return Polynomial.from_coeffs(coeffs)


def _components(masks: tuple[int, ...]) -> list[int]:
    k = len(masks)
    unseen = (1 << k) - 1
    comps = []
    while unseen:
        low = unseen & -unseen
        v = low.bit_length() - 1
        comp = _reach(masks, v) if masks[v] else low  # an isolated vertex is its own component
        comps.append(comp)
        unseen &= ~comp
    return comps


def _restrict(masks: tuple[int, ...], vmask: int) -> tuple[int, ...]:
    keep = [v - 1 for v in mask_vertices(vmask)]
    pos = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        row = masks[v] & vmask
        new = 0
        while row:
            low = row & -row
            new |= 1 << pos[low.bit_length() - 1]
            row ^= low
        out.append(new)
    return tuple(out)


def _contract(masks: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    rows = list(masks)
    rows[u] = (rows[u] | rows[v]) & ~((1 << u) | (1 << v))
    for w in range(len(rows)):
        if w in (u, v):
            continue
        if rows[w] >> v & 1:
            rows[w] = (rows[w] & ~(1 << v)) | (1 << u)
    out = []
    for w in range(len(rows)):
        if w == v:
            continue
        m = rows[w]
        out.append((m & ((1 << v) - 1)) | (m >> (v + 1) << v))
    return tuple(out)


def _chromatic_dc(masks: tuple[int, ...], memo: dict) -> tuple[int, ...]:
    """Deletion-contraction with standard reductions.

    Component products, isolated-vertex factors and pendant-edge stripping
    are all instances of the deletion-contraction identity; states with at
    most 6 vertices are memoized (larger keys would dominate memory in
    exhaustive sweeps without being revisited much).
    """
    k = len(masks)
    if k == 0:
        return (1,)
    if not any(masks):
        return (0,) * k + (1,)
    use_memo = k <= 6
    if use_memo:
        hit = memo.get(masks)
        if hit is not None:
            return hit

    comps = _components(masks)
    if len(comps) > 1:
        poly = (1,)
        for comp in comps:
            poly = tuple(_poly_mul(poly, _chromatic_dc(_restrict(masks, comp), memo)))
        result = poly
    else:
        pendant = next((v for v in range(k) if masks[v].bit_count() == 1), None)
        if pendant is not None:
            rest = _restrict(masks, ((1 << k) - 1) ^ (1 << pendant))
            result = tuple(_poly_mul((-1, 1), _chromatic_dc(rest, memo)))
        else:
            u = next(v for v in range(k) if masks[v])
            v = (masks[u] & -masks[u]).bit_length() - 1
            deleted = list(masks)
            deleted[u] &= ~(1 << v)
            deleted[v] &= ~(1 << u)
            result = tuple(
                _poly_sub(
                    _chromatic_dc(tuple(deleted), memo),
                    _chromatic_dc(_contract(masks, min(u, v), max(u, v)), memo),
                )
            )
    if use_memo:
        memo[masks] = result
    return result


def chromatic_polynomial_dc(graph: Clutter, memo: dict | None = None) -> Polynomial:
    """Deletion-contraction oracle (exact, exponential; guarded at n <= 10)."""
    _require_graph(graph)
    if graph.n > DELETION_CONTRACTION_MAX_N:
        raise SizeGuardError(
            f"size guard: deletion-contraction needs n <= {DELETION_CONTRACTION_MAX_N}, "
            f"got n={graph.n}"
        )
    masks = tuple(adjacency_masks(graph))
    return Polynomial.from_coeffs(_chromatic_dc(masks, {} if memo is None else memo))


# -- weighted graphs and spanning trees -------------------------------------------

@dataclass(frozen=True)
class WeightedGraph:
    graph: Clutter
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        _require_graph(self.graph)
        if len(self.weights) != len(self.graph.circuits):
            raise ValueError("need exactly one weight per edge")

    @classmethod
    def from_edges(cls, n: int, weighted_edges) -> "WeightedGraph":
        pairs = {}
        for u, v, w in weighted_edges:
            pairs[tuple(sorted((u, v)))] = Fraction(w)
        graph = Clutter.from_circuits(n, 2, pairs)
        return cls(graph, tuple(pairs[e] for e in graph.circuits))


def kruskal_mst(weighted: WeightedGraph) -> tuple[frozenset, Fraction]:
    """Sorted-edge union-find oracle; raises on disconnected input."""
    n = weighted.graph.n
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    total = Fraction(0)
    order = sorted(zip(weighted.weights, weighted.graph.circuits))
    for w, (u, v) in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
            total += w
    if len(chosen) != n - 1:
        raise ValueError("graph is not connected")
    return frozenset(chosen), total


def mst_by_erasures(weighted: WeightedGraph) -> tuple[frozenset, Fraction]:
    """Repeatedly erase the heaviest properly exposed edge down to a tree.

    Erasures keep the graph connected and chordal, so the loop needs (and
    checks) a connected chordal input.
    """
    graph = weighted.graph
    n = graph.n
    if not graph_connected(graph):
        raise ValueError("erasure spanning trees need a connected graph")
    if perfect_elimination_ordering(graph) is None:
        raise ValueError("erasure spanning trees need a chordal graph")
    link = link_table(n, 2, graph.circuit_index_mask)
    weights = dict(zip(graph.circuits, weighted.weights))
    # heaviest first; the sort is stable, so equal weights stay in lex order
    edges = sorted(graph.circuits, key=weights.__getitem__, reverse=True)
    masks = [vertex_mask(e) for e in edges]
    proper = _erasable(link, masks, True)
    while len(edges) > n - 1:
        for k in range(len(edges)):
            if proper(k):
                break
        else:
            raise RuntimeError("no properly exposed edge available; input was not chordal")
        del edges[k]
        toggle_circuit(link, masks.pop(k))
    tree = frozenset(edges)
    return tree, sum((weights[e] for e in tree), Fraction(0))


# -- properly exposed subgraph -----------------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[tuple[int, ...], bool], ...]  # (vertices, 2-edge-connected)
    input_chordal: bool


def properly_exposed_subgraph(graph: Clutter) -> BoundaryReport:
    """Edge-induced subgraph on the properly exposed edges, with
    2-edge-connectivity verdicts per component.

    A component is 2-edge-connected iff deleting any one of its edges uv
    leaves v reachable from u.  For chordal input every component must be
    2-edge-connected; a violation is raised as it contradicts an invariant
    of erasures.  Non-chordal input just gets the computed verdicts.
    """
    _require_graph(graph)
    link = link_table(graph.n, 2, graph.circuit_index_mask)
    proper = _erasable(link, [vertex_mask(e) for e in graph.circuits], True)
    boundary = [e for i, e in enumerate(graph.circuits) if proper(i)]
    adj = [0] * graph.n
    for u, v in boundary:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)

    def bridge(u: int, v: int) -> bool:
        if adj[u - 1] & adj[v - 1]:  # uv lies on a triangle of the boundary
            return False
        rest = list(adj)
        rest[u - 1] ^= 1 << (v - 1)
        rest[v - 1] ^= 1 << (u - 1)
        return not _reach(rest, u - 1) >> (v - 1) & 1

    components = []
    for comp in _components(adj):
        if comp & (comp - 1):  # the components with an edge
            ok = not any(bridge(u, v) for u, v in boundary if comp >> (u - 1) & 1)
            components.append((mask_vertices(comp), ok))
    chordal = _peo_masks([link[1 << v] for v in range(graph.n)], graph.n) is not None
    if chordal and any(not ok for _, ok in components):
        raise RuntimeError("properly exposed subgraph of a chordal graph grew a bridge")
    return BoundaryReport(tuple(boundary), tuple(components), chordal)


# -- enumeration and generation -----------------------------------------------------

def enumerate_chordal_graphs(n: int) -> set[int]:
    """Edge masks of every chordal graph on {1..n}.

    A graph is chordal iff exposed-edge erasures reach it from K_n, so these
    are the complements of the d = 2 erasure closure
    (``erasures.erasure_reachable_set``).
    """
    full = (1 << n * (n - 1) // 2) - 1
    return {full ^ removed for removed in erasure_reachable_set(n, 2)}


def random_connected_chordal(n: int, rng: random.Random, target_edges: int | None = None) -> Clutter:
    """Random connected chordal graph via random proper erasures from K_n."""
    if target_edges is None:
        target_edges = rng.randint(n - 1, n * (n - 1) // 2)
    masks = d_subset_masks(n, 2)
    state = (1 << len(masks)) - 1  # the lex indices of the edges left
    link = link_table(n, 2, state)
    proper = _erasable(link, masks, True)
    while state.bit_count() > target_edges:
        candidates = [i - 1 for i in mask_vertices(state) if proper(i - 1)]  # lex order
        if not candidates:
            break
        i = rng.choice(candidates)
        state ^= 1 << i
        toggle_circuit(link, masks[i])
    return Clutter.from_index_mask(n, 2, state)
