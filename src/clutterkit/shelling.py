"""Shelling orders, the erasure bridge, and extendable shellability.

A facet order F_1..F_s of a pure complex is a shelling when each facet
meets the union of its predecessors in a pure codimension-one complex.
Complements turn such orders into erasure sequences and back, and the
extendability search runs over facet subsets: whether a partial shelling
extends depends only on the set of facets placed, never on their order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import search
from .clutter import Clutter, all_d_subsets, vertex_mask
from .erasures import ErasureCertificate, replay_erasure_sequence
from .graphs import graph_connected
from .homology import reduced_homology_dims
from .ideals import _quotient_moves
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class ShellingReport:
    valid: bool
    restricted_sets: tuple[tuple[tuple[int, ...], ...], ...]
    failed_at: int | None  # 1-based facet position

    @property
    def restricted_sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.restricted_sets)


@dataclass(frozen=True)
class ShellingOrder:
    complex: SimplicialComplex
    order: tuple[tuple[int, ...], ...]
    restricted_sets: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def restricted_sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.restricted_sets)


def _restricted_set(facet: tuple[int, ...], earlier: list[set]) -> list[tuple[int, ...]]:
    fs = set(facet)
    out = []
    for v in facet:
        ridge = fs - {v}
        if any(ridge <= e for e in earlier):
            out.append(tuple(sorted(ridge)))
    return out


def _step_valid(facet: tuple[int, ...], earlier: list[set]) -> bool:
    # The intersection with the earlier union is pure of codimension one
    # iff every facet-intersection is dominated by one of ridge size.
    fs = set(facet)
    inters = [fs & e for e in earlier]
    ridges = [g for g in inters if len(g) == len(facet) - 1]
    return all(any(g <= r for r in ridges) for g in inters)


def verify_shelling(complex_: SimplicialComplex, order) -> ShellingReport:
    """Check a facet order for the shelling condition, collecting restricted sets."""
    if not complex_.is_pure:
        raise ValueError("shellings are defined for pure complexes only")
    order = [tuple(sorted(f)) for f in order]
    if sorted(order, key=lambda f: (len(f), f)) != list(complex_.facets):
        raise ValueError("order is not a permutation of the facets")
    earlier: list[set] = []
    restricted: list[tuple[tuple[int, ...], ...]] = []
    for pos, facet in enumerate(order, start=1):
        restricted.append(tuple(_restricted_set(facet, earlier)))
        if pos > 1 and not _step_valid(facet, earlier):
            return ShellingReport(False, tuple(restricted), pos)
        earlier.append(set(facet))
    return ShellingReport(True, tuple(restricted), None)


def erasures_to_shelling(cert: ErasureCertificate) -> ShellingOrder:
    """Shelling with facets [n] \\ e_i, in certificate order."""
    n = cert.n
    everything = set(range(1, n + 1))
    order = tuple(tuple(sorted(everything - set(s.circuit))) for s in cert.removed)
    complex_ = SimplicialComplex(n, tuple(sorted(set(order), key=lambda f: (len(f), f))))
    report = verify_shelling(complex_, order)
    if not report.valid:
        raise ValueError(f"certificate does not shell its dual complex (step {report.failed_at})")
    return ShellingOrder(complex_, order, report.restricted_sets)


def shelling_to_erasures(shelling: ShellingOrder, d: int | None = None) -> ErasureCertificate:
    """Replay the complement circuits of a shelling order as erasures.

    The circuit size is read off the facet size; the void complex carries
    no dimension, so an explicit ``d`` is required for the empty shelling.
    """
    complex_ = shelling.complex
    n = complex_.n
    if complex_.is_void:
        if d is None:
            raise ValueError("the empty shelling needs an explicit circuit size d")
        return replay_erasure_sequence(n, d, [])
    size = len(complex_.facets[0])
    d = n - size
    if d < 1:
        raise ValueError(f"facet size {size} leaves no circuit size on {n} vertices")
    everything = set(range(1, n + 1))
    order = [tuple(sorted(everything - set(f))) for f in shelling.order]
    return replay_erasure_sequence(n, d, order)


# -- extendable shellability ---------------------------------------------------

def _shelling_moves(complex_: SimplicialComplex):
    """The facets, and the ``search.closure`` test for adding facet f to a prefix.

    Facets shell in an order iff their complements' monomials have linear
    quotients in it, so the test is the colon kernel on the complements
    (``ideals._quotient_moves``).
    """
    if not complex_.is_pure:
        raise ValueError("extendability is defined for pure complexes only")
    if complex_.is_void:
        raise ValueError("extendability of the void complex is vacuous")
    facets = list(complex_.facets)
    full = (1 << complex_.n) - 1
    return facets, _quotient_moves([full ^ vertex_mask(f) for f in facets])


@dataclass(frozen=True)
class ExtendabilityResult:
    extendable: bool
    shellable: bool
    states: int
    stuck_witness: tuple[tuple[int, ...], ...] | None

    def to_json_dict(self) -> dict:
        return {
            "extendable": self.extendable,
            "shellable": self.shellable,
            "partial_shellings_checked": self.states,
            "stuck_witness": None
            if self.stuck_witness is None
            else [list(f) for f in self.stuck_witness],
        }


def is_extendably_shellable(complex_: SimplicialComplex) -> ExtendabilityResult:
    """Exhaustively decide whether every partial shelling extends fully.

    Runs a subset BFS for all shelling prefixes; a stuck prefix (no facet
    addable, ``search.stuck``) of most facets is the witness.
    """
    facets, allowed = _shelling_moves(complex_)
    last = search.closure(len(facets), allowed)
    if (1 << len(facets)) - 1 not in last:
        raise ValueError("complex is not shellable")
    stuck = search.stuck(len(facets), allowed, last)
    if not stuck:
        return ExtendabilityResult(True, True, len(last), None)
    witness = tuple(facets[f] for f in search.path(last, max(stuck, key=int.bit_count)))
    return ExtendabilityResult(False, True, len(last), witness)


def skeleton_complex(n: int, dim: int) -> SimplicialComplex:
    """The dim-skeleton of the simplex on {1..n}."""
    if not -1 <= dim <= n - 1:
        raise ValueError(f"skeleton dimension must lie in -1..{n - 1}")
    return SimplicialComplex(n, all_d_subsets(n, dim + 1) if dim >= 0 else ((),))


def check_contractible_extendable(complex_: SimplicialComplex) -> dict:
    """Probe: contractible (n-3)-dimensional shellable complexes with
    binomial(n,2) - n + 1 facets should be extendably shellable, with the
    unused edges forming a spanning tree.

    Hypothesis violations are reported, never raised.
    """
    n = complex_.n
    report: dict = {"n": n, "hypothesis_ok": True, "reasons": []}

    def fail(reason: str):
        report["hypothesis_ok"] = False
        report["reasons"].append(reason)

    if complex_.is_void or not complex_.is_pure or complex_.dim != n - 3:
        fail(f"complex is not pure of dimension {n - 3}")
        return report
    expected = n * (n - 1) // 2 - n + 1
    if len(complex_.facets) != expected:
        fail(f"facet count {len(complex_.facets)} differs from {expected}")
        return report

    facets, allowed = _shelling_moves(complex_)
    last = search.closure(len(facets), allowed)
    full = (1 << len(facets)) - 1
    if full not in last:
        fail("complex is not shellable")
        return report
    shelling = verify_shelling(complex_, [facets[f] for f in search.path(last, full)])
    spheres = sum(1 for r in shelling.restricted_sets if len(r) == n - 2)
    report["full_restricted_steps"] = spheres
    homology = reduced_homology_dims(complex_, "rational")
    report["homology_trivial"] = not any(homology.values())
    if spheres or any(homology.values()):
        fail("complex is not contractible")
        return report

    everything = set(range(1, n + 1))
    facet_set = set(complex_.facets)
    tree = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if tuple(sorted(everything - {u, v})) not in facet_set
    ]
    report["tree_edges"] = [list(e) for e in tree]
    report["tree_is_spanning_tree"] = len(tree) == n - 1 and graph_connected(Clutter(n, 2, tuple(tree)))
    report["extendable"] = not search.stuck(len(facets), allowed, last)
    report["partial_shellings_checked"] = len(last)
    return report
