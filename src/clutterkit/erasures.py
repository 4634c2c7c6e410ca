"""Erasure sequences: removing exposed circuits from the complete clutter.

An erasure certificate records an order in which circuits were removed
from the complete d-clutter, each one exposed at its removal time, along
with the unique maximal clique witnessing exposure.  Certificates are the
product of the searches here and are always revalidated by replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from . import search
from .clutter import (
    MAX_VERTICES,
    Clutter,
    _check_size,
    _exposed_status,
    d_subset_index,
    d_subset_masks,
    exposed_clique,
    link_table,
    mask_vertices,
    toggle_circuit,
    vertex_mask,
)
from .simplicial import SimplicialComplex, complements


@dataclass(frozen=True)
class RemovalStep:
    circuit: tuple[int, ...]
    clique: tuple[int, ...]
    k: int  # n - |clique|
    proper: bool


@dataclass(frozen=True)
class ErasureCertificate:
    """Replayable record of an erasure sequence starting from the complete clutter."""

    n: int
    d: int
    removed: tuple[RemovalStep, ...]

    @property
    def result(self) -> Clutter:
        return Clutter.from_circuits(self.n, self.d, [s.circuit for s in self.removed]).complement()

    @property
    def k_sequence(self) -> tuple[int, ...]:
        return tuple(s.k for s in self.removed)

    def validate(self) -> None:
        """Replay the recorded circuits; every recorded step must equal the replayed one."""
        replayed = replay_erasure_sequence(self.n, self.d, [s.circuit for s in self.removed])
        for idx, (step, replay) in enumerate(zip(self.removed, replayed.removed), start=1):
            if step != replay:
                raise ValueError(f"step {idx}: recorded {step} does not match the replay {replay}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "removed": [
                {
                    "circuit": list(s.circuit),
                    "clique": list(s.clique),
                    "k": s.k,
                    "proper": s.proper,
                }
                for s in self.removed
            ],
            "result_circuits": [list(e) for e in self.result.circuits],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "ErasureCertificate":
        """Check the document's shape, then rebuild the certificate and replay it."""
        _check_certificate_shape(data)
        cert = cls(
            n=data["n"],
            d=data["d"],
            removed=tuple(
                RemovalStep(tuple(step["circuit"]), tuple(step["clique"]), step["k"], step["proper"])
                for step in data["removed"]
            ),
        )
        cert.validate()
        if "result_circuits" in data:
            claimed = Clutter.from_circuits(cert.n, cert.d, map(tuple, data["result_circuits"]))
            if claimed != cert.result:
                raise ValueError("certificate result_circuits do not match the replay")
        return cert


class CertificateShapeError(ValueError):
    """A certificate document not shaped the way ``to_json_dict`` writes one."""


def _check_certificate_shape(data) -> None:
    def ints(value) -> bool:
        return isinstance(value, list) and all(type(v) is int for v in value)

    def step(value) -> bool:
        return (
            isinstance(value, dict)
            and ints(value.get("circuit"))
            and ints(value.get("clique"))
            and type(value.get("k")) is int
            and type(value.get("proper")) is bool
        )

    if not (
        isinstance(data, dict)
        and type(data.get("n")) is int
        and type(data.get("d")) is int
        and 1 <= data["d"] <= data["n"] <= MAX_VERTICES
        and isinstance(data.get("removed"), list)
        and all(map(step, data["removed"]))
        and isinstance(data.get("result_circuits", []), list)
        and all(map(ints, data.get("result_circuits", [])))
    ):
        raise CertificateShapeError(
            f"a certificate is an object with integers n and d, 1 <= d <= n <= {MAX_VERTICES},"
            " a list removed of steps (integer lists circuit and clique, integer k, boolean"
            " proper) and, optionally, result_circuits as a list of integer lists"
        )


def replay_erasure_sequence(n: int, d: int, circuits, require_proper: bool = False) -> ErasureCertificate:
    """Build (and validate) a certificate from an explicit removal order, running
    ``_exposed_status``, the body of ``Clutter.exposed_status``, on the circuit masks left."""
    index = d_subset_index(n, d)
    _check_size(n, d)
    present = set(d_subset_masks(n, d))
    steps = []
    for idx, e in enumerate(circuits, start=1):
        e = tuple(sorted(e))
        if e not in index or vertex_mask(e) not in present:
            raise ValueError(f"{e} is not a circuit")
        status = _exposed_status(n, d, present, e)
        if not status.exposed:
            raise ValueError(f"step {idx}: circuit {e} is not exposed at its removal time")
        if require_proper and not status.proper:
            raise ValueError(f"step {idx}: circuit {e} is exposed but not properly exposed")
        steps.append(RemovalStep(e, status.clique, n - len(status.clique), status.proper))
        present.discard(vertex_mask(e))
    return ErasureCertificate(n, d, tuple(steps))


def _erasable(link: dict[int, int], masks, require_proper: bool):
    """The test for circuit ``masks[i]``: its clique mask when it is (properly)
    exposed in ``link``, else 0."""

    def ok(i: int) -> int:
        clique = exposed_clique(link, masks[i])
        if clique is None or require_proper and clique == masks[i]:
            return 0
        return clique

    return ok


def find_erasure_sequence(
    target: Clutter, require_proper: bool = False, greedy_only: bool = False
) -> ErasureCertificate | None:
    """Search for an erasure sequence from the complete clutter to ``target``.

    Removal candidates are the circuits missing from the target; the greedy
    choice is the lexicographically first exposed one, with full
    backtracking over removal sets (``search.find``).  Returns None when
    no sequence exists.

    Both walks below move one link table with ``toggle_circuit`` and test
    a move with ``_erasable`` on it.  The forward walk starts from the
    complete clutter, whose table maps each (d-1)-subset s to every vertex
    outside s.

    A "no" is also sought from the target's end (``search.find``'s
    ``backward``): a walk from the target that puts removed circuits back,
    each one exposed (properly, with ``require_proper``) once it is back.
    Circuit f is exposed in S+f iff ``_erasable`` accepts it on S's link
    table, without f: ``exposed_clique`` masks f's own vertices out of Q,
    and its clique test reads only the rows of (d-1)-subsets not inside f.
    So that walk's move test depends on the set put back alone, and it has
    an order iff the forward search has.  On a sparse target it often dies
    within a few states, where the forward search backtracks through
    thousands.  It is a generator, so its table is built only once the
    forward search first backs out of a dead state, which ``greedy_only``
    never does.
    """
    n, d = target.n, target.d
    masks = d_subset_masks(n, d)
    full = (1 << len(masks)) - 1
    rem = [masks[i - 1] for i in mask_vertices(full ^ target.circuit_index_mask)]  # lex order

    def moves(link: dict[int, int]):
        """The move test, push and pop of a walk on ``link``."""

        def toggle(i: int) -> None:
            toggle_circuit(link, rem[i])

        return _erasable(link, rem, require_proper), toggle, toggle

    def backward():
        back = moves(link_table(n, d, target.circuit_index_mask))
        return (yield from search.walk(len(rem), *back, False))

    vertices = (1 << n) - 1
    complete = {s: vertices ^ s for s in d_subset_masks(n, d - 1)}
    chosen = search.find(len(rem), *moves(complete), greedy_only, backward())
    if chosen is None:
        return None
    return replay_erasure_sequence(n, d, [mask_vertices(rem[i]) for i in chosen], require_proper)


def erasure_reachable_set(n: int, d: int, require_proper: bool = False) -> set[int]:
    """Breadth-first closure of exposed-circuit removals from the complete clutter.

    States are bitmasks of removed circuits over the lex d-subset order.
    Removals only shrink the clutter, so a clutter is reachable iff its
    removed-set appears here.
    """
    moves = _exposure_moves(n, d, require_proper)
    return set(iter(search.closure(comb(n, d), moves)))


def _exposure_moves(n: int, d: int, require_proper: bool = False):
    """The ``search.closure`` move test for (properly) exposed-circuit removals.

    A state is the set of circuits removed, and a move removes one, so one
    link table follows ``search.closure`` or ``search.stuck`` from state to
    state.  The test returns the clique mask (``_erasable``).  Impossible
    sizes raise ``ValueError`` before any table is built.
    """
    _check_size(n, d)
    masks = d_subset_masks(n, d)
    link = link_table(n, d, (1 << len(masks)) - 1)
    ok = _erasable(link, masks, require_proper)
    shown = 0  # the state that ``link`` shows

    def allowed(state: int):
        nonlocal shown
        for i in mask_vertices(shown ^ state):
            toggle_circuit(link, masks[i - 1])
        shown = state
        return ok

    return allowed


# -- Betti numbers from a certificate ----------------------------------------

def betti_from_erasures(cert: ErasureCertificate) -> list[int]:
    """beta_i as the binomial sums over the clique deficiencies k_j."""
    ks = cert.k_sequence
    if not ks:
        return []
    return [sum(comb(k, i) for k in ks) for i in range(max(ks) + 1)]


# -- h-vector identity ---------------------------------------------------------

def h_vector_check(cert: ErasureCertificate):
    """Compare the h-vector of the removed-facet complex with the k-multiset.

    The complex has one facet [n] \\ e per removed circuit e; its h-vector
    should count how many removals had each clique deficiency.
    """
    facets = complements(cert.n, [s.circuit for s in cert.removed])
    h = SimplicialComplex.from_facets(cert.n, facets).h_vector
    ks = cert.k_sequence
    counts = {k: ks.count(k) for k in set(ks)}
    equal = all(h[i] == counts.get(i, 0) for i in range(len(h))) and all(
        0 <= k < len(h) for k in counts
    )
    return h, sorted(ks), equal


# -- ridge chordality (breadth of comparison for the conjecture probes) -------

def is_ridge_chordal(clutter: Clutter) -> bool:
    """Decide whether simplicial-ridge deletions can empty the clutter.

    Move i deletes the i-th ridge r of the input (a (d-1)-subset of a
    circuit, lex order) with every circuit r+v left through it, by
    ``search.find`` on the link table.  r is simplicial iff r + link(r) is
    a clique; for e = r+v, Q(e) lies in link(r) - v, so the exposure kernel
    returns r + link(r) exactly then.  A ridge left in no circuit never
    regains one, so deleting it is allowed and does nothing: every move
    made means the clutter is empty.  The clutter at a state is the input
    circuits through no deleted ridge, so the dead-set memo is sound.
    """
    if clutter.d < 2:
        raise ValueError("ridge chordality needs d >= 2")
    link = link_table(clutter.n, clutter.d, clutter.circuit_index_mask)
    ridges = [r for r, rlink in link.items() if rlink]
    deleted = [0] * len(ridges)  # link[r] when ridge i was deleted

    def ok(i: int) -> bool:
        r = ridges[i]
        rlink = link[r]
        return not rlink or exposed_clique(link, r | (rlink & -rlink)) == r | rlink

    def toggle(i: int) -> None:
        r, m = ridges[i], deleted[i]
        while m:
            low = m & -m
            m ^= low
            toggle_circuit(link, r | low)

    def push(i: int) -> None:
        deleted[i] = link[ridges[i]]
        toggle(i)

    return search.find(len(ridges), ok, push, toggle) is not None
