"""Exhaustive and randomized verification sweeps.

Each suite returns a JSON-serializable report whose ``ok`` field states
whether every checked instance satisfied the property; witnesses for any
failures are embedded so verdicts can be revalidated offline.  Reports are
deterministic for a fixed configuration and seed.  Each exhaustive suite
is a report skeleton and a per-instance row function, run by ``_sweep``,
except the k-multiset suite, which is one pass over an erasure closure.
"""

from __future__ import annotations

import contextlib
import os
import random
from math import comb

from . import search
from .clutter import MAX_VERTICES, Clutter, SizeGuardError, all_d_subsets, vertex_mask
from .erasures import (
    _exposure_moves,
    betti_from_erasures,
    erasure_reachable_set,
    find_erasure_sequence,
    h_vector_check,
    is_ridge_chordal,
)
from .graphs import (
    chromatic_polynomial_dc,
    chromatic_polynomial_product,
    enumerate_chordal_graphs,
    graph_connected,
    graph_from_edge_mask,
    is_chordal_classic,
    kruskal_mst,
    mst_by_erasures,
    properly_exposed_subgraph,
    random_connected_chordal,
    WeightedGraph,
)
from .homology import hochster_betti_table, is_connected_graph_algebraic
from .ideals import (
    _linear_divisor_mask,
    find_quotient_order,
    ideal_of_clutter,
    quotient_reachable_set,
)


def _cert_checks(cert, table, n: int) -> list[str]:
    """Certificate-level cross checks: Betti agreement, colon/clique duality, h-vector."""
    problems = []
    if betti_from_erasures(cert) != table.betti_numbers():
        problems.append("betti-formula-vs-hochster")
    prefix: list[int] = []
    fullmask = (1 << n) - 1
    for step in cert.removed:
        mmask = vertex_mask(step.circuit)
        singles = _linear_divisor_mask(prefix, mmask)
        if singles is None or singles != fullmask ^ vertex_mask(step.clique):
            problems.append("colon-variables-vs-clique")
            break
        prefix.append(mmask)
    if not h_vector_check(cert)[2]:
        problems.append("h-vector")
    return problems


def froberg_suite(n: int, jobs: int = 1) -> dict:
    """Four-way chordality equivalence over every graph on n labeled vertices.

    Per graph: induced-cycle chordality, per-instance erasure search,
    linearity of the Hochster Betti table over both fields, and per-instance
    quotient-order search must agree, as must membership in the two
    set-level reachability closures (which must coincide with each other).
    Certificates found get their Betti numbers, colon/clique duality, and
    h-vector identity checked on the spot.
    """
    jobs = _check_jobs(jobs)
    nedges = n * (n - 1) // 2
    reach = erasure_reachable_set(n, 2)
    reach_proper = erasure_reachable_set(n, 2, require_proper=True)
    qreach = quotient_reachable_set(n, 2)
    report: dict = {
        "suite": "froberg",
        "n": n,
        "graphs": 1 << nedges,
        "closure_sets_equal": set(reach) == qreach,
        "chordal_count": 0,
        "h_vector_checked": 0,
        "discrepancies": [],
        "field_disagreements": [],
        "certificate_failures": [],
        "proper_connectivity_failures": [],
        "greedy_failures": 0,
    }
    context = (n, (1 << nedges) - 1, reach, reach_proper, qreach)
    return _sweep(report, _froberg_row, [(context, range(1 << nedges))], jobs)


def _froberg_row(context, gmask: int):
    n, full, reach, reach_proper, qreach = context
    graph = graph_from_edge_mask(n, gmask)
    removed = full ^ gmask
    chordal = is_chordal_classic(graph)
    cert = find_erasure_sequence(graph)
    order = find_quotient_order(ideal_of_clutter(graph.complement()))
    table2 = hochster_betti_table(graph, "gf2")
    tableq = hochster_betti_table(graph, "rational")
    if table2 != tableq:
        yield "field_disagreements", [gmask]
    verdicts = {
        "classic": chordal,
        "erasure": cert is not None,
        "linear_resolution": table2.is_linear(2),
        "quotient_order": order is not None,
        "erasure_closure": removed in reach,
        "quotient_closure": removed in qreach,
    }
    if len(set(verdicts.values())) != 1:
        yield "discrepancies", [[gmask, verdicts]]
        return
    if (removed in reach_proper) != (chordal and graph_connected(graph)):
        yield "proper_connectivity_failures", [gmask]
    if chordal:
        yield "chordal_count", 1
        if not table2.zero_ideal and table2.betti(0) != len(graph.complement()):
            yield "certificate_failures", [[gmask, ["beta0-vs-generators"]]]
        problems = _cert_checks(cert, table2, n)
        yield "h_vector_checked", 1
        if problems:
            yield "certificate_failures", [[gmask, problems]]
        if find_erasure_sequence(graph, greedy_only=True) is None:
            yield "greedy_failures", 1


def _check_jobs(jobs: int) -> int:
    """Reject ``jobs < 1``, before a suite does any work; clamp to the CPU count."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _check_sizes(**sizes: int) -> None:
    """Reject a negative size, before a suite does any work."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {name}={value}")


def _sweep(report: dict, row, tasks, jobs: int) -> dict:
    """Run ``row(context, key)`` over the keys of every ``(context, keys)`` task.

    A row yields ``(field, delta)`` pairs: an int adds to the report's
    count, a list extends its witness list.  Each task's keys are split
    into one contiguous chunk per job (``jobs`` as ``_check_jobs`` returned
    it) and the chunks are merged in key order, so the report does not
    depend on ``jobs``; a single job runs in this process, more share one
    pool for the whole sweep.  ``row`` is a module-level function and the
    contexts pickle, for the pool.  The report is ok iff every witness
    list is empty and every bool holds.
    """
    run = map
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            import multiprocessing

            run = stack.enter_context(multiprocessing.Pool(jobs)).map
        for context, keys in tasks:
            step = max(1, -(-len(keys) // jobs))
            chunks = [(row, context, keys[lo : lo + step]) for lo in range(0, len(keys), step)]
            for chunk in run(_sweep_chunk, chunks):
                for field, value in chunk.items():
                    report[field] += value
    report["ok"] = all(
        value if isinstance(value, bool) else not value
        for value in report.values()
        if isinstance(value, (bool, list))
    )
    return report


def _sweep_chunk(args) -> dict:
    row, context, keys = args
    totals: dict = {}
    for key in keys:
        for field, delta in row(context, key):
            if field in totals:
                totals[field] += delta  # rows yield fresh lists, so extending in place is safe
            else:
                totals[field] = delta
    return totals


def connectivity_suite(max_n: int, jobs: int = 1) -> dict:
    """Graph-search connectivity against the Betti-table criterion, n = 2..max_n.

    (A single vertex admits no 2-clutter, so n = 1 has nothing to check.)
    """
    jobs = _check_jobs(jobs)
    _check_sizes(n=max_n)
    search.check_moves(max_n * (max_n - 1) // 2)
    report: dict = {"suite": "connectivity", "max_n": max_n, "checked": 0, "discrepancies": []}
    tasks = [(n, range(1 << (n * (n - 1) // 2))) for n in range(2, max_n + 1)]
    return _sweep(report, _connectivity_row, tasks, jobs)


def _connectivity_row(n: int, gmask: int):
    graph = graph_from_edge_mask(n, gmask)
    yield "checked", 1
    if graph_connected(graph) != is_connected_graph_algebraic(graph):
        yield "discrepancies", [[n, gmask]]


def clutter_erasure_suite(n: int, d: int, jobs: int = 1) -> dict:
    """Proper-erasure reachability vs (linear quotients and small projective
    dimension), over every d-clutter on n vertices."""
    jobs = _check_jobs(jobs)
    total = len(all_d_subsets(n, d))
    reach_proper = erasure_reachable_set(n, d, require_proper=True)
    qreach_small = quotient_reachable_set(n, d, small_only=True)
    report: dict = {
        "suite": "clutter-erasure",
        "n": n,
        "d": d,
        "clutters": 1 << total,
        "closure_sets_equal": set(reach_proper) == qreach_small,
        "reachable_count": 0,
        "h_vector_checked": 0,
        "discrepancies": [],
        "certificate_failures": [],
    }
    context = (n, d, (1 << total) - 1, reach_proper)
    return _sweep(report, _clutter_erasure_row, [(context, range(1 << total))], jobs)


def _clutter_erasure_row(context, cmask: int):
    n, d, full, reach_proper = context
    clutter = Clutter.from_index_mask(n, d, cmask)
    cert = find_erasure_sequence(clutter, require_proper=True)
    order = find_quotient_order(ideal_of_clutter(clutter.complement()))
    table = hochster_betti_table(clutter, "gf2")
    pdim_small = table.zero_ideal or table.pdim < n - d
    verdicts = {
        "proper_erasure": cert is not None,
        "quotients_and_pdim": order is not None and pdim_small,
        "proper_closure": (full ^ cmask) in reach_proper,
    }
    if len(set(verdicts.values())) != 1:
        yield "discrepancies", [[cmask, verdicts]]
    elif cert is not None:
        yield "reachable_count", 1
        problems = _cert_checks(cert, table, n)
        yield "h_vector_checked", 1
        if problems:
            yield "certificate_failures", [[cmask, problems]]


def free_face_suite(n: int, d: int, jobs: int = 1) -> dict:
    """Exposed circuits against unique-facet membership in the clique complex.

    Runs over every d-clutter on n vertices; the facet count comes from an
    independent maximal-clique enumeration.
    """
    jobs = _check_jobs(jobs)
    total = len(all_d_subsets(n, d))
    search.check_moves(total)
    report: dict = {
        "suite": "free-face",
        "n": n,
        "d": d,
        "clutters": 1 << total,
        "circuits_checked": 0,
        "discrepancies": [],
    }
    return _sweep(report, _free_face_row, [((n, d), range(1 << total))], jobs)


def _free_face_row(context, cmask: int):
    clutter = Clutter.from_index_mask(*context, cmask)
    facets = [set(f) for f in clutter.max_cliques()]
    yield "circuits_checked", len(clutter.circuits)
    for e in clutter.circuits:
        es = set(e)
        containing = sum(1 for f in facets if es <= f)
        if clutter.exposed_status(e).exposed != (containing == 1):
            yield "discrepancies", [[cmask, list(e)]]


def chromatic_suite(max_n: int, jobs: int = 1) -> dict:
    """Elimination-product chromatic polynomial vs deletion-contraction,
    over every chordal graph with at most max_n vertices."""
    jobs = _check_jobs(jobs)
    _check_sizes(n=max_n)
    search.check_moves(max_n * (max_n - 1) // 2)
    report: dict = {"suite": "chromatic", "max_n": max_n, "checked": 0, "mismatches": []}
    # The context carries one deletion-contraction memo, shared by a chunk's graphs.
    tasks = (((n, {}), sorted(enumerate_chordal_graphs(n))) for n in range(2, max_n + 1))
    return _sweep(report, _chromatic_row, tasks, jobs)


def _chromatic_row(context, gmask: int):
    n, memo = context
    graph = graph_from_edge_mask(n, gmask)
    yield "checked", 1
    product = chromatic_polynomial_product(graph)
    if product != chromatic_polynomial_dc(graph, memo):
        yield "mismatches", [[n, gmask]]


def boundary_suite(max_n: int, jobs: int = 1) -> dict:
    """Two-edge-connectivity of every properly-exposed subgraph component,
    over every chordal graph with at most max_n vertices."""
    jobs = _check_jobs(jobs)
    _check_sizes(n=max_n)
    search.check_moves(max_n * (max_n - 1) // 2)
    report: dict = {"suite": "boundary", "max_n": max_n, "checked": 0, "failures": []}
    tasks = ((n, sorted(enumerate_chordal_graphs(n))) for n in range(2, max_n + 1))
    return _sweep(report, _boundary_row, tasks, jobs)


def _boundary_row(n: int, gmask: int):
    yield "checked", 1
    try:
        rep = properly_exposed_subgraph(graph_from_edge_mask(n, gmask))
        bridged = any(not ok for _, ok in rep.components)
    except RuntimeError:  # its own check found a bridge in a chordal graph's boundary
        bridged = True
    if bridged:
        yield "failures", [[n, gmask]]


def mst_suite(count: int, max_n: int, seed: int) -> dict:
    """Erasure spanning trees against Kruskal on random weighted chordal graphs.

    Weights are distinct integers, so the minimum spanning tree is unique
    and the edge sets must match exactly, not just the weights.  Each n is
    drawn from 3..``max_n``, so ``max_n`` is checked before any draw.
    """
    _check_sizes(count=count, max_n=max_n)
    if max_n > MAX_VERTICES:
        raise SizeGuardError(f"size guard: at most {MAX_VERTICES} vertices supported, got max_n={max_n}")
    if count and max_n < 3:
        raise ValueError(f"need max_n >= 3 when count > 0, got max_n={max_n}")
    rng = random.Random(seed)
    report: dict = {
        "suite": "mst",
        "count": count,
        "max_n": max_n,
        "seed": seed,
        "failures": [],
    }
    for trial in range(count):
        n = rng.randint(3, max_n)
        graph = random_connected_chordal(n, rng)
        weights = rng.sample(range(1, 10 * len(graph.circuits) + 10), len(graph.circuits))
        weighted = WeightedGraph.from_edges(
            n, [(u, v, w) for (u, v), w in zip(graph.circuits, weights)]
        )
        mine, my_weight = mst_by_erasures(weighted)
        oracle, oracle_weight = kruskal_mst(weighted)
        if my_weight != oracle_weight or mine != oracle:
            report["failures"].append(
                [trial, n, [list(e) for e in sorted(graph.circuits)], sorted(weights)]
            )
    report["ok"] = not report["failures"]
    return report


def skeleton_extendability_suite(n: int) -> dict:
    """Exhaustive extendable-shellability of the (n-3)-skeleton of a simplex."""
    from .shelling import is_extendably_shellable, skeleton_complex

    result = is_extendably_shellable(skeleton_complex(n, n - 3))
    return {
        "suite": "skeleton-extendability",
        "n": n,
        "dim": n - 3,
        "extendable": result.extendable,
        "partial_shellings_checked": result.states,
        "stuck_witness": None
        if result.stuck_witness is None
        else [list(f) for f in result.stuck_witness],
        "ok": result.extendable,
    }


def probe_simon(n: int, d: int) -> dict:
    """Probe of the reformulated extendability conjecture: every clutter
    reachable by exposed-circuit removals should itself contain an exposed
    circuit (unless it has none at all), that is, no reached state is
    stuck.  Counterexamples are reported as observations, never asserted."""
    allowed = _exposure_moves(n, d)
    total = comb(n, d)
    reach = search.closure(total, allowed)
    full = (1 << total) - 1
    counterexamples = [
        sorted(list(e) for e in Clutter.from_index_mask(n, d, full ^ removed).circuits)
        for removed in search.stuck(total, allowed, sorted(reach))
    ]
    return {
        "probe": "simon-reformulated",
        "n": n,
        "d": d,
        "states_checked": len(reach),
        "counterexamples": counterexamples,
    }


def probe_ridge_chordal(n: int, d: int) -> dict:
    """Probe: complement ideals with linear quotients should come from
    ridge-chordal clutters.  Counterexamples are observations only."""
    full = (1 << len(all_d_subsets(n, d))) - 1
    reach = erasure_reachable_set(n, d)
    counterexamples = []
    for removed in sorted(reach):
        clutter = Clutter.from_index_mask(n, d, full ^ removed)
        if clutter.circuits and not is_ridge_chordal(clutter):
            counterexamples.append(sorted(list(e) for e in clutter.circuits))
    return {
        "probe": "ridge-chordal",
        "n": n,
        "d": d,
        "clutters_checked": len(reach),
        "counterexamples": counterexamples,
    }


def multiset_invariance_suite(n: int, d: int) -> dict:
    """Every erasure order for one target gives it the same k-multiset.

    One closure of exposed-circuit removals, then one pass over its edges:
    edge (S, e) gives state S + e the multiset of S plus k = n - |clique(e)|,
    and every parent of a state must give it the same multiset.  A state's
    subsets come before it in integer order, so its multiset is final when
    the pass reads it.  A multiset is one int holding the count of k in bit
    field k.
    """
    allowed = _exposure_moves(n, d)
    total = comb(n, d)
    full = (1 << total) - 1
    width = total.bit_length()
    states = sorted(search.closure(total, allowed))
    packed = {0: 0}
    failures = {}
    for state in states:
        ok = allowed(state)
        mine = packed.pop(state)
        free = full ^ state
        while free:
            bit = free & -free
            free ^= bit
            clique = ok(bit.bit_length() - 1)
            if clique:
                theirs = mine + (1 << (n - clique.bit_count()) * width)
                had = packed.setdefault(state | bit, theirs)
                if had != theirs:
                    failures.setdefault(full ^ state ^ bit, [had, theirs])

    def k_list(multiset: int) -> list[int]:
        return [k for k in range(n - d + 1) for _ in range(multiset >> k * width & (1 << width) - 1)]

    return {
        "suite": "k-multiset-invariance",
        "n": n,
        "d": d,
        "targets": len(states),
        "failures": [[target, sorted(map(k_list, pair))] for target, pair in sorted(failures.items())],
        "ok": not failures,
    }
