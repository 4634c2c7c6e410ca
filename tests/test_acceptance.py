"""Acceptance suite.

One test per criterion, each asserting its exact expected values and its
wall-clock budget, and printing a PASS line (visible with --capture=no).
The two heavyweight sweeps are module-scoped fixtures so dependent
criteria reuse their reports.
"""

import time

import pytest

from clutterkit import suites
from clutterkit.clutter import Clutter
from clutterkit.erasures import (
    betti_from_erasures,
    find_erasure_sequence,
    replay_erasure_sequence,
)
from clutterkit.homology import (
    hochster_betti_table,
    reduced_homology_dims,
)
from clutterkit.ideals import (
    SquarefreeIdeal,
    colon_by_monomial,
    monomial,
    verify_quotient_order,
)
from clutterkit.shelling import skeleton_complex, is_extendably_shellable


def _announce(number: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def froberg6():
    start = time.perf_counter()
    report = suites.froberg_suite(6)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def clutter53():
    start = time.perf_counter()
    report = suites.clutter_erasure_suite(5, 3)
    return report, time.perf_counter() - start


def test_criterion_01_listed_quotient_order():
    start = time.perf_counter()
    ideal = SquarefreeIdeal.from_supports(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
    report = verify_quotient_order(ideal)
    assert report.ok
    final = colon_by_monomial(
        SquarefreeIdeal(5, ideal.generators[:4]), monomial((2, 4))
    )
    assert [g.support for g in final.generators] == [(1,), (3,)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, "listed generator order has linear quotients, final colon (x1, x3)", elapsed)


def test_criterion_02_betti_numbers_three_ways():
    start = time.perf_counter()
    graph = Clutter.from_circuits(5, 2, [(1, 2), (2, 5), (3, 4), (3, 5), (4, 5)])
    resolution_ranks = [5, 6, 2]
    for field in ("gf2", "rational"):
        assert hochster_betti_table(graph, field).betti_numbers() == resolution_ranks
    cert = find_erasure_sequence(graph)
    assert cert is not None
    assert betti_from_erasures(cert) == resolution_ranks
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(2, "Betti numbers (5, 6, 2) by formula, homology, and known ranks", elapsed)


def test_criterion_03_three_uniform_example():
    start = time.perf_counter()
    cert = replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    assert cert.k_sequence == (0, 1, 2)
    assert betti_from_erasures(cert) == [3, 3, 1]
    table = hochster_betti_table(cert.result, "gf2")
    assert table.betti_numbers() == [3, 3, 1]
    assert table.is_linear(3)
    assert table.pdim == 2
    worse = cert.result.without((2, 3, 4))
    assert not hochster_betti_table(worse, "gf2").is_linear(3)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(3, "3-uniform example: k = (0,1,2), Betti (3,3,1), linearity flips", elapsed)


def test_criterion_04_vanishing_first_homology():
    start = time.perf_counter()
    clutter = (
        Clutter.complete(5, 3).without((1, 2, 3)).without((1, 2, 5)).without((1, 3, 5))
    )
    complex_ = clutter.clique_complex()
    for field in ("gf2", "rational"):
        assert reduced_homology_dims(complex_, field)[1] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(4, "clique complex of the connected 3-clutter has trivial H1", elapsed)


def test_criterion_05_chordality_equivalences_exhaustive(froberg6):
    report, elapsed = froberg6
    assert report["graphs"] == 1 << 15
    assert report["closure_sets_equal"]
    assert report["discrepancies"] == []
    assert report["field_disagreements"] == []
    assert report["certificate_failures"] == []
    assert report["proper_connectivity_failures"] == []
    assert elapsed < 600.0
    _announce(5, "chordal = erasure-reachable = linear resolution = linear quotients (n=6)", elapsed)


def test_criterion_06_connectivity_lemma_exhaustive():
    start = time.perf_counter()
    report = suites.connectivity_suite(6)
    assert report["discrepancies"] == []
    assert report["checked"] == 2 + 8 + 64 + 1024 + 32768
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce(6, "connectivity = small projective dimension (n <= 6)", elapsed)


def test_criterion_07_proper_erasures_exhaustive_d3(clutter53):
    report, elapsed = clutter53
    assert report["clutters"] == 1 << 10
    assert report["closure_sets_equal"]
    assert report["discrepancies"] == []
    assert report["certificate_failures"] == []
    assert elapsed < 300.0
    _announce(7, "proper erasures = linear quotients + small pdim (d=3, n=5)", elapsed)


def test_criterion_08_skeleton_extendability():
    start = time.perf_counter()
    assert is_extendably_shellable(skeleton_complex(5, 2)).extendable
    n6_start = time.perf_counter()
    result6 = is_extendably_shellable(skeleton_complex(6, 3))
    n6_elapsed = time.perf_counter() - n6_start
    assert result6.extendable
    assert n6_elapsed < 120.0
    elapsed = time.perf_counter() - start
    _announce(8, "codimension-2 skeleta are extendably shellable (n = 5, 6)", elapsed)


def test_criterion_09_h_vector_identity(froberg6, clutter53):
    start = time.perf_counter()
    froberg_report, _ = froberg6
    clutter_report, _ = clutter53
    assert froberg_report["h_vector_checked"] == froberg_report["chordal_count"] > 0
    assert clutter_report["h_vector_checked"] == clutter_report["reachable_count"] > 0
    for report in (froberg_report, clutter_report):
        assert not any(
            "h-vector" in problems for _, problems in report["certificate_failures"]
        )
    elapsed = time.perf_counter() - start
    _announce(9, "h-vector of the removed-facet complex counts the k-multiset", elapsed)


def test_criterion_10_chromatic_polynomial_exhaustive():
    start = time.perf_counter()
    report = suites.chromatic_suite(7)
    assert report["mismatches"] == []
    assert report["checked"] == 2 + 8 + 61 + 822 + 18154 + 617675
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce(10, "elimination product equals deletion-contraction (n <= 7)", elapsed)


def test_criterion_11_mst_randomized():
    start = time.perf_counter()
    report = suites.mst_suite(1000, 9, seed=20260808)
    assert report["failures"] == []
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(11, "erasure spanning trees match Kruskal (1000 weighted graphs)", elapsed)


def test_criterion_12_boundary_two_edge_connected():
    start = time.perf_counter()
    report = suites.boundary_suite(7)
    assert report["failures"] == []
    assert report["checked"] == 2 + 8 + 61 + 822 + 18154 + 617675
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    _announce(12, "properly exposed subgraphs are 2-edge-connected (n <= 7)", elapsed)


def test_criterion_13_free_face_correspondence():
    start = time.perf_counter()
    graph_report = suites.free_face_suite(6, 2)
    assert graph_report["discrepancies"] == []
    clutter_report = suites.free_face_suite(5, 3)
    assert clutter_report["discrepancies"] == []
    elapsed = time.perf_counter() - start
    _announce(13, "exposed circuits are exactly the unique-facet faces", elapsed)


def test_probes_run_with_zero_counterexamples():
    # the open conjectures are probed, never asserted; at these scales the
    # reports should contain no counterexample candidates
    start = time.perf_counter()
    for n, d in ((6, 2), (5, 3)):
        simon = suites.probe_simon(n, d)
        assert simon["counterexamples"] == []
    # every partial shelling of the 2-skeleton of the 5-simplex extends
    simon_start = time.perf_counter()
    simon = suites.probe_simon(6, 3)
    assert simon["states_checked"] == 739_592 and simon["counterexamples"] == []
    assert time.perf_counter() - simon_start < 60.0
    ridge = suites.probe_ridge_chordal(5, 3)
    assert ridge["counterexamples"] == []
    elapsed = time.perf_counter() - start
    _announce(14, "conjecture probes report zero counterexamples (observation)", elapsed)
