import itertools
import random

import pytest

from clutterkit import search, suites
from clutterkit.clutter import Clutter, all_d_subsets
from clutterkit.erasures import find_erasure_sequence, replay_erasure_sequence
from clutterkit.homology import reduced_homology_dims
from clutterkit.ideals import SquarefreeIdeal, verify_quotient_order
from clutterkit.shelling import (
    check_contractible_extendable,
    erasures_to_shelling,
    is_extendably_shellable,
    shelling_to_erasures,
    skeleton_complex,
    verify_shelling,
)
from clutterkit.simplicial import SimplicialComplex


def test_any_order_shells_simplex_boundary():
    boundary = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    for order in itertools.permutations(boundary.facets):
        assert verify_shelling(boundary, order).valid


def test_disjoint_edges_are_not_a_shelling():
    complex_ = SimplicialComplex(4, ((1, 2), (3, 4)))
    report = verify_shelling(complex_, [(1, 2), (3, 4)])
    assert not report.valid and report.failed_at == 2


def test_shelling_of_dual_erasure_order(tailed_triangle):
    cert = find_erasure_sequence(tailed_triangle, require_proper=True)
    shelling = erasures_to_shelling(cert)
    assert shelling.order == ((2, 4, 5), (2, 3, 5), (2, 3, 4), (1, 4, 5), (1, 3, 5))
    assert shelling.restricted_sizes == (0, 1, 2, 1, 2)
    assert shelling_to_erasures(shelling) == cert


def test_vertex_orders_shell_zero_dimensional_complexes():
    points = SimplicialComplex(3, ((1,), (2,), (3,)))
    for order in itertools.permutations(points.facets):
        assert verify_shelling(points, order).valid


def test_verify_shelling_rejects_bad_input():
    complex_ = SimplicialComplex(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        verify_shelling(complex_, [(1, 2)])  # not a permutation
    mixed = SimplicialComplex(4, ((3,), (1, 2)))
    with pytest.raises(ValueError):
        verify_shelling(mixed, [(3,), (1, 2)])  # not pure


def test_empty_certificate_round_trip():
    cert = replay_erasure_sequence(4, 2, [])
    shelling = erasures_to_shelling(cert)
    assert shelling.complex.is_void and shelling.order == ()
    assert shelling_to_erasures(shelling, d=2) == cert
    with pytest.raises(ValueError):
        shelling_to_erasures(shelling)


def test_improper_step_has_full_restricted_set(bipyramid):
    cert = replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    shelling = erasures_to_shelling(cert)
    n, d = 5, 3
    assert shelling.restricted_sizes == (0, 1, 2)
    for step, size in zip(cert.removed, shelling.restricted_sizes):
        assert step.proper == (size < n - d)


def test_shelling_matches_quotient_order_step_for_step():
    # restricted-set sizes equal the colon counts of the dual ideal
    for n, d in [(4, 2), (5, 2), (5, 3)]:
        subsets = all_d_subsets(n, d)
        for cmask in range(0, 1 << len(subsets), 7):
            clutter = Clutter(
                n, d, tuple(subsets[i] for i in range(len(subsets)) if cmask >> i & 1)
            )
            cert = find_erasure_sequence(clutter)
            if cert is None or not cert.removed:
                continue
            shelling = erasures_to_shelling(cert)
            ideal = SquarefreeIdeal.from_supports(n, [s.circuit for s in cert.removed])
            report = verify_quotient_order(ideal)
            assert report.ok
            assert report.ell_sequence == shelling.restricted_sizes


def test_invalid_facet_orders_match_quotient_failures():
    # the equivalence also holds for orders that fail partway
    import random

    rng = random.Random(8)
    skeleton = skeleton_complex(5, 2)
    for _ in range(60):
        order = list(skeleton.facets)
        rng.shuffle(order)
        report = verify_shelling(skeleton, order)
        duals = [tuple(sorted(set(range(1, 6)) - set(f))) for f in order]
        qreport = verify_quotient_order(SquarefreeIdeal.from_supports(5, duals))
        assert report.valid == qreport.ok
        assert report.failed_at == qreport.failed_at
        if report.valid:
            assert report.restricted_sizes == qreport.ell_sequence


def test_sphere_step_count_is_order_invariant():
    # number of full restricted sets is a homotopy invariant of the complex
    skeleton = skeleton_complex(4, 1)  # 6 edges of the complete graph on 4 vertices
    counts = set()
    for order in itertools.permutations(skeleton.facets):
        report = verify_shelling(skeleton, order)
        if report.valid:
            counts.add(sum(1 for size in report.restricted_sizes if size == 4 - 2))
    assert len(counts) == 1

    # same on a proper 5-vertex subcomplex (one sphere step in every shelling)
    cert = replay_erasure_sequence(5, 2, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    sub = erasures_to_shelling(cert).complex
    counts = set()
    for order in itertools.permutations(sub.facets):
        report = verify_shelling(sub, order)
        if report.valid:
            counts.add(sum(1 for size in report.restricted_sizes if size == 5 - 2))
    assert len(counts) == 1


def test_extension_and_erasure_encodings_agree():
    # the skeleton extension search and the exposed-circuit picture decide
    # the same question: a prefix extends iff one more facet is addable,
    # and the dual clutter then has an exposed circuit off the target
    from clutterkit.erasures import erasure_reachable_set
    from clutterkit.shelling import _shelling_moves

    for n in (4, 5):
        skeleton = skeleton_complex(n, n - 3)
        facets, allowed = _shelling_moves(skeleton)
        parents = search.closure(len(facets), allowed)
        facet_index = {f: i for i, f in enumerate(facets)}
        reach = erasure_reachable_set(n, 2)
        subsets = all_d_subsets(n, 2)
        everything = set(range(1, n + 1))
        translated = set()
        for state in reach:
            bits = 0
            for i in range(len(subsets)):
                if state >> i & 1:
                    bits |= 1 << facet_index[tuple(sorted(everything - set(subsets[i])))]
            translated.add(bits)
        assert translated == set(parents)
        # extension verdicts coincide with exposed-circuit availability
        assert search.stuck(len(facets), allowed, parents) == []
        result = is_extendably_shellable(skeleton)
        assert result.extendable


def test_shelling_moves_match_the_definition():
    # the colon-kernel move test against one that replays a shelling of the
    # prefix, plus the new facet, through verify_shelling
    from clutterkit.shelling import _shelling_moves

    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(3, 7)
        faces = list(itertools.combinations(range(1, n + 1), rng.randint(1, n - 1)))
        chosen = rng.sample(faces, rng.randint(1, min(12, len(faces))))
        complex_ = SimplicialComplex(n, tuple(sorted(chosen)))
        facets, allowed = _shelling_moves(complex_)
        orders = {0: []}  # a shelling of each reached prefix

        def reference(state):
            order = orders[state]

            def ok(f):
                grown = order + [facets[f]]
                if not verify_shelling(SimplicialComplex(n, tuple(sorted(grown))), grown).valid:
                    return False
                orders.setdefault(state | 1 << f, grown)
                return True

            return ok

        last = search.closure(len(facets), allowed)
        assert list(search.closure(len(facets), reference).items()) == list(last.items())
        states = sorted(last)
        assert search.stuck(len(facets), allowed, states) == search.stuck(len(facets), reference, states)


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 4), (6, 5)])
def test_simon_probe_and_skeleton_extendability_agree(n, d):
    # complements turn the partial shellings of the (n-d-1)-skeleton into
    # the clutters reachable by erasures, and a stuck prefix into a clutter
    # with circuits but none exposed
    probe = suites.probe_simon(n, d)
    result = is_extendably_shellable(skeleton_complex(n, n - d - 1))
    assert probe["states_checked"] == result.states
    assert (probe["counterexamples"] == []) == result.extendable


# Contractible and shellable, 181 partial shellings, not extendable.
STUCK_TRIANGLES = SimplicialComplex(6, (
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 6), (1, 4, 5),
    (2, 3, 5), (2, 4, 6), (2, 5, 6), (3, 4, 5), (3, 4, 6),
))
STUCK_WITNESS = ((1, 3, 6), (3, 4, 6), (2, 4, 6), (2, 5, 6))


def test_stuck_witness_is_pinned_and_checked():
    result = is_extendably_shellable(STUCK_TRIANGLES)
    assert (result.extendable, result.shellable, result.states) == (False, True, 181)
    assert result.stuck_witness == STUCK_WITNESS
    assert not any(reduced_homology_dims(STUCK_TRIANGLES, "rational").values())
    # the witness shells its own facets, and no remaining facet extends it
    prefix = SimplicialComplex(6, tuple(sorted(STUCK_WITNESS)))
    assert verify_shelling(prefix, STUCK_WITNESS).valid
    rest = [f for f in STUCK_TRIANGLES.facets if f not in STUCK_WITNESS]
    assert len(rest) == 6
    for facet in rest:
        grown = SimplicialComplex(6, tuple(sorted(STUCK_WITNESS + (facet,))))
        report = verify_shelling(grown, STUCK_WITNESS + (facet,))
        assert not report.valid and report.failed_at == 5


def test_extendably_shellable_skeletons_and_boundary():
    assert is_extendably_shellable(skeleton_complex(4, 1)).extendable
    assert is_extendably_shellable(skeleton_complex(5, 2)).extendable
    boundary = SimplicialComplex(5, tuple(itertools.combinations(range(1, 6), 4)))
    assert is_extendably_shellable(boundary).extendable


def test_extendability_rejects_unshellable_input():
    with pytest.raises(ValueError, match="not shellable"):
        is_extendably_shellable(SimplicialComplex(4, ((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="size guard"):
        is_extendably_shellable(skeleton_complex(8, 5))


def test_extendability_size_guard_fires_before_any_work():
    # 286 facets: any per-facet table or closure state built before the
    # guard would show in the traced peak
    import tracemalloc

    big = skeleton_complex(13, 2)
    assert len(big.facets) == 286
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size guard"):
            is_extendably_shellable(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_extendability_state_count_matches_chordal_graphs():
    # prefixes of the codimension-2 skeleton are exactly co-chordal edge sets
    from clutterkit.graphs import enumerate_chordal_graphs

    result = is_extendably_shellable(skeleton_complex(5, 2))
    assert result.states == len(enumerate_chordal_graphs(5))


def test_contractible_extendable_probe():
    # remove all edges outside a spanning star of the complete graph on 5 vertices
    star = {(1, v) for v in range(2, 6)}
    target = Clutter.from_circuits(5, 2, star)
    cert = find_erasure_sequence(target, require_proper=True)
    assert cert is not None
    shelling = erasures_to_shelling(cert)
    report = check_contractible_extendable(shelling.complex)
    assert report["hypothesis_ok"] and report["extendable"]
    assert report["tree_is_spanning_tree"]
    assert sorted(map(tuple, report["tree_edges"])) == sorted(star)

    path = {(1, 2), (2, 3), (3, 4), (4, 5)}
    cert = find_erasure_sequence(Clutter.from_circuits(5, 2, path), require_proper=True)
    report = check_contractible_extendable(erasures_to_shelling(cert).complex)
    assert report["hypothesis_ok"] and report["extendable"]

    bad = check_contractible_extendable(skeleton_complex(5, 2))
    assert not bad["hypothesis_ok"]


def test_skeleton_complex_edges():
    assert skeleton_complex(4, -1).facets == ((),)
    assert skeleton_complex(4, 0).facets == ((1,), (2,), (3,), (4,))
    with pytest.raises(ValueError):
        skeleton_complex(4, 4)
