import json
import random
from math import comb

import pytest

from clutterkit import erasures, search
from clutterkit.clutter import (
    Clutter,
    _exposed_status,
    all_d_subsets,
    d_subset_index,
    d_subset_masks,
    link_table,
    mask_vertices,
    toggle_circuit,
    vertex_mask,
)
from clutterkit.erasures import (
    ErasureCertificate,
    RemovalStep,
    betti_from_erasures,
    erasure_reachable_set,
    find_erasure_sequence,
    h_vector_check,
    is_ridge_chordal,
    replay_erasure_sequence,
)
from clutterkit.graphs import enumerate_chordal_graphs, graph_from_edge_mask, perfect_elimination_ordering


def test_find_erasure_sequence_tailed_triangle(tailed_triangle):
    cert = find_erasure_sequence(tailed_triangle, require_proper=True)
    assert cert is not None
    assert [s.circuit for s in cert.removed] == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    assert cert.k_sequence == (0, 1, 2, 1, 2)
    assert all(s.proper for s in cert.removed)
    assert cert.result == tailed_triangle


def test_find_erasure_sequence_four_cycle_none(four_cycle):
    assert find_erasure_sequence(four_cycle) is None
    assert find_erasure_sequence(four_cycle, require_proper=True) is None


def test_find_erasure_sequence_complete_is_empty():
    cert = find_erasure_sequence(Clutter.complete(4, 3))
    assert cert is not None and cert.removed == ()
    assert betti_from_erasures(cert) == []


def test_erasure_chordal_flags(bipyramid, tailed_triangle, four_cycle):
    assert find_erasure_sequence(tailed_triangle) is not None
    assert find_erasure_sequence(four_cycle) is None
    assert find_erasure_sequence(bipyramid) is not None
    # the third removal (145) is exposed but improper, so proper-only fails
    assert find_erasure_sequence(bipyramid, require_proper=True) is None


def test_replay_validates_the_documented_sequence():
    cert = replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    assert cert.k_sequence == (0, 1, 2)
    assert [s.clique for s in cert.removed] == [(1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 4, 5)]
    assert [s.proper for s in cert.removed] == [True, True, False]
    with pytest.raises(ValueError):
        replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)], require_proper=True)
    with pytest.raises(ValueError):
        replay_erasure_sequence(5, 3, [(1, 2, 5), (2, 3, 4)])  # 234 not exposed after 125


def per_step_replay(n, d, circuits, require_proper=False):
    """The replay as a loop over a fresh ``Clutter`` per step, asking
    ``Clutter.exposed_status`` at each: the reference for the replay."""
    index = d_subset_index(n, d)
    current = Clutter.complete(n, d)
    steps = []
    for idx, e in enumerate(circuits, start=1):
        e = tuple(sorted(e))
        status = current.exposed_status(e)
        if not status.exposed:
            raise ValueError(f"step {idx}: circuit {e} is not exposed at its removal time")
        if require_proper and not status.proper:
            raise ValueError(f"step {idx}: circuit {e} is exposed but not properly exposed")
        steps.append(RemovalStep(e, status.clique, n - len(status.clique), status.proper))
        current = Clutter.from_index_mask(n, d, current.circuit_index_mask & ~(1 << index[e]))
    return ErasureCertificate(n, d, tuple(steps))


def _replayed(replay, n, d, order, require_proper):
    """The certificate, or the message of the ``ValueError`` the replay raised."""
    try:
        return replay(n, d, order, require_proper)
    except ValueError as exc:
        return str(exc)


def _seeded_orders(n, d, rng):
    """Random exposed walks (each step erasable by the reference, some only
    improperly) and random shuffles, which mostly fail part way."""
    pool = list(all_d_subsets(n, d))
    for _ in range(12):
        current, order = Clutter.complete(n, d), []
        while True:
            exposed = [e for e in current.circuits if current.exposed_status(e).exposed]
            if not exposed or rng.random() < 0.1:
                break
            order.append(rng.choice(exposed))
            current = current.without(order[-1])
        yield order
    for _ in range(8):
        yield rng.sample(pool, rng.randint(1, len(pool)))


def test_replay_matches_the_per_step_clutter_replay():
    for n, d in [(4, 1), (5, 2), (5, 3), (6, 3), (6, 4)]:
        rng = random.Random(2200 + 10 * n + d)
        for order in _seeded_orders(n, d, rng):
            for proper in (False, True):
                expect = _replayed(per_step_replay, n, d, order, proper)
                assert _replayed(replay_erasure_sequence, n, d, order, proper) == expect
    bad = [
        (5, 2, [(0, 1)], "(0, 1) is not a circuit"),
        (5, 2, [(1, 2), (2, 1)], "(1, 2) is not a circuit"),
        (5, 2, [(1, 2, 3)], "(1, 2, 3) is not a circuit"),
        (5, 3, [(1, 2, 5), (2, 3, 4)], "step 2: circuit (2, 3, 4) is not exposed at its removal time"),
        (5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)], "step 3: circuit (1, 4, 5) is exposed but not properly exposed"),
    ]
    for n, d, order, message in bad:
        assert _replayed(per_step_replay, n, d, order, True) == message
        assert _replayed(replay_erasure_sequence, n, d, order, True) == message


def test_certificate_json_round_trip(tailed_triangle):
    cert = find_erasure_sequence(tailed_triangle)
    data = json.loads(cert.to_json())
    again = ErasureCertificate.from_json_dict(data)
    assert again == cert

    data["removed"][0]["clique"] = [1, 2, 3]
    with pytest.raises(ValueError):
        ErasureCertificate.from_json_dict(data)


def test_certificate_steps_must_equal_the_replay():
    step = {"circuit": [1, 3], "clique": [1, 2, 3, 4], "k": 0, "proper": True}
    cert = ErasureCertificate.from_json_dict({"n": 4, "d": 2, "removed": [step]})
    assert (1, 3) not in cert.result
    for field, value in [("circuit", [3, 1]), ("clique", [4, 3, 2, 1]), ("k", 1), ("proper", False)]:
        with pytest.raises(ValueError, match="step 1"):
            ErasureCertificate.from_json_dict({"n": 4, "d": 2, "removed": [{**step, field: value}]})


def test_certificate_rejects_tampered_result(tailed_triangle):
    cert = find_erasure_sequence(tailed_triangle)
    data = cert.to_json_dict()
    data["result_circuits"] = data["result_circuits"][:-1]
    with pytest.raises(ValueError):
        ErasureCertificate.from_json_dict(data)


def test_betti_from_erasures_values():
    cert = replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    assert betti_from_erasures(cert) == [3, 3, 1]
    g5cert = replay_erasure_sequence(5, 2, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
    assert sorted(g5cert.k_sequence) == [0, 1, 1, 2, 2]
    assert betti_from_erasures(g5cert) == [5, 6, 2]


def test_h_vector_check_cases(tailed_triangle):
    cert = replay_erasure_sequence(5, 3, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    h, ks, equal = h_vector_check(cert)
    assert h == (1, 1, 1) and ks == [0, 1, 2] and equal

    empty = replay_erasure_sequence(4, 2, [])
    assert h_vector_check(empty) == ((), [], True)

    g5cert = find_erasure_sequence(tailed_triangle)
    h, ks, equal = h_vector_check(g5cert)
    assert h == (1, 2, 2, 0) and ks == [0, 1, 1, 2, 2] and equal


@pytest.mark.parametrize(
    "require_proper, sizes",
    [
        (False, (2, 8, 61, 822, 18154)),  # OEIS A058862: labeled chordal graphs
        (True, (1, 4, 35, 541, 13302)),  # OEIS A007134: labeled connected chordal graphs
    ],
)
def test_d2_closure_sizes_match_oeis(require_proper, sizes):
    assert tuple(len(erasure_reachable_set(n, 2, require_proper)) for n in range(2, 7)) == sizes


def test_reachable_set_extraction_matches_search():
    reach = erasure_reachable_set(4, 2)
    pairs = all_d_subsets(4, 2)
    full = (1 << len(pairs)) - 1

    def allowed(state):
        current = graph_from_edge_mask(4, full ^ state)
        return lambda i: current.exposed_status(pairs[i]).exposed

    last = search.closure(len(pairs), allowed)
    assert set(last) == reach
    for gmask in range(1 << len(pairs)):
        graph = graph_from_edge_mask(4, gmask)
        state = full ^ gmask
        cert = find_erasure_sequence(graph)
        assert (cert is not None) == (state in reach)
        if state in reach:
            extracted = replay_erasure_sequence(4, 2, [pairs[i] for i in search.path(last, state)])
            assert extracted.result == graph


def test_k_multiset_is_target_invariant():
    # every complete removal order for one target shares the k-multiset
    pairs = all_d_subsets(4, 2)

    def all_orders(clutter, target, ks):
        complete = True
        for e in clutter.circuits:
            if e in target:
                continue
            complete = False
            status = clutter.exposed_status(e)
            if status.exposed:
                yield from all_orders(
                    clutter.without(e), target, ks + [clutter.n - len(status.clique)]
                )
        if complete:
            yield tuple(sorted(ks))

    for gmask in range(1 << len(pairs)):
        target = graph_from_edge_mask(4, gmask)
        multisets = set(all_orders(Clutter.complete(4, 2), target, []))
        assert len(multisets) <= 1


def test_greedy_only_never_beats_backtracking():
    for gmask in range(1 << 6):
        graph = graph_from_edge_mask(4, gmask)
        greedy = find_erasure_sequence(graph, greedy_only=True)
        full = find_erasure_sequence(graph)
        if greedy is not None:
            assert full is not None


def test_ridge_chordal_examples(bipyramid, four_cycle):
    assert is_ridge_chordal(bipyramid)
    assert is_ridge_chordal(Clutter.empty(4, 2))
    assert not is_ridge_chordal(four_cycle)


def test_ridge_chordal_matches_elimination_on_graphs():
    for n in range(2, 7):
        chordal = enumerate_chordal_graphs(n)
        for gmask in range(1 << comb(n, 2)):
            graph = graph_from_edge_mask(n, gmask)
            expected = perfect_elimination_ordering(graph) is not None
            assert is_ridge_chordal(graph) == expected == (gmask in chordal)


@pytest.mark.parametrize("n, d, count", [(4, 3, 16), (5, 3, 969), (5, 4, 32)])
def test_ridge_chordal_clutters_are_the_erasure_reachable_ones(n, d, count):
    full = (1 << comb(n, d)) - 1
    ridge = {m for m in range(full + 1) if is_ridge_chordal(Clutter.from_index_mask(n, d, m))}
    assert ridge == {full ^ removed for removed in erasure_reachable_set(n, d)}
    assert len(ridge) == count


def test_bipyramid_sphere_is_neither_ridge_chordal_nor_reachable():
    sphere = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)]
    clutter = Clutter.from_circuits(5, 3, sphere)
    assert clutter.circuit_index_mask == 222
    assert not is_ridge_chordal(clutter)
    assert find_erasure_sequence(clutter) is None
    # the moves are the sphere's nine edges, not all C(12, 2) pairs
    assert not is_ridge_chordal(Clutter.from_circuits(12, 3, sphere))


def test_ridge_chordality_needs_d_at_least_2():
    with pytest.raises(ValueError, match="d >= 2"):
        is_ridge_chordal(Clutter.from_circuits(3, 1, [(1,), (2,)]))


def test_ridge_chordal_and_erasure_verdicts_ignore_vertex_labels():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(0, (1 << 20) - 1), st.permutations(range(1, 7)))
    def check(mask, perm):
        clutter = Clutter.from_index_mask(6, 3, mask)
        relabeled = Clutter.from_circuits(
            6, 3, [tuple(sorted(perm[v - 1] for v in e)) for e in clutter.circuits]
        )
        assert is_ridge_chordal(relabeled) == is_ridge_chordal(clutter)
        assert (find_erasure_sequence(relabeled) is None) == (find_erasure_sequence(clutter) is None)

    check()


def reference_order(target, require_proper=False, greedy_only=False):
    """The removal order found by ``search.find`` with ``_erasable`` on the
    complete clutter's table as ``link_table`` builds it, and no backward walk."""
    n, d = target.n, target.d
    full = (1 << comb(n, d)) - 1
    gone = full ^ target.circuit_index_mask
    rem = [m for i, m in enumerate(d_subset_masks(n, d)) if gone >> i & 1]
    link = link_table(n, d, full)

    def toggle(i):
        toggle_circuit(link, rem[i])

    ok = erasures._erasable(link, rem, require_proper)
    chosen = search.find(len(rem), ok, toggle, toggle, greedy_only)
    return None if chosen is None else [mask_vertices(rem[i]) for i in chosen]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_circuit_put_back_is_tested_on_the_table_without_it(d):
    # the backward walk's move: f is (properly) exposed in S+f iff
    # _erasable accepts it on the link table of S, which lacks f
    masks = d_subset_masks(5, d)
    subsets = all_d_subsets(5, d)
    for state in range(1 << len(masks)):
        present = {masks[j] for j in range(len(masks)) if state >> j & 1}
        link = link_table(5, d, state)
        tests = [erasures._erasable(link, masks, proper) for proper in (False, True)]
        for j in range(len(masks)):
            if state >> j & 1:
                status = _exposed_status(5, d, present, subsets[j])
                clique = vertex_mask(status.clique) if status.exposed else 0
                toggle_circuit(link, masks[j])
                assert [test(j) for test in tests] == [clique, clique if status.proper else 0]
                toggle_circuit(link, masks[j])


def search_order(target, require_proper=False, greedy_only=False):
    cert = find_erasure_sequence(target, require_proper, greedy_only)
    return None if cert is None else [s.circuit for s in cert.removed]


MODES = [(False, False), (True, False), (True, True)]  # plain, proper, greedy proper


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orders_match_the_reference_search_at_5_vertices(d):
    for mask in range(1 << comb(5, d)):
        target = Clutter.from_index_mask(5, d, mask)
        for mode in MODES:
            assert search_order(target, *mode) == reference_order(target, *mode)


def test_orders_match_the_reference_search():
    # At most 12 removals: the reference walks every dead state, and at
    # (7, 3) with 18 removals one target takes it about a second.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def targets(nd):
        return st.tuples(st.just(nd), st.sets(st.integers(0, comb(*nd) - 1), max_size=12))

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
    @hypothesis.given(st.sampled_from([(6, 3), (6, 4), (7, 3)]).flatmap(targets))
    def check(case):
        (n, d), removed = case
        mask = (1 << comb(n, d)) - 1 - sum(1 << i for i in removed)
        target = Clutter.from_index_mask(n, d, mask)
        for mode in MODES:
            assert search_order(target, *mode) == reference_order(target, *mode)

    check()


@pytest.mark.parametrize("n, d", [(8, 4), (12, 6)])
@pytest.mark.parametrize("proper", [False, True])
def test_one_short_of_complete_is_one_step_through_the_whole_vertex_set(n, d, proper):
    # past the exhaustive sizes: the forward walk's closed-form start table
    # must give the missing circuit Q = every other vertex
    subsets = all_d_subsets(n, d)
    j = len(subsets) // 2
    target = Clutter.from_index_mask(n, d, ((1 << len(subsets)) - 1) ^ (1 << j))
    cert = find_erasure_sequence(target, proper)
    assert cert.removed == (RemovalStep(subsets[j], tuple(range(1, n + 1)), 0, True),)


def test_exposure_is_linear_division_pointwise():
    # the core correspondence, checked without any search on random clutters
    # past the exhaustive scales: a circuit is exposed iff its monomial is a
    # linear divisor for the complement ideal, and the colon variables are
    # exactly the vertices off the unique maximal clique
    import random

    from clutterkit.ideals import ideal_of_clutter, is_linear_divisor
    from clutterkit.ideals import monomial as mono

    rng = random.Random(2718)
    for n, d in ((6, 3), (7, 3), (6, 4)):
        pool = list(all_d_subsets(n, d))
        for _ in range(120):
            chosen = [e for e in pool if rng.random() < rng.uniform(0.3, 0.9)]
            if not chosen or len(chosen) == len(pool):
                continue
            clutter = Clutter.from_circuits(n, d, chosen)
            ideal = ideal_of_clutter(clutter.complement())
            for e in clutter.circuits:
                status = clutter.exposed_status(e)
                res = is_linear_divisor(ideal, mono(e))
                assert status.exposed == res.is_linear
                if status.exposed:
                    off_clique = tuple(
                        v for v in range(1, n + 1) if v not in status.clique
                    )
                    assert res.variables == off_clique
