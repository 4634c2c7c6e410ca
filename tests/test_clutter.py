import itertools

import pytest

from clutterkit.clutter import (
    Clutter,
    SizeGuardError,
    _is_clique,
    all_d_subsets,
    d_subset_masks,
    exposed_clique,
    link_table,
    mask_vertices,
    toggle_circuit,
    vertex_mask,
)


def test_complement_of_complete_is_empty():
    assert Clutter.complete(5, 2).complement() == Clutter.empty(5, 2)


def test_complement_recovers_tailed_triangle(tailed_triangle):
    given = Clutter.from_circuits(5, 2, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
    assert given.complement() == tailed_triangle


def test_complement_is_involution(bipyramid):
    assert bipyramid.complement().complement() == bipyramid


def test_complement_counts():
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 4)]:
        clutter = Clutter.from_circuits(n, d, list(all_d_subsets(n, d))[::2])
        comp = clutter.complement()
        assert len(clutter) + len(comp) == len(all_d_subsets(n, d))
        assert comp.complement() == clutter


def test_validation_rejects_bad_circuits():
    with pytest.raises(ValueError):
        Clutter(4, 2, ((1, 1),))
    with pytest.raises(ValueError):
        Clutter(4, 2, ((2, 1),))
    with pytest.raises(ValueError):
        Clutter(4, 2, ((1, 5),))
    with pytest.raises(ValueError):
        Clutter(4, 2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        Clutter(1, 2, ())
    with pytest.raises(ValueError):
        Clutter(80, 2, ())


# ``e in clutter`` for odd input, recorded before membership read a set
# built once per clutter: the vertices are sorted, anything else is False
CONTAINS = [
    ((1, 2), True),
    ((2, 1), True),
    ([5, 2], True),
    ((1, 1), False),
    ((2, 2, 5), False),
    ((1,), False),
    ((1, 2, 5), False),
    ((), False),
    ((0, 1), False),
    ((1, 6), False),
    ((-1, 2), False),
    ((1, 3), False),
]


@pytest.mark.parametrize("e, inside", CONTAINS)
def test_contains_sorts_and_refuses_odd_input(tailed_triangle, e, inside):
    trusted = Clutter.from_index_mask(5, 2, tailed_triangle.circuit_index_mask)
    for clutter in (tailed_triangle, trusted, trusted):  # the second asks again
        assert (e in clutter) is inside


def test_is_clique_complete_and_removed(bipyramid):
    assert _is_clique(3, Clutter.complete(5, 3).circuit_masks, (1, 2, 3, 4, 5))
    assert not _is_clique(3, bipyramid.circuit_masks, (1, 3, 4, 5))
    assert _is_clique(3, bipyramid.circuit_masks, (2, 3, 4, 5))
    assert _is_clique(3, bipyramid.circuit_masks, (1,))  # below circuit size


def test_maximal_cliques_containing():
    k53 = Clutter.complete(5, 3)
    assert k53.maximal_cliques_containing((1, 2, 5)) == [(1, 2, 3, 4, 5)]

    c3 = k53.without((1, 2, 5)).without((1, 3, 5)).without((1, 4, 5))
    assert c3.maximal_cliques_containing((2, 3, 4)) == [(1, 2, 3, 4), (2, 3, 4, 5)]

    lonely = Clutter.from_circuits(5, 3, [(1, 4, 5)])
    assert lonely.maximal_cliques_containing((1, 4, 5)) == [(1, 4, 5)]

    with pytest.raises(ValueError):
        k53.maximal_cliques_containing((9, 9, 9))


def test_exposed_status_examples():
    partial = Clutter.complete(5, 3).without((1, 2, 5)).without((1, 3, 5))
    status = partial.exposed_status((1, 2, 3))
    assert status.exposed and status.clique == (1, 2, 3, 4) and status.proper

    c3 = partial.without((1, 4, 5))
    assert not c3.exposed_status((2, 3, 4)).exposed

    status = partial.exposed_status((1, 4, 5))
    assert status.exposed and status.clique == (1, 4, 5) and not status.proper


def test_exposed_matches_unique_maximal_clique_exhaustively():
    # optimized closure rule vs brute-force clique enumeration
    for n in range(2, 6):
        pairs = all_d_subsets(n, 2)
        for gmask in range(1 << len(pairs)):
            graph = Clutter(n, 2, tuple(pairs[i] for i in range(len(pairs)) if gmask >> i & 1))
            for e in graph.circuits:
                expect = len(graph.maximal_cliques_containing(e)) == 1
                assert graph.exposed_status(e).exposed == expect


def test_maximal_cliques_are_incomparable_and_contain_circuit(bipyramid):
    for e in bipyramid.circuits:
        cliques = bipyramid.maximal_cliques_containing(e)
        for k in cliques:
            assert set(e) <= set(k)
        for a, b in itertools.combinations(cliques, 2):
            assert not set(a) <= set(b) and not set(b) <= set(a)


def test_clique_complex_of_complete_clutter_is_simplex():
    complex_ = Clutter.complete(4, 3).clique_complex()
    assert complex_.facets == ((1, 2, 3, 4),)


def test_clique_complex_facets_of_graph(tailed_triangle):
    assert tailed_triangle.clique_complex().facets == ((1, 2), (2, 5), (3, 4, 5))


def test_clique_complex_has_full_low_skeleton():
    clutter = Clutter.from_circuits(5, 3, [(1, 2, 3)])
    complex_ = clutter.clique_complex()
    for pair in all_d_subsets(5, 2):
        assert complex_.has_face(pair)
    assert complex_.has_face((1, 2, 3))
    assert not complex_.has_face((1, 2, 4))


def test_degree_one_clutters():
    points = Clutter.from_circuits(4, 1, [(2,), (3,)])
    assert _is_clique(1, points.circuit_masks, (2, 3))
    status = points.exposed_status((2,))
    assert status.exposed and status.clique == (2, 3) and status.proper
    empty = Clutter.empty(3, 1)
    assert empty.clique_complex().facets == ((),)


def _kernel_status(link, emask):
    clique = exposed_clique(link, emask)
    if clique is None:
        return (False, None, None)
    return (True, mask_vertices(clique), clique != emask)


def _check_kernel(n, d, mask):
    clutter = Clutter.from_index_mask(n, d, mask)
    link = link_table(n, d, mask)
    for e in clutter.circuits:
        status = clutter.exposed_status(e)
        assert _kernel_status(link, vertex_mask(e)) == (status.exposed, status.clique, status.proper)


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (5, 2), (5, 3), (4, 1), (5, 4)])
def test_link_table_kernel_matches_exposed_status(n, d):
    # the searches' kernel vs the replay reference, on every circuit of every
    # d-clutter on n vertices
    for mask in range(1 << len(all_d_subsets(n, d))):
        _check_kernel(n, d, mask)


def test_link_table_kernel_matches_exposed_status_at_7_vertices():
    # at d = 3 and 4 the exhaustive scales have e+Q = every vertex whenever
    # |Q| >= 2; on 7 vertices it can miss some, so the kernel's scan over the
    # (d-1)-subsets of e+Q skips keys of the table
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def masks(d):
        full = (1 << len(all_d_subsets(7, d))) - 1
        dense = st.sets(st.integers(0, full.bit_length() - 1), max_size=12).map(
            lambda gone: full ^ sum(1 << i for i in gone)
        )
        return st.tuples(st.just(d), st.one_of(st.integers(0, full), dense))

    @hypothesis.settings(max_examples=80, derandomize=True, deadline=None)
    @hypothesis.given(st.sampled_from([3, 4]).flatmap(masks))
    def check(case):
        _check_kernel(7, *case)

    check()


def test_toggle_circuit_matches_a_fresh_link_table():
    full = (1 << 10) - 1
    link = link_table(5, 3, full)
    for i, emask in enumerate(d_subset_masks(5, 3)[::3]):
        toggle_circuit(link, emask)
        assert link == link_table(5, 3, full ^ sum(1 << 3 * j for j in range(i + 1)))
    for emask in d_subset_masks(5, 3)[::3]:
        toggle_circuit(link, emask)
    assert link == link_table(5, 3, full)


@pytest.mark.parametrize("n, d", [(5, 2), (5, 3)])
def test_from_index_mask_matches_from_circuits(n, d):
    subsets = all_d_subsets(n, d)
    for mask in range(1 << len(subsets)):
        trusted = Clutter.from_index_mask(n, d, mask)
        checked = Clutter.from_circuits(n, d, [e for i, e in enumerate(subsets) if mask >> i & 1])
        assert trusted == checked and trusted.circuit_index_mask == mask == checked.circuit_index_mask


def test_from_index_mask_rejects_bad_sizes():
    for n, d in [(3, 4), (3, 0), (0, 0)]:
        with pytest.raises(ValueError, match="1 <= d <= n"):
            Clutter.from_index_mask(n, d, 0)
    with pytest.raises(SizeGuardError):
        Clutter.from_index_mask(65, 2, 0)
    for mask in (-1, 1 << 10):
        with pytest.raises(ValueError, match="mask"):
            Clutter.from_index_mask(5, 2, mask)
