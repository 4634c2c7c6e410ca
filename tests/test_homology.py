import itertools
import random
from fractions import Fraction

import pytest

from clutterkit.clutter import Clutter, all_d_subsets
from clutterkit.homology import (
    hochster_betti_table,
    is_connected_graph_algebraic,
    rank_exact,
    rank_gf2,
    reduced_homology_dims,
)
from clutterkit.simplicial import SimplicialComplex


def _rank_fraction(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_exact_matches_fraction_oracle():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank_exact(mat) == _rank_fraction(mat)


def test_rank_gf2_matches_fraction_oracle_mod2():
    rng = random.Random(100)
    for _ in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        mat = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        packed = [sum(bit << c for c, bit in enumerate(row)) for row in mat]
        f2 = _rank_fraction_mod2(mat)
        assert rank_gf2(packed) == f2


def _rank_fraction_mod2(rows):
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % 2), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % 2:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_homology_conventions(field):
    void = SimplicialComplex(4, ())
    assert reduced_homology_dims(void, field) == {}

    irrelevant = SimplicialComplex(4, ((),))
    assert reduced_homology_dims(irrelevant, field) == {-1: 1}

    point = SimplicialComplex(4, ((2,),))
    dims = reduced_homology_dims(point, field)
    assert dims == {-1: 0, 0: 0}


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_homology_of_standard_spaces(field):
    simplex = SimplicialComplex(4, ((1, 2, 3, 4),))
    assert not any(reduced_homology_dims(simplex, field).values())

    circle = SimplicialComplex(3, ((1, 2), (1, 3), (2, 3)))
    assert reduced_homology_dims(circle, field) == {-1: 0, 0: 0, 1: 1}

    two_points = SimplicialComplex(2, ((1,), (2,)))
    assert reduced_homology_dims(two_points, field)[0] == 1

    sphere2 = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    assert reduced_homology_dims(sphere2, field) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_homology_euler_consistency():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 6)
        faces = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            for _ in range(rng.randint(1, 6))
        ]
        complex_ = SimplicialComplex.from_faces(n, faces)
        for field in ("gf2", "rational"):
            dims = reduced_homology_dims(complex_, field)
            alternating = sum((-1) ** k * h for k, h in dims.items())
            assert alternating == complex_.reduced_euler_characteristic()


def test_vanishing_first_homology_of_connected_clutter(connected_three_clutter):
    complex_ = connected_three_clutter.clique_complex()
    for field in ("gf2", "rational"):
        assert reduced_homology_dims(complex_, field)[1] == 0


def test_hochster_tailed_triangle(tailed_triangle):
    for field in ("gf2", "rational"):
        table = hochster_betti_table(tailed_triangle, field)
        assert table.betti_numbers() == [5, 6, 2]
        assert table.entries == {(0, 2): 5, (1, 3): 6, (2, 4): 2}
        assert table.pdim == 2


def test_hochster_bipyramid(bipyramid):
    table = hochster_betti_table(bipyramid, "gf2")
    assert table.betti_numbers() == [3, 3, 1]
    assert table.is_linear(3)
    assert table.pdim == 2


def test_hochster_complete_clutter_zero_ideal():
    table = hochster_betti_table(Clutter.complete(4, 2), "gf2")
    assert table.zero_ideal
    assert table.is_linear(2)
    with pytest.raises(ValueError):
        table.pdim


def test_nonlinear_after_extra_generator(bipyramid):
    worse = bipyramid.without((2, 3, 4))
    table = hochster_betti_table(worse, "gf2")
    assert not table.is_linear(3)


def test_principal_ideal_pdim():
    clutter = Clutter.complete(4, 2).without((1, 2))
    table = hochster_betti_table(clutter, "gf2")
    assert table.betti_numbers() == [1]
    assert table.pdim == 0


def test_hochster_beta0_counts_generators():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        pairs = list(all_d_subsets(n, 2))
        chosen = [e for e in pairs if rng.random() < 0.5]
        graph = Clutter.from_circuits(n, 2, chosen)
        table = hochster_betti_table(graph, "gf2")
        comp = graph.complement()
        if not comp.circuits:
            assert table.zero_ideal
        else:
            assert table.betti(0) == len(comp)


def test_connectivity_algebraic(tailed_triangle):
    assert is_connected_graph_algebraic(tailed_triangle)
    two_edges = Clutter.from_circuits(4, 2, [(1, 2), (3, 4)])
    assert not is_connected_graph_algebraic(two_edges)
    assert is_connected_graph_algebraic(Clutter.complete(4, 2))


def test_betti_table_json_and_diagram(tailed_triangle):
    table = hochster_betti_table(tailed_triangle, "gf2")
    data = table.to_json_dict()
    assert data["entries"] == [[0, 2, 5], [1, 3, 6], [2, 4, 2]]
    assert data["pdim"] == 2 and data["convention"] == "ideal"
    shifted = table.to_json_dict(quotient=True)
    assert shifted["entries"][0] == [0, 0, 1]
    assert shifted["pdim"] == 3
    diagram = table.diagram()
    assert "total:" in diagram and "5 6 2" in diagram
    # R/0 = R: the quotient convention gives beta_{0,0} = 1 in both outputs
    zero = hochster_betti_table(Clutter.complete(3, 2), "gf2")
    assert zero.to_json_dict() == {"entries": [], "convention": "ideal", "pdim": None, "zero_ideal": True}
    assert zero.to_json_dict(quotient=True) == {
        "entries": [[0, 0, 1]], "convention": "quotient", "pdim": 0, "zero_ideal": True,
    }
    assert zero.diagram() == "(zero ideal)"
    assert zero.diagram(quotient=True).splitlines()[-1] == "    0: 1"


def test_size_guards():
    with pytest.raises(ValueError, match="size guard"):
        hochster_betti_table(Clutter.empty(17, 2), "gf2")
    with pytest.raises(ValueError, match="unknown field"):
        hochster_betti_table(Clutter.empty(4, 2), "real")


def test_degree_one_clutters_match_variable_ideals():
    # complement ideals of 1-clutters are variable ideals, whose Betti
    # numbers are binomial; the irrelevant-complex convention carries the sum
    from math import comb

    from clutterkit.erasures import betti_from_erasures, find_erasure_sequence

    for n in (2, 3, 4):
        for keep in range(n + 1):
            clutter = Clutter.from_circuits(n, 1, [(v,) for v in range(1, keep + 1)])
            table = hochster_betti_table(clutter, "gf2")
            k = n - keep  # number of generators
            if k == 0:
                assert table.zero_ideal
                continue
            expected = [comb(k, i + 1) for i in range(k)]
            assert table.betti_numbers() == expected
            cert = find_erasure_sequence(clutter)
            assert betti_from_erasures(cert) == expected


def _induced_dims(j, d, inside):
    """dim H~ over both fields of the clique complex, from ``max_cliques``,
    of the clutter with circuits ``inside`` on vertices 1..j."""
    complex_ = Clutter(j, d, inside).clique_complex()
    return {field: reduced_homology_dims(complex_, field) for field in ("gf2", "rational")}


def _induced_sum_betti(clutter, induced):
    """Hochster's sum over both fields without the homology cache: the
    reduced homology of each induced subclutter, relabeled onto 1..|W|, over
    every vertex set W.  ``induced`` memoizes ``_induced_dims`` for this test."""
    n, d = clutter.n, clutter.d
    entries = {"gf2": {}, "rational": {}}
    for j in range(d, n + 1):  # a W with fewer than d vertices spans a simplex
        for w in itertools.combinations(range(1, n + 1), j):
            label = {v: i for i, v in enumerate(w, start=1)}
            inside = tuple(tuple(label[v] for v in e) for e in clutter.circuits if set(e) <= set(w))
            key = (j, d, inside)
            if key not in induced:
                induced[key] = _induced_dims(*key)
            for field, dims in induced[key].items():
                for k, h in dims.items():
                    i = j - k - 2
                    if h and i >= 0:
                        entries[field][(i, j)] = entries[field].get((i, j), 0) + h
    return entries


def test_hochster_matches_uncached_induced_homology():
    from clutterkit import homology

    rng = random.Random(2201)
    clutters = [
        Clutter.from_circuits(5, 2, [e for i, e in enumerate(all_d_subsets(5, 2)) if mask >> i & 1])
        for mask in range(1 << 10)
    ]
    for (n, d), count in ((5, 3), 12), ((6, 3), 12):
        pool = all_d_subsets(n, d)
        clutters += [Clutter.from_circuits(n, d, [e for e in pool if rng.random() < 0.7]) for _ in range(count)]
    induced = {}
    expect = [(c, _induced_sum_betti(c, induced)) for c in clutters]
    homology._homology_cache.clear()
    for warm in (False, True):
        for clutter, tables in expect:
            for field, entries in tables.items():
                assert hochster_betti_table(clutter, field).entries == entries, (clutter, field, warm)
