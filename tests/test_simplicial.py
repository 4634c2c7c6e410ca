import itertools
import random

import pytest

from clutterkit.simplicial import SimplicialComplex, alexander_dual, complements


def test_from_faces_keeps_maximal_only():
    complex_ = SimplicialComplex.from_faces(4, [(1, 2), (2, 1), (1,), (3,), (1, 2, 4)])
    assert complex_.facets == ((3,), (1, 2, 4))
    assert SimplicialComplex.from_facets(4, [(4, 2, 1), (3,), (1, 2, 4)]) == complex_  # unsorted, repeated


def test_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((1, 2), (1,)))  # comparable facets
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((2, 1),))
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((1, 4),))
    with pytest.raises(ValueError, match="incomparable"):
        SimplicialComplex.from_facets(3, [(2, 1), (1,)])
    with pytest.raises(ValueError, match=r"facet \(1, 1\) is not a sorted duplicate-free tuple"):
        SimplicialComplex.from_facets(3, [(1, 1)])  # a repeated vertex is not dropped
    with pytest.raises(ValueError, match="out of range"):
        SimplicialComplex.from_facets(3, [(4, 1)])


def test_degenerate_complexes():
    void = SimplicialComplex(3, ())
    assert void.is_void and void.f_vector == (0,) and void.h_vector == ()
    assert SimplicialComplex.from_facets(3, []) == void
    irrelevant = SimplicialComplex(3, ((),))
    assert SimplicialComplex.from_facets(3, [(), ()]) == irrelevant
    assert irrelevant.dim == -1
    assert irrelevant.f_vector == (1,)
    assert irrelevant.h_vector == (1,)


def test_face_enumeration_and_f_vector():
    complex_ = SimplicialComplex.from_faces(5, [(3, 4), (2, 4), (2, 3)])
    assert complex_.f_vector == (1, 3, 3)
    assert complex_.h_vector == (1, 1, 1)


def test_h_vector_of_simplex_boundary():
    boundary = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    assert boundary.h_vector == (1, 1, 1, 1)
    assert boundary.reduced_euler_characteristic() == -1 + 4 - 6 + 4


def test_alexander_dual_examples():
    simplex = SimplicialComplex(4, ((1, 2, 3, 4),))
    assert alexander_dual(simplex).is_void

    boundary = SimplicialComplex(4, tuple(itertools.combinations(range(1, 5), 3)))
    assert alexander_dual(boundary).facets == ((),)

    complex_ = SimplicialComplex.from_faces(5, [(3, 4), (2, 4), (2, 3)])
    assert set(complex_.minimal_nonfaces()) == {(1,), (5,), (2, 3, 4)}
    assert alexander_dual(complex_).facets == ((1, 5), (1, 2, 3, 4), (2, 3, 4, 5))


def test_alexander_dual_against_subset_scan():
    rng = random.Random(5)
    for n in (3, 4, 5):
        universe = list(range(1, n + 1))
        for _ in range(40):
            size = rng.randint(1, n)
            faces = [
                tuple(sorted(rng.sample(universe, rng.randint(0, size))))
                for _ in range(rng.randint(1, 6))
            ]
            complex_ = SimplicialComplex.from_faces(n, faces)
            dual = alexander_dual(complex_)
            for r in range(n + 1):
                for s in itertools.combinations(universe, r):
                    comp = tuple(v for v in universe if v not in s)
                    assert dual.has_face(s) == (not complex_.has_face(comp))
                    assert complements(n, [s, comp]) == [comp, s]


def test_alexander_dual_is_involution():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 5)
        faces = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1))))
            for _ in range(rng.randint(1, 5))
        ]
        complex_ = SimplicialComplex.from_faces(n, faces)
        dual = alexander_dual(complex_)
        assert alexander_dual(dual) == complex_
        # minimal nonfaces of the dual are the complements of the facets
        expected = {tuple(v for v in range(1, n + 1) if v not in f) for f in complex_.facets}
        assert set(dual.minimal_nonfaces()) == expected
    assert alexander_dual(alexander_dual(SimplicialComplex(3, ()))).is_void
