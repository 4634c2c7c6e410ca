import itertools
import random

import pytest

from clutterkit.clutter import Clutter, all_d_subsets, vertex_mask
from clutterkit.erasures import erasure_reachable_set, find_erasure_sequence
from clutterkit.ideals import (
    SquarefreeIdeal,
    SquarefreeMonomial,
    colon_by_monomial,
    find_quotient_order,
    ideal_of_clutter,
    is_linear_divisor,
    monomial,
    quotient_reachable_set,
    verify_quotient_order,
)


def colon_membership_supports(ideal: SquarefreeIdeal, m: SquarefreeMonomial) -> set[tuple[int, ...]]:
    """Supports r with r*m in I, enumerated exhaustively."""
    out = set()
    for size in range(0, ideal.n + 1):
        for r in itertools.combinations(range(1, ideal.n + 1), size):
            rm = vertex_mask(r) | m.mask
            if any(gm & ~rm == 0 for gm in ideal.generator_masks):
                out.add(r)
    return out


def example_ideal() -> SquarefreeIdeal:
    return SquarefreeIdeal.from_supports(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])


def test_ideal_of_clutter(tailed_triangle):
    ideal = ideal_of_clutter(tailed_triangle.complement())
    assert [g.support for g in ideal.generators] == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    assert ideal_of_clutter(Clutter.empty(4, 2).complement().complement()).is_zero

    c3 = Clutter.complete(5, 3).without((1, 2, 5)).without((1, 3, 5)).without((1, 4, 5))
    ideal3 = ideal_of_clutter(c3.complement())
    assert [g.support for g in ideal3.generators] == [(1, 2, 5), (1, 3, 5), (1, 4, 5)]


def test_colon_examples():
    prefix = SquarefreeIdeal.from_supports(5, [(1, 3), (1, 4), (1, 5), (2, 3)])
    col = colon_by_monomial(prefix, monomial((2, 4)))
    assert [g.support for g in col.generators] == [(1,), (3,)]

    principal = SquarefreeIdeal.from_supports(3, [(1, 2)])
    assert colon_by_monomial(principal, monomial((1, 2))).unit

    cubes = SquarefreeIdeal.from_supports(5, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    col = colon_by_monomial(cubes, monomial((2, 3, 4)))
    assert [g.support for g in col.generators] == [(1, 5)]


def test_colon_of_zero_ideal_is_zero():
    assert colon_by_monomial(SquarefreeIdeal.zero(4), monomial((1,))).is_zero


def test_colon_membership_oracle_exhaustive():
    # r is in (I : m) iff the honest product r*m lands in I, for every
    # squarefree r; products are taken in the full polynomial ring.
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 5)
        d = rng.randint(1, n)
        pool = list(all_d_subsets(n, d))
        gens = [e for e in pool if rng.random() < 0.45]
        if not gens:
            continue
        ideal = SquarefreeIdeal.from_supports(n, _minimalized(gens))
        m = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        col = colon_by_monomial(ideal, monomial(m))
        expected = colon_membership_supports(ideal, monomial(m))
        for size in range(0, n + 1):
            for r in itertools.combinations(range(1, n + 1), size):
                exponents = {v: 1 for v in r}
                for v in m:
                    exponents[v] = exponents.get(v, 0) + 1
                in_ideal = any(
                    all(exponents.get(v, 0) >= 1 for v in g.support) for g in ideal.generators
                )
                if col.unit:
                    in_colon = True
                elif not r:
                    in_colon = False
                else:
                    in_colon = any(set(g.support) <= set(r) for g in col.generators)
                assert in_ideal == (r in expected)
                assert in_colon == (r in expected)


def _minimalized(supports):
    out = []
    for s in sorted(set(supports), key=lambda s: (len(s), s)):
        if not any(set(t) <= set(s) for t in out):
            out.append(s)
    return out


def test_is_linear_divisor_examples():
    prefix = SquarefreeIdeal.from_supports(5, [(1, 3), (1, 4), (1, 5), (2, 3)])
    res = is_linear_divisor(prefix, monomial((2, 4)))
    assert res.is_linear and res.variables == (1, 3) and res.ell == 2

    cubes = SquarefreeIdeal.from_supports(5, [(1, 2, 5), (1, 3, 5), (1, 4, 5)])
    assert not is_linear_divisor(cubes, monomial((2, 3, 4))).is_linear

    res = is_linear_divisor(SquarefreeIdeal.zero(4), monomial((1, 2)))
    assert res.is_linear and res.ell == 0

    with pytest.raises(ValueError):
        is_linear_divisor(prefix, monomial((1, 3)))


def test_verify_quotient_order_listed_example():
    report = verify_quotient_order(example_ideal())
    assert report.ok
    assert report.ell_sequence == (0, 1, 2, 1, 2)
    assert sorted(report.ell_sequence) == [0, 1, 1, 2, 2]
    assert report.steps[-1].variables == (1, 3)


def test_verify_quotient_order_single_generator():
    report = verify_quotient_order(SquarefreeIdeal.from_supports(4, [(1, 2, 3)]))
    assert report.ok and report.ell_sequence == (0,)


def test_verify_quotient_order_failure_step():
    ideal = SquarefreeIdeal.from_supports(5, [(1, 2, 5), (1, 3, 5), (1, 4, 5), (2, 3, 4)])
    report = verify_quotient_order(ideal)
    assert not report.ok and report.failed_at == 4


def test_verify_requires_minimal_generation():
    with pytest.raises(ValueError):
        verify_quotient_order(SquarefreeIdeal.from_supports(3, [(1,), (1, 2)]))


def test_find_quotient_order_success_any_input_order():
    rng = random.Random(4)
    gens = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    for _ in range(6):
        rng.shuffle(gens)
        ideal = SquarefreeIdeal.from_supports(5, gens)
        found = find_quotient_order(ideal)
        assert found is not None
        assert verify_quotient_order(found).ok


def test_find_quotient_order_none():
    assert find_quotient_order(SquarefreeIdeal.from_supports(4, [(1, 2), (3, 4)])) is None


def test_find_quotient_order_zero_ideal():
    found = find_quotient_order(SquarefreeIdeal.zero(3))
    assert found is not None and found.generators == ()


def test_quotient_matches_erasures_exhaustively():
    # duality at full per-instance scale: d=2 on up to 5 vertices, d=3 on 5
    for n, d in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        subsets = all_d_subsets(n, d)
        total = len(subsets)
        reach = erasure_reachable_set(n, d)
        qreach = quotient_reachable_set(n, d)
        assert set(reach) == qreach
        for cmask in range(1 << total):
            clutter = Clutter(n, d, tuple(subsets[i] for i in range(total) if cmask >> i & 1))
            cert = find_erasure_sequence(clutter)
            order = find_quotient_order(ideal_of_clutter(clutter.complement()))
            assert (cert is not None) == (order is not None) == (((1 << total) - 1) ^ cmask in qreach)
            if cert is not None:
                # the removal order is itself a quotient order of the complement
                # ideal, and conversely the found quotient order replays as a
                # valid erasure sequence
                replayed = SquarefreeIdeal.from_supports(n, [s.circuit for s in cert.removed])
                assert verify_quotient_order(replayed).ok
                from clutterkit.erasures import replay_erasure_sequence

                back = replay_erasure_sequence(n, d, [g.support for g in order.generators])
                assert back.result == clutter


def test_greedy_only_mode_agrees_on_small_ideals():
    for n in (3, 4):
        pairs = all_d_subsets(n, 2)
        for gmask in range(1 << len(pairs)):
            graph = Clutter(n, 2, tuple(pairs[i] for i in range(len(pairs)) if gmask >> i & 1))
            ideal = ideal_of_clutter(graph.complement())
            full = find_quotient_order(ideal)
            greedy = find_quotient_order(ideal, greedy_only=True)
            if greedy is not None:
                assert full is not None
