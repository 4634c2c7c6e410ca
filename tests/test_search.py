import hashlib
import itertools
import json
import random
from math import comb

import pytest

from clutterkit import search
from clutterkit.clutter import Clutter, SizeGuardError, all_d_subsets
from clutterkit.erasures import find_erasure_sequence
from clutterkit.ideals import find_quotient_order, ideal_of_clutter

TOTAL = 5


def random_rule(seed: int, density: float):
    """A move test that depends only on the set already placed, drawn at random."""
    rng = random.Random(seed)
    table = {
        (state, i): rng.random() < density
        for state in range(1 << TOTAL)
        for i in range(TOTAL)
    }
    return lambda state, i: table[state, i]


RULES = [random_rule(seed, density) for seed in range(12) for density in (0.4, 0.6, 0.8)] + [
    lambda state, i: True,
    lambda state, i: False,
    lambda state, i: i == 0 or bool(state >> (i - 1) & 1),  # moves in index order only
    lambda state, i: (state.bit_count() + i) % 2 == 0,
]


def walks(rule, start=0):
    """Every order followed move by move (move i flips bit i) while the rule
    allows: each state passed, and the complete orders."""
    states, complete = {start}, []
    for order in itertools.permutations(range(TOTAL)):
        state = start
        for i in order:
            if not rule(state, i):
                break
            state ^= 1 << i
            states.add(state)
        else:
            complete.append(list(order))
    return states, complete


def flips(rule):
    """The move test of ``rule`` in a context where move i flips bit i, and
    the flip, which is both push and pop."""
    placed = [0]

    def flip(i):
        placed[0] ^= 1 << i

    return (lambda i: rule(placed[0], i)), flip


def run_find(rule, greedy_only=False, backward=None):
    ok, flip = flips(rule)
    return search.find(TOTAL, ok, flip, flip, greedy_only, backward)


def reversed_walk(rule):
    """The walk of the undos of ``rule``'s moves, from the full set: undoing
    move i is allowed iff making it was allowed from the set without i."""
    full = (1 << TOTAL) - 1
    ok, flip = flips(lambda undone, i: rule(full ^ undone ^ 1 << i, i))
    return search.walk(TOTAL, ok, flip, flip, False)


def greedy_chain(rule):
    state, order = 0, []
    while len(order) < TOTAL:
        moves = [i for i in range(TOTAL) if not state >> i & 1 and rule(state, i)]
        if not moves:
            return None
        order.append(moves[0])
        state |= 1 << moves[0]
    return order


@pytest.mark.parametrize("start", [0, (1 << TOTAL) - 1])
@pytest.mark.parametrize("rule", RULES)
def test_closure_matches_every_order(rule, start):
    # The closure counts the moves made from 0; a walk from the full mask
    # removes elements, and its states are those sets of moves flipped by
    # ``start``, as enumerate_chordal_graphs reads the erasure closure.
    last = search.closure(TOTAL, lambda removed: lambda i: rule(start ^ removed, i))
    states, _ = walks(rule, start)
    assert {start ^ removed for removed in last} == states
    assert last[0] == -1
    for removed in last:
        order = search.path(last, removed)
        assert sorted(order) == [i for i in range(TOTAL) if removed >> i & 1]
        placed = start
        for i in order:
            assert rule(placed, i)
            placed ^= 1 << i
        assert placed == start ^ removed


@pytest.mark.parametrize("rule", RULES)
def test_stuck_keeps_the_order_and_finds_every_dead_end(rule):
    reached, orders = walks(rule)
    states = sorted(reached, reverse=True)
    complete = (1 << TOTAL) - 1
    expected = [
        state
        for state in states
        if state != complete and not any(rule(state, i) for i in range(TOTAL) if not state >> i & 1)
    ]
    assert search.stuck(TOTAL, lambda state: lambda i: rule(state, i), states) == expected
    # a reached state that is not stuck moves on, so all complete iff none is stuck
    completable = {sum(1 << i for i in order[:k]) for order in orders for k in range(TOTAL + 1)}
    assert (expected == []) == (completable == reached)


def test_closure_refuses_too_many_moves_before_any_work():
    def no_work(state):
        raise AssertionError("the closure started work before its size guard")

    with pytest.raises(SizeGuardError, match="size guard"):
        search.closure(search.MAX_MOVES + 1, no_work)
    assert len(search.closure(search.MAX_MOVES, lambda state: lambda i: False)) == 1


@pytest.mark.parametrize("rule", RULES)
def test_find_returns_least_order_and_greedy_never_beats_it(rule):
    _, complete = walks(rule)
    full = run_find(rule)
    assert full == (min(complete) if complete else None)
    greedy = run_find(rule, greedy_only=True)
    assert greedy == greedy_chain(rule)
    if full is None:
        assert greedy is None


@pytest.mark.parametrize("rule", RULES)
def test_a_reversed_walk_leaves_every_answer_the_same(rule):
    # the backward walk has an order iff the forward one has, and find
    # returns the forward walk's order whichever ends first
    assert run_find(rule, backward=reversed_walk(rule)) == run_find(rule)


@pytest.mark.parametrize("rule", RULES)
def test_a_backward_no_stops_find_at_its_first_dead_state(rule):
    def counted(calls):
        ok, flip = flips(rule)
        return (lambda i: calls.append(i) or ok(i)), flip

    before = []
    ok, flip = counted(before)
    try:
        next(search.walk(TOTAL, ok, flip, flip, False))  # to the first dead state it backs out of
        answer = None
    except StopIteration as done:
        answer = done.value  # it ended without backing out of one

    def no():
        return None
        yield

    calls = []
    ok, flip = counted(calls)
    assert search.find(TOTAL, ok, flip, flip, False, no()) == answer
    assert calls == before


@pytest.mark.parametrize("rule", RULES)
def test_greedy_only_never_advances_the_backward_walk(rule):
    def untouched():
        raise AssertionError("greedy_only advanced the backward walk")
        yield

    assert run_find(rule, True, untouched()) == greedy_chain(rule)


@pytest.mark.parametrize("rule", RULES)
def test_find_never_tests_a_move_into_a_state_it_left(rule):
    # a state is left only when it is dead, so the memo answers before the rule
    placed, pushed = [0], set()

    def ok(i):
        assert placed[0] | 1 << i not in pushed
        return rule(placed[0], i)

    def push(i):
        placed[0] |= 1 << i
        pushed.add(placed[0])

    def pop(i):
        placed[0] &= ~(1 << i)

    search.find(TOTAL, ok, push, pop)


def test_find_with_no_moves_succeeds_at_once():
    assert search.find(0, None, None, None) == []
    assert search.path({0: -1}, 0) == []


def removal_order(cert):
    return None if cert is None else [list(s.circuit) for s in cert.removed]


def test_search_witnesses_are_pinned():
    # Orders found over every graph and every 3-clutter on 5 vertices, as the
    # per-search backtracking code returned them before the shared engine.
    rows = []
    for d in (2, 3):
        subsets = all_d_subsets(5, d)
        for mask in range(1 << len(subsets)):
            target = Clutter(5, d, tuple(e for i, e in enumerate(subsets) if mask >> i & 1))
            order = find_quotient_order(ideal_of_clutter(target.complement()))
            rows.append([
                d,
                mask,
                removal_order(find_erasure_sequence(target)),
                removal_order(find_erasure_sequence(target, True)),
                removal_order(find_erasure_sequence(target, False, True)),
                None if order is None else [list(g.support) for g in order.generators],
            ])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "c7b21e0cf8323d60f6bb30a57dd7f188be8d5bcacfcd26676d4e3b3d7c8f9e94"


def test_greedy_proper_orders_are_pinned():
    # Greedy proper orders over every graph and every 3-clutter on 5 vertices,
    # as the search returned them before it pruned starved children.
    rows = []
    for d in (2, 3):
        for mask in range(1 << len(all_d_subsets(5, d))):
            target = Clutter.from_index_mask(5, d, mask)
            rows.append([d, mask, removal_order(find_erasure_sequence(target, True, True))])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "9f421e708e829ea5ab9b39e17cc0ae601d1bbe85d4f9f651d3b3ae6fed465ad3"


def test_orders_at_6_3_are_pinned():
    # Plain, proper and greedy proper orders over a seeded sample of 3-clutters
    # on 6 vertices: up to ten per circuit count, so the sparse targets, where
    # the searches go deep, are as well represented as the dense ones.
    rng = random.Random(0)
    rows = []
    for k in range(21):
        masks = set()
        while len(masks) < min(10, comb(20, k)):
            masks.add(sum(1 << i for i in rng.sample(range(20), k)))
        for mask in sorted(masks):
            target = Clutter.from_index_mask(6, 3, mask)
            rows.append([
                mask,
                removal_order(find_erasure_sequence(target)),
                removal_order(find_erasure_sequence(target, True)),
                removal_order(find_erasure_sequence(target, True, True)),
            ])
    assert len(rows) == 192
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "973f0be849ac402dfc1e232e7783db3bcd7b6ded3ae4af53c2d6f4aa2b5c7bff"
