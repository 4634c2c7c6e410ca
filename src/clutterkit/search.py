"""The subset searches behind the erasure, quotient, chordal and shelling code.

Each search makes moves 0..total-1 one at a time (erase a circuit, add a
generator, add a facet, delete a ridge), and whether a move may be made
depends only on the set of moves already made, never on their order.  A
state is that set as a bitmask.  So a breadth-first closure meets every
reachable set exactly once, and a state with no complete continuation is
dead whichever order reached it, which makes a dead-set memo sound.

The same fact lets a search run from its far end.  Let undoing move i be
allowed out of a set T that holds i iff move i is allowed out of T - i.
That is again a test on the set alone, so the undos form a search of the
same kind, from the full set down, with its own sound dead-set memo, and
an order of all moves read backwards is an order of all undos.  So the
backward walk has an order iff the forward walk has; ``find`` uses it only
to stop a forward "no" early.

Callers keep their own move tests (the exposure and colon kernels), so the
clutter-side and ideal-side searches still check each other.
"""

from __future__ import annotations

from typing import Callable, Generator

from .clutter import SizeGuardError

MAX_MOVES = 25


def check_moves(total: int) -> None:
    """Raise ``SizeGuardError`` if a closure over ``total`` moves is too big to run."""
    if total > MAX_MOVES:
        raise SizeGuardError(f"size guard: a subset closure needs at most {MAX_MOVES} moves, got {total}")


def closure(total: int, allowed: Callable[[int], Callable[[int], bool]]) -> dict[int, int]:
    """Every state reachable from the empty set, mapped to the index of its last move.

    Move i sets bit i, once.  ``allowed(state)`` returns the test ``ok(i)``
    for moves out of ``state``.  States are expanded breadth-first, moves
    lowest index first, and a child already reached is skipped before
    ``ok`` is called.  The empty set maps to -1; any other state's parent
    is ``state ^ (1 << last[state])``.  A state's ``ok`` is done with
    before ``allowed`` is called for the next state, so ``allowed`` may move
    one mutable context from state to state.  A caller that needs only the
    states copies them with ``set(iter(last))``: ``set(last)`` sizes its
    table for twice as many entries, which doubles its memory.  Over
    ``MAX_MOVES`` moves it raises ``SizeGuardError`` before any work
    (``check_moves``).
    """
    check_moves(total)
    full = (1 << total) - 1
    last = {0: -1}
    frontier = [0]
    while frontier:
        new_frontier = []
        for state in frontier:
            ok = allowed(state)
            free = full ^ state
            while free:
                bit = free & -free
                free ^= bit
                child = state | bit
                if child in last:
                    continue
                i = bit.bit_length() - 1
                if ok(i):
                    last[child] = i
                    new_frontier.append(child)
        frontier = new_frontier
    return last


def stuck(total: int, allowed: Callable[[int], Callable[[int], bool]], states) -> list[int]:
    """The states, in the given order, that are not complete and allow no move.

    ``allowed`` is as for ``closure``; a state is complete when every move
    has been made.  Over states that ``closure`` reached, a state that is
    not stuck has a move to a reached state one move on, so none is stuck
    iff every reached state completes.
    """
    full = (1 << total) - 1
    out = []
    for state in states:
        free = full ^ state
        if free:
            ok = allowed(state)
            if not any(ok(i) for i in range(total) if free >> i & 1):
                out.append(state)
    return out


def path(last: dict[int, int], state: int) -> list[int]:
    """The moves ``closure`` recorded from the empty set to ``state``, in order."""
    moves = []
    while (i := last[state]) >= 0:
        moves.append(i)
        state ^= 1 << i
    moves.reverse()
    return moves


def walk(total: int, ok: Callable[[int], bool], push: Callable[[int], None],
         pop: Callable[[int], None], greedy_only: bool) -> Generator[None, None, list[int] | None]:
    """Depth-first search for an order of all ``total`` moves, as a generator.

    ``ok(i)`` tests move i in the caller's context for the current state;
    ``push(i)`` makes the move in that context and ``pop(i)`` undoes it.
    Moves not yet made are tried lowest index first, and a child known dead
    is skipped before ``ok`` is called for it.  The walk yields once at each
    dead state it backs out of, and returns the order found or None.  With
    ``greedy_only`` it follows the first accepted move at each state and
    returns None, without yielding, as soon as that chain fails.
    """
    full = (1 << total) - 1
    dead: set[int] = set()
    chosen: list[int] = []
    state = 0
    start = 0
    while state != full:
        free = (full ^ state) >> start << start
        while free:
            bit = free & -free
            free ^= bit
            if state | bit in dead:
                continue
            i = bit.bit_length() - 1
            if ok(i):
                break
        else:
            # no move out of this state completes: it is dead
            if not chosen or greedy_only:
                return None
            dead.add(state)
            yield
            i = chosen.pop()
            pop(i)
            state ^= 1 << i
            start = i + 1
            continue
        chosen.append(i)
        push(i)
        state |= bit
        start = 0
    return chosen


def find(total: int, ok: Callable[[int], bool], push: Callable[[int], None],
         pop: Callable[[int], None], greedy_only: bool = False,
         backward: Generator[None, None, list[int] | None] | None = None) -> list[int] | None:
    """The order ``walk`` finds, or None.

    ``backward`` is a second walk that has an order iff this one has: the
    same search run from the full set down, its moves the undos of these
    (see the module docstring).  It is advanced to its next dead state after
    each forward dead state.  If it ends with None, no order exists and
    ``find`` returns None at once; if it ends with an order, one exists, so
    it is dropped and the forward walk runs on alone.  The order returned
    is always the forward walk's.
    """
    forward = walk(total, ok, push, pop, greedy_only)
    while True:
        try:
            next(forward)
        except StopIteration as done:
            return done.value
        if backward is not None:
            try:
                next(backward)
            except StopIteration as done:
                if done.value is None:
                    return None
                backward = None
