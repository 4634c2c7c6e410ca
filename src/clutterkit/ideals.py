"""Squarefree monomial ideals, colon ideals, and linear-quotient orders.

Generators carry their supports only (a squarefree monomial is determined
by its variable set), and the generator list is ordered: the order is the
candidate quotient order.  Colons by a monomial stay within squarefree
land via support differences; the unit ideal, which shows up when some
generator divides the monomial, is flagged explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import search
from .clutter import Clutter, d_subset_masks, vertex_mask, mask_vertices


@dataclass(frozen=True)
class SquarefreeMonomial:
    """The monomial x_e for a set e of variable indices."""

    support: tuple[int, ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("squarefree monomials have nonempty support")
        if tuple(sorted(set(self.support))) != self.support:
            raise ValueError(f"support {self.support} must be sorted and duplicate-free")
        if self.support[0] < 1:
            raise ValueError("variable indices are 1-based")

    @property
    def degree(self) -> int:
        return len(self.support)

    @property
    def mask(self) -> int:
        return vertex_mask(self.support)

    def divides(self, other: "SquarefreeMonomial") -> bool:
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        return "*".join(f"x{v}" for v in self.support)


def monomial(vertices) -> SquarefreeMonomial:
    return SquarefreeMonomial(tuple(sorted(set(vertices))))


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Ordered generating set of a squarefree monomial ideal in n variables.

    ``generators == ()`` is the zero ideal unless ``unit`` is set, which
    marks the unit ideal (the whole ring) produced by some colon
    computations.
    """

    n: int
    generators: tuple[SquarefreeMonomial, ...]
    unit: bool = False

    def __post_init__(self):
        if self.unit and self.generators:
            raise ValueError("the unit ideal carries no generator list")
        for g in self.generators:
            if g.support[-1] > self.n:
                raise ValueError(f"generator {g} uses variables beyond x{self.n}")

    @classmethod
    def from_supports(cls, n: int, supports) -> "SquarefreeIdeal":
        return cls(n, tuple(monomial(s) for s in supports))

    @classmethod
    def zero(cls, n: int) -> "SquarefreeIdeal":
        return cls(n, ())

    @classmethod
    def unit_ideal(cls, n: int) -> "SquarefreeIdeal":
        return cls(n, (), unit=True)

    @property
    def is_zero(self) -> bool:
        return not self.unit and not self.generators

    @cached_property
    def degree(self) -> int | None:
        """Common generator degree if equigenerated, else None."""
        degs = {g.degree for g in self.generators}
        return degs.pop() if len(degs) == 1 else None

    @cached_property
    def generator_masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.generators)

    def is_minimally_generated(self) -> bool:
        masks = self.generator_masks
        return not any(
            i != j and masks[i] & ~masks[j] == 0
            for i in range(len(masks))
            for j in range(len(masks))
        )

    def contains_monomial(self, m: SquarefreeMonomial) -> bool:
        if self.unit:
            return True
        return any(g.divides(m) for g in self.generators)

    def reordered(self, order: list[int]) -> "SquarefreeIdeal":
        if sorted(order) != list(range(len(self.generators))):
            raise ValueError("not a permutation of the generator indices")
        return SquarefreeIdeal(self.n, tuple(self.generators[i] for i in order))


@dataclass(frozen=True)
class LinearDivisorResult:
    """Outcome of testing whether a colon ideal is variable-generated."""

    is_linear: bool
    variables: tuple[int, ...]
    ell: int


@dataclass(frozen=True)
class QuotientOrderReport:
    ok: bool
    steps: tuple[LinearDivisorResult, ...]
    failed_at: int | None  # 1-based generator position, None when ok

    @property
    def ell_sequence(self) -> tuple[int, ...]:
        return tuple(s.ell for s in self.steps)

    def to_json_dict(self, ideal: "SquarefreeIdeal") -> dict:
        return {
            "n": ideal.n,
            "generators": [list(g.support) for g in ideal.generators],
            "has_linear_quotients": self.ok,
            "ell_sequence": [s.ell if s.is_linear else None for s in self.steps],
            "failed_at": self.failed_at,
        }


def ideal_of_clutter(clutter: Clutter) -> SquarefreeIdeal:
    """Circuit ideal: one generator per circuit, in lexicographic order."""
    return SquarefreeIdeal(clutter.n, tuple(SquarefreeMonomial(e) for e in clutter.circuits))


def _minimalize(supports: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    uniq = sorted(set(supports), key=lambda s: (len(s), s))
    out: list[tuple[int, ...]] = []
    for s in uniq:
        smask = vertex_mask(s)
        if not any(vertex_mask(t) & ~smask == 0 for t in out):
            out.append(s)
    return out


def colon_by_monomial(ideal: SquarefreeIdeal, m: SquarefreeMonomial) -> SquarefreeIdeal:
    """The colon ideal (I : m), minimally generated.

    Generators are the support differences u \\ m over generators u of I;
    if some u divides m the colon is the unit ideal, returned flagged.
    """
    if ideal.unit:
        return SquarefreeIdeal.unit_ideal(ideal.n)
    mmask = m.mask
    diffs = []
    for g in ideal.generators:
        rest = g.mask & ~mmask
        if rest == 0:
            return SquarefreeIdeal.unit_ideal(ideal.n)
        diffs.append(mask_vertices(rest))
    return SquarefreeIdeal.from_supports(ideal.n, _minimalize(diffs))


def is_linear_divisor(ideal: SquarefreeIdeal, m: SquarefreeMonomial) -> LinearDivisorResult:
    """Decide whether (I : m) is generated by variables.

    Requires m not already in I.  For the zero ideal the colon is zero and
    counts as linear with no variables; a unit colon (impossible under the
    precondition, kept for safety) counts as non-linear.
    """
    if ideal.contains_monomial(m):
        raise ValueError(f"{m} already lies in the ideal")
    if ideal.is_zero:
        return LinearDivisorResult(True, (), 0)
    col = colon_by_monomial(ideal, m)
    if col.unit:
        return LinearDivisorResult(False, (), 0)
    if all(g.degree == 1 for g in col.generators):
        variables = tuple(sorted(g.support[0] for g in col.generators))
        return LinearDivisorResult(True, variables, len(variables))
    return LinearDivisorResult(False, (), 0)


def verify_quotient_order(ideal: SquarefreeIdeal) -> QuotientOrderReport:
    """Check the listed generator order for linear quotients, step by step."""
    if not ideal.is_minimally_generated():
        raise ValueError("ideal is not minimally generated")
    steps: list[LinearDivisorResult] = []
    for j, g in enumerate(ideal.generators):
        prefix = SquarefreeIdeal(ideal.n, ideal.generators[:j])
        res = is_linear_divisor(prefix, g)
        steps.append(res)
        if not res.is_linear:
            return QuotientOrderReport(False, tuple(steps), j + 1)
    return QuotientOrderReport(True, tuple(steps), None)


def _linear_divisor_mask(prefix_masks: list[int], mmask: int) -> int | None:
    """Variable mask of the colon when it is variable-generated, else None.

    Bit-level core shared by the search routines: the minimalized colon is
    variable-generated iff every support difference contains one of the
    singleton differences.
    """
    singles = 0
    diffs = []
    for gm in prefix_masks:
        rest = gm & ~mmask
        diffs.append(rest)
        if rest and rest & (rest - 1) == 0:
            singles |= rest
    for rest in diffs:
        # rest == 0 is the unit colon (some generator divides m): not linear.
        if rest & singles == 0:
            return None
    return singles


def find_quotient_order(ideal: SquarefreeIdeal, greedy_only: bool = False) -> SquarefreeIdeal | None:
    """Search for a generator order with linear quotients.

    Greedy choice (lexicographically first currently-linear divisor) with
    full backtracking over placed-generator sets (``search.find``).  With
    ``greedy_only`` the first stuck greedy chain aborts the search.
    """
    if not ideal.is_minimally_generated():
        raise ValueError("ideal is not minimally generated")
    if ideal.unit:
        raise ValueError("the unit ideal has no quotient order")
    gens = ideal.generators
    if ideal.degree is None and gens:
        raise ValueError("quotient-order search needs an equigenerated ideal")
    order = sorted(range(len(gens)), key=lambda i: gens[i].support)
    masks = [gens[i].mask for i in order]
    prefix: list[int] = []
    chosen = search.find(
        len(masks),
        lambda i: _linear_divisor_mask(prefix, masks[i]) is not None,
        lambda i: prefix.append(masks[i]),
        lambda i: prefix.pop(),
        greedy_only,
    )
    if chosen is None:
        return None
    return ideal.reordered([order[i] for i in chosen])


def _quotient_moves(masks, limit: int | None = None):
    """The ``search.closure`` test for adding generator ``masks[i]`` to a state.

    A state is the set of generators placed; the move is allowed when the
    colon of their ideal by ``masks[i]`` is variable-generated
    (``_linear_divisor_mask``), with fewer than ``limit`` variables when a
    limit is given.
    """

    def allowed(state: int):
        prefix = [masks[i - 1] for i in mask_vertices(state)]

        def ok(i: int) -> bool:
            singles = _linear_divisor_mask(prefix, masks[i])
            return singles is not None and (limit is None or singles.bit_count() < limit)

        return ok

    return allowed


def quotient_reachable_set(n: int, d: int, small_only: bool = False) -> set[int]:
    """All squarefree degree-d ideals buildable one linear divisor at a time.

    States are bitmasks over the lex-ordered d-subsets of {1..n}; a state is
    reachable iff the corresponding generator set admits a quotient order
    (``search.closure``).  With ``small_only`` each added generator must
    also have colon count < n - d.
    """
    masks = d_subset_masks(n, d)
    moves = _quotient_moves(masks, n - d if small_only else None)
    return set(iter(search.closure(len(masks), moves)))
