"""Simplicial complexes given by their facets.

The two degenerate complexes are distinguished: the void complex has no
faces at all (``facets == ()``), while the irrelevant complex ``{()}`` has
the empty set as its only face (``facets == ((),)``).  Both occur as
induced subcomplexes inside Betti-number computations, so they are first
class citizens here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        sets = [set(f) for f in self.facets]
        for f, fs in zip(self.facets, sets):
            if tuple(sorted(fs)) != f:
                raise ValueError(f"facet {f} is not a sorted duplicate-free tuple")
            if f and (f[0] < 1 or f[-1] > self.n):
                raise ValueError(f"facet {f} out of range 1..{self.n}")
        for a, b in itertools.combinations(sets, 2):
            if a <= b or b <= a:
                raise ValueError("facets must be pairwise incomparable")
        if list(self.facets) != sorted(self.facets, key=lambda f: (len(f), f)):
            raise ValueError("facets must be sorted by (size, lex)")

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        """Build the complex whose faces are the downward closure of the input."""
        canon = {tuple(sorted(set(f))) for f in faces}
        maximal = [f for f in canon if not any(f != g and set(f) <= set(g) for g in canon)]
        return cls(n, tuple(sorted(maximal, key=lambda f: (len(f), f))))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; the void complex has none."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        if self.is_void:
            return True
        return len({len(f) for f in self.facets}) == 1

    def has_face(self, face) -> bool:
        fs = set(face)
        return any(fs <= set(g) for g in self.facets)

    @cached_property
    def _faces_by_size(self) -> list[list[tuple[int, ...]]]:
        if self.is_void:
            return []
        by_size: list[set] = [set() for _ in range(self.dim + 2)]
        for f in self.facets:
            for r in range(len(f) + 1):
                by_size[r].update(itertools.combinations(f, r))
        return [sorted(s) for s in by_size]

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim); the void complex has f-vector (0,)."""
        if self.is_void:
            return (0,)
        return tuple(len(level) for level in self._faces_by_size)

    @cached_property
    def h_vector(self) -> tuple[int, ...]:
        """Binomial transform of the f-vector; () for the void complex."""
        if self.is_void:
            return ()
        f = self.f_vector
        s = self.dim + 1
        return tuple(
            sum((-1) ** (k - i) * comb(s - i, k - i) * f[i] for i in range(k + 1))
            for k in range(s + 1)
        )

    def reduced_euler_characteristic(self) -> int:
        """Alternating face-count sum -f_-1 + f_0 - f_1 + ...; 0 for the void complex."""
        if self.is_void:
            return 0
        return sum((-1) ** (r + 1) * count for r, count in enumerate(self.f_vector))

    def minimal_nonfaces(self) -> list[tuple[int, ...]]:
        """Subsets that are not faces but all of whose proper subsets are."""
        if self.n > 20:
            from .clutter import SizeGuardError  # clutter imports this module

            raise SizeGuardError(f"size guard: nonface enumeration needs n <= 20, got n={self.n}")
        out = []
        for size in range(0, self.n + 1):
            for s in itertools.combinations(range(1, self.n + 1), size):
                if self.has_face(s):
                    continue
                if all(self.has_face(s[:i] + s[i + 1:]) for i in range(len(s))):
                    out.append(s)
        return out


def alexander_dual(complex_: SimplicialComplex) -> SimplicialComplex:
    """Complex whose faces are complements of nonfaces.

    The facets are the complements of the minimal nonfaces.  The full
    simplex dualizes to the void complex (it has no nonfaces) and the
    boundary of a simplex to the irrelevant complex.
    """
    n = complex_.n
    everything = set(range(1, n + 1))
    facets = [tuple(sorted(everything - set(s))) for s in complex_.minimal_nonfaces()]
    return SimplicialComplex(n, tuple(sorted(facets, key=lambda f: (len(f), f))))
