"""Active index sets of a linear inequality system, and their enumeration.

For a system `A x <= b` the residual of row i at x is `a_i . x - b_i`, and the
active set at x collects the rows attaining the maximum residual.  Two
families of index sets drive every verdict downstream: the sets realizable as
active sets at points with strictly positive maximum residual, and those
realizable where the maximum residual is exactly zero.

Realizability of a candidate set is decided by an exact margin program, never
by nudging points with small epsilons: the candidate rows are pinned to a
common residual level and every other row is pushed below that level by a
maximized slack.  Enumeration walks subsets by increasing cardinality in
lexicographic order and prunes any subset (with all of its supersets) whose
equal-residual equality system is inconsistent; consistency is inherited by
subsets, which makes the pruning sound, while realizability itself is not
monotone and is therefore re-tested per subset.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, Sequence

from .lp import LpStatus, solve_integer_lp
from .rational import Mat, RationalLike, Vec, integer_row, solve_linear

__all__ = [
    "IndexSet",
    "InequalitySystem",
    "Level",
    "ActiveSetFamily",
    "make_index_set",
    "residuals",
    "max_residual",
    "active_set",
    "realizability",
    "enumerate_active_sets",
    "maximal_sets",
]

_ONE = Fraction(1)

# Index sets are 1-based, sorted, duplicate-free tuples.
IndexSet = tuple[int, ...]


def make_index_set(indices: Iterable[int]) -> IndexSet:
    """`indices` sorted and without duplicates.  Each must be an integer, as
    `operator.index` takes it, and not a bool (TypeError otherwise); the set
    must be nonempty and 1-based (ValueError otherwise)."""
    values = set()
    for i in indices:
        if isinstance(i, bool):
            raise TypeError(f"an index must be an integer, not {i!r}")
        values.add(operator.index(i))
    out = tuple(sorted(values))
    if not out:
        raise ValueError("index set must be nonempty")
    if out[0] < 1:
        raise ValueError("indices are 1-based")
    return out


@dataclass(frozen=True)
class InequalitySystem:
    """The system `A x <= b`; rows of A and entries of b correspond 1-based."""

    A: Mat
    b: Vec

    def __post_init__(self) -> None:
        a = self.A if isinstance(self.A, Mat) else Mat.of(self.A)
        b = self.b if isinstance(self.b, Vec) else Vec.of(self.b)
        if b.dim != a.m:
            raise ValueError(f"offset vector has dimension {b.dim}, expected {a.m}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def of(
        cls,
        rows: Iterable[Iterable[RationalLike]],
        offsets: Iterable[RationalLike],
    ) -> "InequalitySystem":
        return cls(Mat.of(rows), Vec.of(offsets))

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def n(self) -> int:
        return self.A.n

    def rows_for(self, indices: IndexSet) -> list[Vec]:
        self.check_indices(indices)
        return [self.A.rows[i - 1] for i in indices]

    @cached_property
    def _integer_rows(self) -> tuple[tuple[list[int], int], ...]:
        """Each row `[a_i | b_i]` as `integer_row` scales it, with its scale.

        Computed on first use and kept with the system, so that every margin
        program of `realizability` reads integers; the rows must not be
        modified.  Two threads may both compute it, to the same value.
        """
        return tuple(integer_row(row.entries + (b,)) for row, b in zip(self.A.rows, self.b.entries))

    def check_indices(self, indices: IndexSet) -> None:
        if not indices:
            raise ValueError("index set must be nonempty")
        if any(not 1 <= i <= self.m for i in indices):
            raise ValueError(f"indices must lie in 1..{self.m}: {indices}")


def residuals(system: InequalitySystem, x: Vec) -> Vec:
    """Row residuals `a_i . x - b_i`."""
    if x.dim != system.n:
        raise ValueError(f"point has dimension {x.dim}, expected {system.n}")
    return Vec.of([row.dot(x) - system.b[i] for i, row in enumerate(system.A.rows)])


def max_residual(system: InequalitySystem, x: Vec) -> Fraction:
    """Largest row residual at x; nonpositive exactly on the feasible set."""
    return max(residuals(system, x))


def active_set(system: InequalitySystem, x: Vec) -> IndexSet:
    """1-based indices of the rows attaining the maximum residual at x."""
    values = residuals(system, x)
    top = max(values)
    return tuple(i + 1 for i, v in enumerate(values) if v == top)


class Level(Enum):
    """Residual level at which an active set is sought."""

    POSITIVE = "pos"
    ZERO = "zero"


@dataclass(frozen=True)
class ActiveSetFamily:
    """All realizable active sets at one level, with one witness point each."""

    level: Level
    sets: tuple[IndexSet, ...]
    witnesses: dict[IndexSet, Vec] = field(compare=False)

    def __contains__(self, indices: Iterable[int]) -> bool:
        return make_index_set(indices) in set(self.sets)


def realizability(system: InequalitySystem, indices: Iterable[int], level: Level) -> Vec | None:
    """Witness point whose active set is exactly `indices` at the given level.

    The margin program pins the candidate rows of the lifted system
    `A x - t 1 <= b` to equality, forces every other row at least a margin s
    below, and maximizes s.  The positive level keeps t as a variable with
    s <= t; the zero level pins t = 0 and drops its column.  The margin is
    capped at 1 to keep the program bounded, which changes nothing about the
    sign of its optimum.  Returns None when no such point exists.
    """
    index_set = make_index_set(indices)
    system.check_indices(index_set)
    inside = set(index_set)
    n = system.n
    lifted = level is Level.POSITIVE

    # The rows of the program over (x, [t,] s), each `[coeffs | bound]` in
    # integers: a lifted row i is `[a_i, -1 | b_i]` times its scale.
    eqs = []
    ineqs = []
    for i, (ints, scale) in enumerate(system._integer_rows, start=1):
        head = ints[:-1] + [-scale] if lifted else ints[:-1]
        if i in inside:
            eqs.append(head + [0, ints[-1]])
        else:
            ineqs.append((head + [scale, ints[-1]], scale))
    width = n + lifted + 1  # x, [level t,] margin s
    if lifted:
        ineqs.append(([0] * n + [-1, 1, 0], 1))  # s <= t keeps the level positive
    ineqs.append(([0] * (width - 1) + [1, 1], 1))  # s <= 1 keeps the program bounded
    status, witness = solve_integer_lp(([0] * (width - 1) + [1], 1), eqs, ineqs, width)
    if status is not LpStatus.OPTIMAL:
        return None
    assert witness is not None
    if witness[-1] <= 0:
        return None
    return Vec.wrap(witness[:n])


def _equal_level_consistent(system: InequalitySystem, indices: IndexSet, level: Level) -> bool:
    """Consistency of the equality block that pins `indices` to one level."""
    rows = tuple(system.A.rows[i - 1] for i in indices)
    if level is Level.POSITIVE:  # the column of the common level t of `A x - t 1 <= b`
        rows = tuple(Vec.wrap(row.entries + (-_ONE,)) for row in rows)
    rhs = Vec.wrap(tuple(system.b[i - 1] for i in indices))
    return solve_linear(Mat(rows), rhs) is not None


def enumerate_active_sets(
    system: InequalitySystem,
    level: Level,
    *,
    prune: bool = True,
    max_workers: int | None = None,
) -> ActiveSetFamily:
    """All active sets realizable at the given level.

    Subsets are visited by increasing cardinality, lexicographically, so the
    output order is deterministic.  With `prune` enabled, subsets whose
    equal-residual system is inconsistent are recorded as dead cores and all
    of their supersets are skipped without further work; with `prune`
    disabled every nonempty subset runs the full margin program, which serves
    as the brute-force oracle in tests.  Only the `enumerate` command, with
    HOFFMAN_THREADS set, passes `max_workers`; above 1, one pool of that many
    threads serves every cardinality's margin programs, and results do not
    depend on the worker count.
    """
    m = system.m
    found: list[IndexSet] = []
    witnesses: dict[IndexSet, Vec] = {}
    dead_cores: list[set[int]] = []
    threaded = max_workers is not None and max_workers > 1
    with ThreadPoolExecutor(max_workers=max_workers) if threaded else nullcontext() as pool:
        for size in range(1, m + 1):
            frontier: list[IndexSet] = []
            for combo in combinations(range(1, m + 1), size):
                if prune:
                    as_set = set(combo)
                    if any(core <= as_set for core in dead_cores):
                        continue
                    if not _equal_level_consistent(system, combo, level):
                        dead_cores.append(as_set)
                        continue
                frontier.append(combo)
            results = (pool.map if threaded else map)(lambda c: realizability(system, c, level), frontier)
            for combo, witness in zip(frontier, results):
                if witness is not None:
                    found.append(combo)
                    witnesses[combo] = witness
    return ActiveSetFamily(level=level, sets=tuple(found), witnesses=witnesses)


def maximal_sets(family: ActiveSetFamily | Sequence[IndexSet]) -> list[IndexSet]:
    """Inclusion-maximal members, in the family's order, keeping the first of
    equal members.  Buckets are visited by decreasing size, and each set is
    tested only against the maximal sets of the larger buckets."""
    sets = list(family.sets) if isinstance(family, ActiveSetFamily) else [make_index_set(s) for s in family]
    first: dict[frozenset[int], IndexSet] = {}
    for indices in sets:
        first.setdefault(frozenset(indices), indices)
    maximal: set[frozenset[int]] = set()
    for _, bucket in groupby(sorted(first, key=len, reverse=True), key=len):
        maximal |= {key for key in bucket if not any(key < other for other in maximal)}
    return [indices for key, indices in first.items() if key in maximal]
