"""Exact linear programming: two-phase simplex with Bland's rule.

Works entirely over the rationals, so every verdict (optimal / infeasible /
unbounded) is exact and every witness can be checked by substitution.
Equality constraints are eliminated up front by one exact Gauss-Jordan
elimination of `[A_eq | b_eq]` (`rational.reduce_integer_block`).  Every
pivot variable is then substituted out of each inequality row and of the
objective, so the program runs on the free variables alone.  These are the
coordinates of the kernel basis whose vector j has a 1 in free column j.
Free variables are split into nonnegative pairs, and the remaining
inequality-only program runs on a dense tableau.  Bland's pivoting rule
rules out cycling without any perturbation tricks, and the whole pipeline is
deterministic for a fixed input.

The tableau holds Python integers only, in the integer row format of
`rational`, and pivots with its `clear_column`.  `solve_lp` scales each row
of its program to integers once; `activesets.realizability` reads rows its
system has scaled once.  The invariant is that every tableau row, and the
objective row, is a positive multiple of the row the same simplex holds over
`Fraction`; slack and artificial entries carry the row's multiple rather
than 1, so neither the phase-one objective nor a ray along a slack is
reweighted.  Bland's rule reads only signs and ratios, which positive row
multiples keep: the entering column is the first with a positive objective
entry, and the leaving row minimises `rhs_r / a_r`, compared by
cross-multiplying (every `a_r` is positive), with ties going to the lower
basis index.  So the pivot sequence, and every witness and ray, is the one
the `Fraction` tableau produces (`tests/oracles.py` keeps that tableau as the
reference).  The free variables are read out as integers over one
denominator, the pivot variables from the reduced equality block, and a
`Fraction` is built only for each coordinate of the point or ray returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .rational import (
    RationalLike,
    Vec,
    clear_column,
    eliminate_row,
    integer_row,
    primitive_row,
    reduce_integer_block,
    to_rational,
)

__all__ = [
    "LpStatus",
    "LinearProgram",
    "LpOutcome",
    "FarkasCertificate",
    "FeasibilityResult",
    "solve_lp",
    "feasible",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Bland's rule terminates finitely; the guard only trips on implementation bugs.
_MAX_PIVOTS = 2_000_000

Constraint = tuple[Vec, Fraction]


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _coerce_constraints(raw: Sequence[tuple[Vec, RationalLike]], n: int, kind: str) -> tuple[Constraint, ...]:
    out = []
    for coeffs, bound in raw:
        if not isinstance(coeffs, Vec):
            coeffs = Vec.of(coeffs)
        if coeffs.dim != n:
            raise ValueError(f"{kind} constraint has dimension {coeffs.dim}, expected {n}")
        out.append((coeffs, to_rational(bound)))
    return tuple(out)


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  eq rows holding with equality and
    ineq rows as `coeffs . x <= bound`."""

    objective: Vec
    eq_constraints: tuple[Constraint, ...] = ()
    ineq_constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        n = self.objective.dim
        object.__setattr__(self, "eq_constraints", _coerce_constraints(self.eq_constraints, n, "equality"))
        object.__setattr__(self, "ineq_constraints", _coerce_constraints(self.ineq_constraints, n, "inequality"))

    @property
    def n(self) -> int:
        return self.objective.dim


@dataclass(frozen=True)
class LpOutcome:
    """Exact outcome; `witness` is the optimal point, or a feasible improving
    ray when the program is unbounded."""

    status: LpStatus
    optimal_value: Fraction | None = None
    witness: Vec | None = None


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility by substitution.

    eq_multipliers are free, ineq_multipliers are nonnegative; combining the
    constraint rows with these weights yields the zero functional with a
    strictly negative bound.
    """

    eq_multipliers: Vec | None
    ineq_multipliers: Vec | None


@dataclass(frozen=True)
class FeasibilityResult:
    point: Vec | None
    certificate: FarkasCertificate | None

    @property
    def is_feasible(self) -> bool:
        return self.point is not None


def _pivot(tab: list[list[int]], obj: list[int], basis: list[int], leave: int, enter: int) -> None:
    lead = clear_column(tab, leave, enter)
    f = obj[enter]
    if f:
        obj[:] = eliminate_row(obj, f, lead, lead[enter])
    basis[leave] = enter


def _price_out(obj: list[int], tab: list[list[int]], basis: list[int]) -> list[int]:
    """The objective row with every basic column cleared."""
    for row, col in zip(tab, basis):
        f = obj[col]
        if f:
            obj = eliminate_row(obj, f, row, row[col])
    return obj


def _optimize(tab: list[list[int]], obj: list[int], basis: list[int]) -> int | None:
    """Pivot to optimality under Bland's rule.

    Returns None at an optimum, or the entering column index when the
    objective is unbounded above.
    """
    ncols = len(obj) - 1  # trailing slot mirrors the rhs and is ignored
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return None
        leave: int | None = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, lead_rhs, lead_a = r, row[-1], a
                    continue
                # row[-1] / a < lead_rhs / lead_a, cross-multiplied (a, lead_a > 0)
                here, lead = row[-1] * lead_a, lead_rhs * a
                if here < lead or (here == lead and basis[r] < basis[leave]):
                    leave, lead_rhs, lead_a = r, row[-1], a
        if leave is None:
            return enter
        _pivot(tab, obj, basis, leave, enter)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot bound exceeded")


def _solve_ineq_lp(cost: list[int], rows: list[tuple[list[int], int, int]]) -> tuple[LpStatus, list[int], int]:
    """Maximize `cost . q` over {q : coeffs . q <= rhs}, all variables free.

    Each row `(coeffs, rhs, scale)`, with a nonzero coefficient, stands for
    the rational row `(coeffs . q <= rhs) / scale`, and `cost` for a positive
    multiple of the rational cost.  Returns (status, nums, den): the optimal
    point, or the ray the `Fraction` tableau finds, as integer numerators
    over one positive denominator (no numerators when infeasible).
    """
    k = len(cost)

    # Standard form: q = u - v with u, v >= 0, one slack per row, artificials
    # only for rows whose right-hand side had to be negated.  Slack and
    # artificial entries carry the row's scale, so every row is a positive
    # multiple of its rational counterpart.
    nrows = len(rows)
    nstruct = 2 * k
    art_start = nstruct + nrows
    width = art_start + sum(rhs < 0 for _, rhs, _ in rows)

    tab: list[list[int]] = []
    basis: list[int] = []
    next_art = art_start
    for r, (coeffs, rhs, scale) in enumerate(rows):
        row = [0] * (width + 1)
        row[:k] = coeffs
        row[k:nstruct] = [-c for c in coeffs]
        row[nstruct + r] = scale
        row[-1] = rhs
        if rhs < 0:
            row = [-v for v in row]
            row[next_art] = scale
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(nstruct + r)
        tab.append(primitive_row(row))

    if width > art_start:
        obj = [0] * (width + 1)
        obj[art_start:width] = [-1] * (width - art_start)
        obj = _price_out(obj, tab, basis)
        if _optimize(tab, obj, basis) is not None:
            raise RuntimeError("phase one cannot be unbounded")
        if any(basis[r] >= art_start and tab[r][-1] != 0 for r in range(len(tab))):
            return LpStatus.INFEASIBLE, [], 1
        # Drive zero-valued artificials out; rows that cannot pivot are redundant.
        drop: list[int] = []
        for r in range(len(tab)):
            if basis[r] >= art_start:
                enter = next((j for j in range(art_start) if tab[r][j] != 0), None)
                if enter is None:
                    drop.append(r)
                else:
                    _pivot(tab, obj, basis, r, enter)
        for r in reversed(drop):
            del tab[r]
            del basis[r]
        tab = [row[:art_start] + [row[-1]] for row in tab]

    obj = [0] * (art_start + 1)
    obj[:k] = cost
    obj[k:nstruct] = [-c for c in cost]
    obj = _price_out(obj, tab, basis)

    # A basic variable takes rhs / entry at an optimum, and moves by
    # -entry / basic entry along a ray that moves the entering one by 1.
    enter = _optimize(tab, obj, basis)
    if enter is None:
        status = LpStatus.OPTIMAL
        terms = [(col, row[-1], row[col]) for row, col in zip(tab, basis) if col < nstruct]
    else:
        status = LpStatus.UNBOUNDED
        terms = [(col, -row[enter], row[col]) for row, col in zip(tab, basis) if col < nstruct]
        if enter < nstruct:
            terms.append((enter, 1, 1))
    den = lcm(*[d for _, _, d in terms])
    nums = [0] * k
    for col, num, d in terms:
        if col < k:
            nums[col] += num * (den // d)
        else:
            nums[col - k] -= num * (den // d)
    return status, nums, den


def _substitute(row: list[int], leads: list[list[int]], pivots: list[int], den: int) -> tuple[list[int], int]:
    """`(mult * row - sum_k row[pivots[k]] * leads[k], mult)` for mult 1 or `den`.

    The reduced block `(leads, pivots, den)` of `rational.reduce_integer_block`
    expresses each pivot variable in the free ones, so the result has zeros
    in every pivot column and is `mult` times the row with the pivot
    variables substituted out; a row of width n + 1 carries its bound along.
    """
    hits = [(row[p], lead) for p, lead in zip(pivots, leads) if row[p]]
    if not hits:
        return row, 1
    out = [den * v for v in row]
    for f, lead in hits:
        out = [a - f * b for a, b in zip(out, lead)]
    return out, den


def solve_integer_lp(
    cost: tuple[list[int], int],
    eqs: list[list[int]],
    ineqs: Sequence[tuple[list[int], int]],
    n: int,
) -> tuple[LpStatus, tuple[Fraction, ...] | None]:
    """Maximize the objective over {eq rows hold, ineq rows hold as <=}, in integers.

    Each row has width n + 1, the coefficients then the bound.  Equality
    rows are any nonzero multiples of their rational rows; an inequality
    `(ints, scale)` and the objective `(ints, scale)` (width n) are their
    rational rows times `scale > 0`, as `rational.integer_row` makes them.
    No row is modified.  Returns (status, point | ray | None), equal to what
    `solve_lp` returns for the rational program.  `activesets` solves its
    margin programs with it; it is not part of the package surface.
    """
    block = reduce_integer_block(eqs, n)
    if block is None:
        return LpStatus.INFEASIBLE, None
    leads, pivots, den = block
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    rows = []
    for ints, scale in ineqs:
        row, mult = _substitute(ints, leads, pivots, den)
        coeffs = [row[j] for j in free]
        if any(coeffs):
            rows.append((coeffs, row[n], scale * mult))
        elif row[n] < 0:
            return LpStatus.INFEASIBLE, None
        # otherwise the row holds on every point of the block and is dropped
    ints, scale = cost
    c, mult = _substitute(ints, leads, pivots, den)
    c = [c[j] for j in free]
    if rows:
        status, nums, q_den = _solve_ineq_lp(c, rows)
        if status is LpStatus.INFEASIBLE:
            return LpStatus.INFEASIBLE, None
    elif any(c):
        # unconstrained: the rational cost vector is the improving ray
        status, nums, q_den = LpStatus.UNBOUNDED, c, scale * mult
    else:
        status, nums, q_den = LpStatus.OPTIMAL, c, 1

    # x_p = (lead[n] - sum_j lead[j] * q_j) / den for each pivot p, without
    # the constant lead[n] on a ray; every coordinate over den * q_den
    x = [0] * n
    for j, q in zip(free, nums):
        x[j] = q * den
    shift = q_den if status is LpStatus.OPTIMAL else 0
    for p, lead in zip(pivots, leads):
        x[p] = lead[n] * shift - sum(lead[j] * q for j, q in zip(free, nums) if q)
    total = den * q_den
    return status, tuple(Fraction(v, total) for v in x)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex; deterministic for a fixed input."""
    status, witness = solve_integer_lp(
        integer_row(lp.objective),
        [integer_row(vec.entries + (b,))[0] for vec, b in lp.eq_constraints],
        [integer_row(vec.entries + (b,)) for vec, b in lp.ineq_constraints],
        lp.n,
    )
    if witness is None:
        return LpOutcome(status)
    point = Vec.wrap(witness)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(status, None, point)
    return LpOutcome(status, lp.objective.dot(point), point)


def _farkas_certificate(
    eqs: Sequence[Constraint], ineqs: Sequence[Constraint], n: int
) -> FarkasCertificate:
    """Multipliers for an infeasible system, found via the alternative system.

    Over variables (y_eq free, y_ineq >= 0), we require the combined rows to
    cancel and the combined bound to equal -1; by Farkas' lemma this system is
    solvable exactly when the original one is not.
    """
    n_eq, n_in = len(eqs), len(ineqs)
    total = n_eq + n_in
    alt_eqs: list[tuple[Vec, Fraction]] = []
    for coord in range(n):
        row = [vec[coord] for vec, _ in eqs] + [vec[coord] for vec, _ in ineqs]
        alt_eqs.append((Vec.of(row), _ZERO))
    bounds_row = [bound for _, bound in eqs] + [bound for _, bound in ineqs]
    alt_eqs.append((Vec.of(bounds_row), -_ONE))
    nonnegative = tuple((Vec.unit(total, j).scale(-1), _ZERO) for j in range(n_eq, total))
    outcome = solve_lp(
        LinearProgram(
            objective=Vec.zeros(total),
            eq_constraints=tuple(alt_eqs),
            ineq_constraints=nonnegative,
        )
    )
    if outcome.status is not LpStatus.OPTIMAL or outcome.witness is None:
        raise RuntimeError("infeasible system without a Farkas certificate")
    witness = outcome.witness
    eq_part = Vec.of(witness.entries[:n_eq]) if n_eq else None
    in_part = Vec.of(witness.entries[n_eq:]) if n_in else None
    return FarkasCertificate(eq_part, in_part)


def feasible(
    eq_constraints: Sequence[tuple[Vec, RationalLike]] = (),
    ineq_constraints: Sequence[tuple[Vec, RationalLike]] = (),
    dim: int | None = None,
) -> FeasibilityResult:
    """Decide feasibility of {eq rows hold, ineq rows hold as <=}.

    Returns a feasible point, or a Farkas-type certificate of infeasibility
    that can be checked by substitution.
    """
    if dim is None:
        for vec, _ in list(eq_constraints) + list(ineq_constraints):
            dim = vec.dim if isinstance(vec, Vec) else len(tuple(vec))
            break
    if dim is None:
        raise ValueError("feasibility of an empty system needs an explicit dimension")
    lp = LinearProgram(
        objective=Vec.zeros(dim),
        eq_constraints=tuple(eq_constraints),
        ineq_constraints=tuple(ineq_constraints),
    )
    outcome = solve_lp(lp)
    if outcome.status is LpStatus.OPTIMAL:
        return FeasibilityResult(point=outcome.witness, certificate=None)
    certificate = _farkas_certificate(lp.eq_constraints, lp.ineq_constraints, dim)
    return FeasibilityResult(point=None, certificate=certificate)
