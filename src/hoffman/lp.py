"""Exact linear programming: two-phase simplex with Bland's rule.

Works entirely over the rationals, so every verdict (optimal / infeasible /
unbounded) is exact and every witness can be checked by substitution.
Equality constraints are eliminated up front by one exact Gauss-Jordan
elimination of `[A_eq | b_eq]` (`rational.solve_affine`), which gives a
particular solution and a kernel basis; free variables are split into
nonnegative pairs, and the remaining inequality-only program runs on a dense
tableau.  Bland's pivoting rule rules out cycling without any perturbation
tricks, and the whole pipeline is deterministic for a fixed input.

The tableau holds Python integers only, in the integer row format of
`rational`, and pivots with its `clear_column`.  Each kernel vector is
scaled to integers, which only rescales its column, and each inequality row
together with its bound.  The invariant is that every tableau row, and the
objective row, is a positive multiple of the row the same simplex holds over
`Fraction`; slack and artificial entries carry the row's scale rather than
1, so neither the phase-one objective nor a ray along a slack is reweighted.
Bland's rule reads only signs and ratios, which positive row multiples keep:
the entering column is the first with a positive objective entry, and the
leaving row minimises `rhs_r / a_r`, compared by cross-multiplying (every
`a_r` is positive), with ties going to the lower basis index.  So the pivot
sequence, and every witness and ray, is the one the `Fraction` tableau
produces (`tests/oracles.py` keeps that tableau as the reference).  Values
are read out exactly at the end, as `Fraction(rhs, basic entry)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rational import (
    RationalLike,
    Vec,
    clear_column,
    eliminate_row,
    integer_dot,
    integer_row,
    primitive_row,
    solve_affine,
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


def _solve_ineq_lp(
    cost: list[int], rows: list[tuple[list[int], int, int]], col_scales: Sequence[int], cost_scale: int
) -> tuple[LpStatus, list[Fraction] | None]:
    """Maximize `cost . q` over {q : coeffs . q <= rhs}, all variables free.

    Each row `(coeffs, rhs, scale)` stands for the rational row
    `(coeffs . q <= rhs) / scale`, and `cost` for `cost / cost_scale`.
    Coordinate j is the kernel coordinate of `solve_lp` divided by
    `col_scales[j]`, which only rescales tableau columns.  Returns (status,
    point | ray | None) in these coordinates; a ray is the one the tableau
    over the unscaled coordinates finds.
    """
    k = len(cost)
    kept: list[tuple[list[int], int, int]] = []
    for coeffs, rhs, scale in rows:
        if not any(coeffs):
            if rhs < 0:
                return LpStatus.INFEASIBLE, None
            continue  # vacuous row
        kept.append((coeffs, rhs, scale))

    if not kept:
        if not any(cost):
            return LpStatus.OPTIMAL, [_ZERO] * k
        # unconstrained: the unscaled cost vector improves
        return LpStatus.UNBOUNDED, [Fraction(c, cost_scale * s * s) for c, s in zip(cost, col_scales)]

    # Standard form: q = u - v with u, v >= 0, one slack per row, artificials
    # only for rows whose right-hand side had to be negated.  Slack and
    # artificial entries carry the row's scale, so every row is a positive
    # multiple of its rational counterpart.
    nrows = len(kept)
    nstruct = 2 * k
    art_start = nstruct + nrows
    width = art_start + sum(rhs < 0 for _, rhs, _ in kept)

    tab: list[list[int]] = []
    basis: list[int] = []
    next_art = art_start
    for r, (coeffs, rhs, scale) in enumerate(kept):
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
            return LpStatus.INFEASIBLE, None
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

    enter = _optimize(tab, obj, basis)
    values = [_ZERO] * art_start
    if enter is None:
        for row, col in zip(tab, basis):
            values[col] = Fraction(row[-1], row[col])
        return LpStatus.OPTIMAL, [values[j] - values[k + j] for j in range(k)]

    # The scaled tableau's ray moves the entering variable by 1, which is
    # its column scale times the unscaled tableau's step.
    step = col_scales[enter % k] if enter < nstruct else 1
    values[enter] = Fraction(1, step)
    for row, col in zip(tab, basis):
        values[col] = Fraction(-row[enter], row[col] * step)
    return LpStatus.UNBOUNDED, [values[j] - values[k + j] for j in range(k)]


def _combination(coords: list[Fraction], kernel: Sequence[list[int]], n: int) -> tuple[list[int], int]:
    """`sum_j coords[j] * kernel[j]`, of width n, as integer numerators over
    one denominator."""
    nums, den = integer_row(coords)
    total = [0] * n
    for q, kv in zip(nums, kernel):
        if q:
            total = [t + q * v for t, v in zip(total, kv)]
    return total, den


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex; deterministic for a fixed input."""
    reduced = solve_affine([vec for vec, _ in lp.eq_constraints], [b for _, b in lp.eq_constraints], lp.n)
    if reduced is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    origin, kernel = reduced
    # x = origin + sum_j q_j * int_kernel[j], where int_kernel[j] is kernel[j]
    # times col_scales[j]; the tableau works in the coordinates q.  With no
    # kernel every row is vacuous, and the optimum is the origin if it holds.
    int_kernel, col_scales = zip(*map(integer_row, kernel)) if kernel else ((), ())
    int_origin, origin_den = integer_row(origin)
    rows = []
    for vec, bound in lp.ineq_constraints:
        # vec . x <= bound, in the coordinates q, times origin_den * row_den
        ints, row_den = integer_row(vec.entries + (bound,))
        a = ints[:-1]
        rows.append((
            [origin_den * integer_dot(a, kv) for kv in int_kernel],
            ints[-1] * origin_den - integer_dot(a, int_origin),
            origin_den * row_den,
        ))
    c, cost_scale = integer_row(lp.objective)
    status, coords = _solve_ineq_lp([integer_dot(c, kv) for kv in int_kernel], rows, col_scales, cost_scale)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    assert coords is not None
    total, den = _combination(coords, int_kernel, len(int_origin))
    if status is LpStatus.UNBOUNDED:
        ray = Vec.wrap(tuple(Fraction(t, den) for t in total))
        return LpOutcome(LpStatus.UNBOUNDED, None, ray)
    point = Vec.wrap(tuple(
        Fraction(o * den + t * origin_den, origin_den * den) for o, t in zip(int_origin, total)
    ))
    return LpOutcome(LpStatus.OPTIMAL, lp.objective.dot(point), point)


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
