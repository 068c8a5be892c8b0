"""Exact linear programming: two-phase simplex with Bland's rule.

Works entirely over the rationals, so every verdict (optimal / infeasible /
unbounded) is exact and every witness can be checked by substitution.
Equality constraints are eliminated up front by exact Gaussian elimination,
free variables are split into nonnegative pairs, and the remaining
inequality-only program runs on a dense tableau.  Bland's pivoting rule rules
out cycling without any perturbation tricks, and the whole pipeline is
deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rational import RationalLike, Vec, Mat, nullspace, solve_linear, to_rational

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


def _pivot(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int], leave: int, enter: int) -> None:
    prow = tab[leave]
    piv = prow[enter]
    if piv != 1:
        prow = [v / piv for v in prow]
        tab[leave] = prow
    for r in range(len(tab)):
        if r != leave:
            row = tab[r]
            f = row[enter]
            if f:
                tab[r] = [a - f * b for a, b in zip(row, prow)]
    f = obj[enter]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[leave] = enter


def _optimize(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int]) -> int | None:
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
        best_ratio: Fraction | None = None
        leave: int | None = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and leave is not None and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            return enter
        _pivot(tab, obj, basis, leave, enter)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot bound exceeded")


def _solve_ineq_lp(cost: Vec, ineqs: Sequence[Constraint]) -> tuple[LpStatus, Vec | None]:
    """Maximize `cost . q` over {q : coeffs . q <= bound}, all variables free.

    Returns (status, optimal point | improving ray | None).
    """
    k = cost.dim
    rows: list[Constraint] = []
    for coeffs, bound in ineqs:
        if coeffs.is_zero():
            if bound < 0:
                return LpStatus.INFEASIBLE, None
            continue  # vacuous row
        rows.append((coeffs, bound))

    if not rows:
        if cost.is_zero():
            return LpStatus.OPTIMAL, Vec.zeros(k)
        return LpStatus.UNBOUNDED, cost  # unconstrained: the cost vector improves

    # Standard form: q = u - v with u, v >= 0, one slack per row, artificials
    # only for rows whose right-hand side had to be negated.
    nrows = len(rows)
    nstruct = 2 * k
    negated = [bound < 0 for _, bound in rows]
    n_art = sum(negated)
    width = nstruct + nrows + n_art

    art_col: dict[int, int] = {}
    next_art = nstruct + nrows
    for r, flag in enumerate(negated):
        if flag:
            art_col[r] = next_art
            next_art += 1

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for r, (coeffs, bound) in enumerate(rows):
        sign = -_ONE if negated[r] else _ONE
        row = [_ZERO] * (width + 1)
        for j in range(k):
            c = coeffs[j]
            if c:
                row[j] = sign * c
                row[k + j] = -sign * c
        row[nstruct + r] = sign
        row[-1] = sign * bound
        if negated[r]:
            row[art_col[r]] = _ONE
            basis.append(art_col[r])
        else:
            basis.append(nstruct + r)
        tab.append(row)

    art_start = nstruct + nrows

    if n_art:
        obj = [_ZERO] * (width + 1)
        for c in range(art_start, width):
            obj[c] = -_ONE
        for r in range(nrows):
            if basis[r] >= art_start:
                obj = [a + b for a, b in zip(obj, tab[r])]
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

    width = art_start
    cost_std = [_ZERO] * (width + 1)
    for j in range(k):
        c = cost[j]
        if c:
            cost_std[j] = c
            cost_std[k + j] = -c
    obj = cost_std[:]
    for r in range(len(tab)):
        cb = cost_std[basis[r]]
        if cb:
            obj = [a - cb * b for a, b in zip(obj, tab[r])]

    enter = _optimize(tab, obj, basis)
    if enter is None:
        values = [_ZERO] * width
        for r, col in enumerate(basis):
            values[col] = tab[r][-1]
        point = Vec.of([values[j] - values[k + j] for j in range(k)])
        return LpStatus.OPTIMAL, point

    ray_vals = [_ZERO] * width
    ray_vals[enter] = _ONE
    for r, col in enumerate(basis):
        ray_vals[col] = -tab[r][enter]
    ray = Vec.of([ray_vals[j] - ray_vals[k + j] for j in range(k)])
    return LpStatus.UNBOUNDED, ray


def _eliminate_equalities(eqs: Sequence[Constraint], n: int) -> tuple[Vec, list[Vec]] | None:
    """Particular solution and nullspace basis of the equality block, or None.

    An empty block returns the origin and the standard basis, so the program
    is solved in its own coordinates.
    """
    if not eqs:
        return Vec.zeros(n), [Vec.unit(n, j) for j in range(n)]
    matrix = Mat(tuple(vec for vec, _ in eqs))
    rhs = Vec.of([bound for _, bound in eqs])
    solution = solve_linear(matrix, rhs)
    if solution is None:
        return None
    kernel = nullspace([vec for vec, _ in eqs], n)
    return solution.point, kernel


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex; deterministic for a fixed input."""
    n = lp.n
    reduced = _eliminate_equalities(lp.eq_constraints, n)
    if reduced is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    origin, kernel = reduced
    if not kernel:
        if all(vec.dot(origin) <= bound for vec, bound in lp.ineq_constraints):
            return LpOutcome(LpStatus.OPTIMAL, lp.objective.dot(origin), origin)
        return LpOutcome(LpStatus.INFEASIBLE)
    projected = [
        (Vec.of([vec.dot(kv) for kv in kernel]), bound - vec.dot(origin))
        for vec, bound in lp.ineq_constraints
    ]
    cost = Vec.of([lp.objective.dot(kv) for kv in kernel])
    status, payload = _solve_ineq_lp(cost, projected)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    assert payload is not None
    lifted = Vec.zeros(n)
    for coeff, kv in zip(payload, kernel):
        if coeff:
            lifted = lifted + kv.scale(coeff)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, None, lifted)
    point = origin + lifted
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
