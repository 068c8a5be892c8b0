"""Top-level verdicts for a linear inequality system `A x <= b`.

Three questions are answered exactly:

* Error bound: is there a constant c with  d(x, P) <= c * max(residual, 0)
  for every x, where P is the solution set?  This holds exactly when every
  active set realizable at a positive residual level keeps the origin
  strictly outside the hull of its rows.  When it fails, a machine-checkable
  certificate is produced: a point with positive residual together with
  convex multipliers that combine its active rows to zero.
* Stability: do all active sets realizable at residual level zero keep the
  worst-direction value away from zero?  Stable systems keep an error bound
  under every small row-and-offset tilt anchored at a boundary point;
  unstable ones can lose it under arbitrarily small tilts.
* The sharp constant: the squared reciprocal-slope `sigma_sq` such that
  residuals bound distances with factor 1/sigma; it is the minimum of the
  squared hull distances over the positive-level family.

Verdicts never shortcut through a feasibility test of the system itself; they
follow the active-set characterization, and the agreement with plain
feasibility is asserted separately by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .activesets import (
    IndexSet,
    InequalitySystem,
    Level,
    active_set,
    enumerate_active_sets,
    make_index_set,
    max_residual,
    maximal_sets,
    residuals,
)
from .convex import Trichotomy, _hull_membership_constraints, minmax_value_sq
from .lp import feasible
from .rational import Mat, Vec, solve_linear, to_rational

__all__ = [
    "Certificate",
    "ErrorBoundVerdict",
    "StabilityVerdict",
    "Perturbation",
    "NoErrorBound",
    "NO_ERROR_BOUND",
    "check_error_bound",
    "check_stability",
    "hoffman_constant_sq",
    "verify_certificate",
    "convex_hull_multipliers",
    "perturb",
    "distance_sq_to_polyhedron",
    "perturbation_ratio_sq",
    "worst_case_system",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class NoErrorBound:
    """Marker: no finite error-bound constant exists for the system."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NO_ERROR_BOUND"


NO_ERROR_BOUND = NoErrorBound()


@dataclass(frozen=True)
class Certificate:
    """Evidence that no error bound holds.

    `point` has strictly positive maximum residual, its active set is exactly
    `active`, and `hull_multipliers` are convex coefficients (aligned with
    `active`) combining the active rows to the zero vector.  All three claims
    are checkable by direct substitution in polynomial time.
    """

    point: Vec
    active: IndexSet
    hull_multipliers: Vec


@dataclass(frozen=True)
class ErrorBoundVerdict:
    has_error_bound: bool
    certificate: Certificate | None
    sigma_sq: Fraction | None
    checked_sets: int


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    violating_set: IndexSet | None
    lower_bound_sq: Fraction | None


@dataclass(frozen=True)
class Perturbation:
    """A uniform tilt: every row gains `epsilon * direction`, every offset
    gains `epsilon * (direction . anchor)`, so `anchor` stays on the boundary."""

    epsilon: Fraction
    direction: Vec
    anchor: Vec

    def __post_init__(self) -> None:
        epsilon = to_rational(self.epsilon)
        direction = self.direction if isinstance(self.direction, Vec) else Vec.of(self.direction)
        anchor = self.anchor if isinstance(self.anchor, Vec) else Vec.of(self.anchor)
        if epsilon < 0:
            raise ValueError("perturbation size must be nonnegative")
        if direction.norm_sq() > 1:
            raise ValueError("perturbation direction must have norm at most 1")
        if direction.dim != anchor.dim:
            raise ValueError("direction and anchor must share a dimension")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "anchor", anchor)


def convex_hull_multipliers(rows: Sequence[Vec]) -> Vec | None:
    """Convex coefficients combining `rows` to the zero vector, or None.

    Solves {sum(l_i row_i) = 0, sum(l_i) = 1, 0 <= l_i <= 1} exactly.
    """
    if not rows:
        raise ValueError("need at least one row")
    eqs, ineqs = _hull_membership_constraints(rows)
    return feasible(eqs, ineqs).point


def check_error_bound(
    system: InequalitySystem,
    *,
    maximal_only: bool = True,
    max_workers: int | None = None,
) -> ErrorBoundVerdict:
    """Decide whether the system admits a finite error-bound constant.

    Enumerates the positive-level active-set family and tests the sign of the
    worst-direction value for each member.  The family is closed downward
    enough that inclusion-maximal members decide the verdict and the sharp
    constant (the value grows with the set, so the hull distance shrinks);
    `maximal_only=False` forces the full scan for oracle testing.
    """
    family = enumerate_active_sets(system, Level.POSITIVE, max_workers=max_workers)
    candidates = maximal_sets(family) if maximal_only else list(family.sets)
    checked = 0
    sharpest: Fraction | None = None
    for indices in candidates:
        rows = system.rows_for(indices)
        value = minmax_value_sq(rows)
        checked += 1
        if value.sign is not Trichotomy.NEGATIVE:
            multipliers = convex_hull_multipliers(rows)
            if multipliers is None:
                raise RuntimeError("nonnegative sign is witnessed by hull multipliers")
            certificate = Certificate(
                point=family.witnesses[indices],
                active=indices,
                hull_multipliers=multipliers,
            )
            return ErrorBoundVerdict(False, certificate, None, checked)
        if sharpest is None or value.value_sq < sharpest:
            sharpest = value.value_sq
    return ErrorBoundVerdict(True, None, sharpest, checked)


def check_stability(
    system: InequalitySystem,
    *,
    max_workers: int | None = None,
) -> StabilityVerdict:
    """Decide whether the error bound survives every small anchored tilt.

    Every member of the zero-level family is inspected (no maximal-set
    shortcut: the zero sign is not monotone under inclusion).  The reported
    squared lower bound is the minimum squared magnitude over the family and
    bounds the squared sharp constant from below for feasible systems; it is
    None when the family is empty.
    """
    family = enumerate_active_sets(system, Level.ZERO, max_workers=max_workers)
    violating: IndexSet | None = None
    bound: Fraction | None = None
    for indices in family.sets:
        value = minmax_value_sq(system.rows_for(indices))
        if value.sign is Trichotomy.ZERO and violating is None:
            violating = indices
        if bound is None or value.value_sq < bound:
            bound = value.value_sq
    return StabilityVerdict(stable=violating is None, violating_set=violating, lower_bound_sq=bound)


def hoffman_constant_sq(
    system: InequalitySystem,
    *,
    max_workers: int | None = None,
) -> Fraction | None | NoErrorBound:
    """Exact squared sharp constant.

    Returns NO_ERROR_BOUND when the system admits none, and None when no
    point has positive residual at all (the constant is an infimum over an
    empty set, i.e. unbounded; only systems whose rows are all zero with
    nonnegative offsets land here).
    """
    verdict = check_error_bound(system, max_workers=max_workers)
    if not verdict.has_error_bound:
        return NO_ERROR_BOUND
    return verdict.sigma_sq


def verify_certificate(system: InequalitySystem, certificate: Certificate) -> bool:
    """Check a no-error-bound certificate by substitution only.

    Independent of the enumerator: validates positive residual, exact active
    set, and the convex combination of active rows to zero.  Malformed
    certificates are rejected rather than raising.
    """
    try:
        point = certificate.point if isinstance(certificate.point, Vec) else Vec.of(certificate.point)
        if point.dim != system.n:
            return False
        indices = make_index_set(certificate.active)
        if any(i > system.m for i in indices):
            return False
        if max_residual(system, point) <= 0:
            return False
        if active_set(system, point) != indices:
            return False
        lam = (
            certificate.hull_multipliers
            if isinstance(certificate.hull_multipliers, Vec)
            else Vec.of(certificate.hull_multipliers)
        )
        if lam.dim != len(indices):
            return False
        if any(value < 0 for value in lam):
            return False
        if sum(lam, _ZERO) != 1:
            return False
        combined = Vec.zeros(system.n)
        for value, i in zip(lam, indices):
            if value:
                combined = combined + system.A.rows[i - 1].scale(value)
        return combined.is_zero()
    except (ValueError, TypeError):
        return False


def perturb(system: InequalitySystem, perturbation: Perturbation) -> InequalitySystem:
    """Apply an anchored tilt; the anchor must lie on the boundary.

    Boundary membership means maximum residual exactly zero: feasible with at
    least one row tight, which also covers solution sets with empty interior.
    A zero tilt (epsilon = 0 or a zero direction) returns an equal system.
    """
    p = perturbation
    if p.direction.dim != system.n:
        raise ValueError(f"direction has dimension {p.direction.dim}, expected {system.n}")
    if max_residual(system, p.anchor) != 0:
        raise ValueError("anchor must have maximum residual exactly zero")
    shift = p.direction.scale(p.epsilon)
    offset_shift = p.epsilon * p.direction.dot(p.anchor)
    rows = [row + shift for row in system.A.rows]
    offsets = [value + offset_shift for value in system.b]
    return InequalitySystem(Mat(tuple(rows)), Vec.of(offsets))


def distance_sq_to_polyhedron(system: InequalitySystem, x: Vec) -> Fraction | None:
    """Exact squared distance from x to the solution set; None when empty.

    The nearest feasible point is the orthogonal projection of x onto the
    affine span of its set of tight rows, so enumerating row subsets, solving
    the normal equations exactly, and keeping feasible candidates is exact.
    """
    values = residuals(system, x)
    if all(v <= 0 for v in values):
        return _ZERO
    m = system.m
    best: Fraction | None = None
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            rows = [system.A.rows[i - 1] for i in combo]
            gram = Mat.of([[ri.dot(rj) for rj in rows] for ri in rows])
            rhs = Vec.of([system.b[i - 1] - rows[pos].dot(x) for pos, i in enumerate(combo)])
            solution = solve_linear(gram, rhs)
            if solution is None:
                continue  # the tight-row equalities are inconsistent
            candidate = x
            for coeff, row in zip(solution.point, rows):
                if coeff:
                    candidate = candidate + row.scale(coeff)
            if any(v > 0 for v in residuals(system, candidate)):
                continue
            dist_sq = (x - candidate).norm_sq()
            if best is None or dist_sq < best:
                best = dist_sq
    return best


def perturbation_ratio_sq(system: InequalitySystem, x: Vec) -> Fraction:
    """Squared ratio (max residual / distance to the solution set) at x.

    Requires a point with strictly positive maximum residual.  When the
    solution set is empty the distance is infinite by convention and the
    ratio is zero.
    """
    value = max_residual(system, x)
    if value <= 0:
        raise ValueError("ratio requires a point with positive maximum residual")
    dist_sq = distance_sq_to_polyhedron(system, x)
    if dist_sq is None:
        return _ZERO
    return value * value / dist_sq


def worst_case_system(m: int) -> InequalitySystem:
    """The m-row system with identity rows and zero offsets.

    Its rows are independent, so every one of the 2^m - 1 nonempty subsets is
    realizable at both levels; this is the scaling stress case.
    """
    if m < 1:
        raise ValueError("need at least one row")
    return InequalitySystem(Mat.identity(m), Vec.zeros(m))
