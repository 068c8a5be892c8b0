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

from .activesets import (
    IndexSet,
    InequalitySystem,
    Level,
    active_set,
    enumerate_active_sets,
    make_index_set,
    max_residual,
    maximal_sets,
)
from .convex import Trichotomy, convex_hull_multipliers, minmax_value_sq
from .rational import Mat, Vec, to_rational

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
    "perturb",
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


def check_error_bound(system: InequalitySystem, *, maximal_only: bool = True) -> ErrorBoundVerdict:
    """Decide whether the system admits a finite error-bound constant.

    Enumerates the positive-level active-set family and tests the sign of the
    worst-direction value for each member.  The family is closed downward
    enough that inclusion-maximal members decide the verdict and the sharp
    constant (the value grows with the set, so the hull distance shrinks);
    `maximal_only=False` forces the full scan for oracle testing.
    """
    family = enumerate_active_sets(system, Level.POSITIVE)
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


def check_stability(system: InequalitySystem) -> StabilityVerdict:
    """Decide whether the error bound survives every small anchored tilt.

    The system is stable exactly when no member of the zero-level family has
    worst-direction value v = 0.  Adding rows can only raise the max, so
    every subset of a negative member is negative with |v| no smaller.
    Members are taken largest first, and each one that is not a subset of a
    negative member found before gets its sign and magnitude; Wolfe's
    distance settles it when positive, and only a hull holding the origin
    asks for more.  No zero or positive member is ever skipped, and every
    maximal negative member is computed, so the first zero member in family
    order and the minimum squared magnitude come out as from a scan of every
    member.  That minimum bounds the squared sharp constant from below for
    feasible systems; it is None when the family is empty.
    """
    family = enumerate_active_sets(system, Level.ZERO)
    negative: list[frozenset[int]] = []
    zero: set[IndexSet] = set()
    bounds: list[Fraction] = []
    for indices in sorted(family.sets, key=len, reverse=True):
        if any(member.issuperset(indices) for member in negative):
            continue
        value = minmax_value_sq(system.rows_for(indices))
        if value.sign is Trichotomy.NEGATIVE:
            negative.append(frozenset(indices))
        elif value.sign is Trichotomy.ZERO:
            zero.add(indices)
        bounds.append(value.value_sq)
    violating = next((indices for indices in family.sets if indices in zero), None)
    return StabilityVerdict(stable=violating is None, violating_set=violating, lower_bound_sq=min(bounds, default=None))


def hoffman_constant_sq(system: InequalitySystem) -> Fraction | None | NoErrorBound:
    """Exact squared sharp constant.

    Returns NO_ERROR_BOUND when the system admits none, and None when no
    point has positive residual at all (the constant is an infimum over an
    empty set, i.e. unbounded; only systems whose rows are all zero with
    nonnegative offsets land here).
    """
    verdict = check_error_bound(system)
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


def worst_case_system(m: int) -> InequalitySystem:
    """The m-row system with identity rows and zero offsets.

    Its rows are independent, so every one of the 2^m - 1 nonempty subsets is
    realizable at both levels; this is the scaling stress case.
    """
    if m < 1:
        raise ValueError("need at least one row")
    return InequalitySystem(Mat.identity(m), Vec.zeros(m))
