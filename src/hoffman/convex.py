"""Sign and exact squared magnitude of the worst-direction support value.

For a finite point set D in R^n the quantity of interest is

    v(D) = min over unit directions h of  max_i  <d_i, h>.

Its sign locates the origin relative to conv(D): negative means the origin
lies strictly outside the hull, zero means it sits on the boundary, positive
means it is interior.  The magnitude is geometric as well: |v(D)| equals the
distance from the origin to conv(D) in the negative case and the radius of
the largest origin-centered ball inside conv(D) in the positive case.  Since
v(D) is irrational in general, magnitudes are carried as exact squared
rationals; floats only appear as display annotations.

Sign decisions are made by exact feasibility and margin programs, never by
rounding: the origin lies outside the hull exactly when the convex-multiplier
system {sum(l_i d_i) = 0, sum(l_i) = 1, 0 <= l_i <= 1} is infeasible, and it
is interior exactly when the hull is full-dimensional and the multipliers can
be chosen with a strictly positive common margin.

The distance in the negative case comes from Wolfe's nearest-point method
run over the rationals, so the nearest point is exact; before it is returned
it is checked by substitution against every point of the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .lp import LinearProgram, LpStatus, solve_lp
from .rational import Mat, Vec, affine_hull_dim, nullspace, solve_linear

__all__ = [
    "Trichotomy",
    "MinMaxValue",
    "minmax_sign",
    "min_norm_point_sq",
    "inradius_at_origin_sq",
    "minmax_value_sq",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Trichotomy(Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class MinMaxValue:
    """Sign plus exact squared magnitude of the worst-direction value."""

    sign: Trichotomy
    value_sq: Fraction

    def approx(self) -> float:
        """Float annotation of the signed value; the exact data is value_sq."""
        root = math.sqrt(self.value_sq)
        if self.sign is Trichotomy.NEGATIVE:
            return -root
        if self.sign is Trichotomy.POSITIVE:
            return root
        return 0.0


def _validated(points: Sequence[Vec]) -> list[Vec]:
    pts = list(points)
    if not pts:
        raise ValueError("point set must be nonempty")
    dim = pts[0].dim
    if any(p.dim != dim for p in pts):
        raise ValueError("points must share one dimension")
    return pts


def _dedupe(points: Sequence[Vec]) -> list[Vec]:
    seen: set[tuple[Fraction, ...]] = set()
    unique: list[Vec] = []
    for p in points:
        if p.entries not in seen:
            seen.add(p.entries)
            unique.append(p)
    return unique


def _hull_membership_constraints(pts: Sequence[Vec]) -> tuple[list, list]:
    """Constraints of the convex-multiplier system for the origin.

    The rows l_i <= 1 follow from the others but stay: the simplex pivots,
    and so the certificate multipliers built from this system, depend on them.
    """
    k = len(pts)
    n = pts[0].dim
    eqs = [(Vec.of([p[coord] for p in pts]), _ZERO) for coord in range(n)]
    eqs.append((Vec.of([_ONE] * k), _ONE))
    ineqs = [(Vec.unit(k, i), _ONE) for i in range(k)]
    ineqs += [(Vec.unit(k, i).scale(-1), _ZERO) for i in range(k)]
    return eqs, ineqs


def _relative_interior_margin(pts: Sequence[Vec]) -> Fraction:
    """max t such that the origin is a convex combination with every
    multiplier at least t; positive exactly when the origin lies in the
    relative interior of conv(pts)."""
    k = len(pts)
    n = pts[0].dim
    width = k + 1  # multipliers plus the margin variable
    eqs = [(Vec.of([p[coord] for p in pts] + [0]), _ZERO) for coord in range(n)]
    eqs.append((Vec.of([_ONE] * k + [_ZERO]), _ONE))
    ineqs = []
    for i in range(k):
        row = [_ZERO] * width
        row[i] = -_ONE
        row[k] = _ONE
        ineqs.append((Vec.of(row), _ZERO))  # t <= l_i
    outcome = solve_lp(
        LinearProgram(
            objective=Vec.unit(width, k),
            eq_constraints=tuple(eqs),
            ineq_constraints=tuple(ineqs),
        )
    )
    if outcome.status is not LpStatus.OPTIMAL or outcome.optimal_value is None:
        raise RuntimeError("margin program must be solvable when the origin is in the hull")
    return outcome.optimal_value


def minmax_sign(points: Sequence[Vec]) -> Trichotomy:
    """Exact sign of v(points); decided by rational feasibility programs."""
    pts = _validated(points)
    eqs, ineqs = _hull_membership_constraints(pts)
    # Only the outcome matters, so no infeasibility certificate is built.
    membership = LinearProgram(
        objective=Vec.zeros(len(pts)),
        eq_constraints=tuple(eqs),
        ineq_constraints=tuple(ineqs),
    )
    if solve_lp(membership).status is LpStatus.INFEASIBLE:
        return Trichotomy.NEGATIVE
    n = pts[0].dim
    if affine_hull_dim(pts) == n and _relative_interior_margin(pts) > 0:
        return Trichotomy.POSITIVE
    return Trichotomy.ZERO


def _affine_minimizer(corral: Sequence[Vec]) -> list[Fraction]:
    """Barycentric weights of the point of least norm in aff(corral).

    Solves the normal equations {sum_j <p_i, p_j> v_j + mu = 0, sum v_j = 1},
    which are regular exactly when the corral is affinely independent.
    """
    k = len(corral)
    rows = [[p.dot(q) for q in corral] + [_ONE] for p in corral]
    rows.append([_ONE] * k + [_ZERO])
    solution = solve_linear(Mat.of(rows), Vec.of([_ZERO] * k + [_ONE]))
    if solution is None or not solution.unique:
        raise RuntimeError("the corral of the nearest-point method lost affine independence")
    return list(solution.point.entries[:k])


def _combine(weights: Sequence[Fraction], corral: Sequence[Vec]) -> Vec:
    point = corral[0].scale(weights[0])
    for w, p in zip(weights[1:], corral[1:]):
        if w:
            point = point + p.scale(w)
    return point


def _checked_nearest(pts: Sequence[Vec], corral: Sequence[Vec], weights: Sequence[Fraction]) -> Vec:
    """The point sum(w_i c_i), checked by substitution to be the nearest point
    of conv(pts): the weights are convex, and no point of the set lies
    strictly on the origin's side of the hyperplane through it normal to it."""
    if any(w < 0 for w in weights) or sum(weights, _ZERO) != 1:
        raise RuntimeError("nearest-point weights are not convex")
    point = _combine(weights, corral)
    dist_sq = point.norm_sq()
    if any(p.dot(point) < dist_sq for p in pts):
        raise RuntimeError("nearest-point result failed its optimality check")
    return point


def min_norm_point_sq(points: Sequence[Vec]) -> tuple[Vec, Fraction]:
    """Nearest point of conv(points) to the origin and its squared distance.

    Wolfe's nearest-point method (Wolfe 1976) in exact arithmetic.  The corral
    is an affinely independent subset whose hull holds the current point x,
    with positive convex weights; it starts as the point of least norm.  A
    major step adds the point minimising <x, p> (lowest index on ties) while
    that value is below <x, x>.  Minor steps then move x to the least-norm
    point of the corral's affine hull, or, when that point leaves the corral's
    hull, back to the hull's boundary, dropping the points whose weight
    becomes exactly zero.  The norm falls strictly at each major step, so no
    corral repeats and the method is finite.  The nearest point is unique, so
    the result does not depend on the path; it is checked by substitution
    before it is returned, and a failed check raises RuntimeError.
    """
    pts = _dedupe(_validated(points))
    first = min(range(len(pts)), key=lambda i: pts[i].norm_sq())
    corral, weights = [pts[first]], [_ONE]
    point = pts[first]
    dist_sq = point.norm_sq()
    while True:
        values = [p.dot(point) for p in pts]
        best = min(range(len(pts)), key=values.__getitem__)
        if values[best] >= dist_sq:
            break
        corral.append(pts[best])
        weights.append(_ZERO)
        while True:
            target = _affine_minimizer(corral)
            if all(v > 0 for v in target):
                weights = target
                break
            theta = min(w / (w - v) for w, v in zip(weights, target) if v <= 0)
            weights = [(1 - theta) * w + theta * v for w, v in zip(weights, target)]
            kept = [i for i, w in enumerate(weights) if w]
            corral = [corral[i] for i in kept]
            weights = [weights[i] for i in kept]
        point = _combine(weights, corral)
        previous, dist_sq = dist_sq, point.norm_sq()
        if dist_sq >= previous:
            raise RuntimeError("nearest-point method made no progress")
    point = _checked_nearest(pts, corral, weights)
    return point, point.norm_sq()


def _supporting_halfspace(subset: Sequence[Vec], pts: Sequence[Vec], dim: int) -> tuple[Vec, Fraction] | None:
    """Hyperplane through `subset` supporting conv(pts) with the origin
    strictly on the inner side; returns (outward normal, positive offset)."""
    base = subset[0]
    diffs = [s - base for s in subset[1:]]
    kernel = nullspace(diffs, dim)
    if len(kernel) != 1:
        return None  # subset does not span a hyperplane
    normal = kernel[0]
    offset = normal.dot(base)
    sides = [normal.dot(p) - offset for p in pts]
    if all(s <= 0 for s in sides):
        pass
    elif all(s >= 0 for s in sides):
        normal, offset = -normal, -offset
    else:
        return None
    if offset <= 0:
        return None
    return normal, offset


def _inradius_unchecked(pts: Sequence[Vec]) -> Fraction:
    dim = pts[0].dim
    best: Fraction | None = None
    for subset in combinations(pts, dim):
        plane = _supporting_halfspace(subset, pts, dim)
        if plane is None:
            continue
        normal, offset = plane
        candidate = offset * offset / normal.norm_sq()
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise RuntimeError("an interior origin implies at least one facet")
    return best


def inradius_at_origin_sq(points: Sequence[Vec]) -> Fraction:
    """Squared radius of the largest origin-centered ball inside conv(points).

    Every facet hyperplane of the hull is spanned by an affinely independent
    subset of n points, so enumerating supporting hyperplanes through such
    subsets and minimizing the squared origin distance is exact.
    """
    pts = _validated(points)
    if minmax_sign(pts) is not Trichotomy.POSITIVE:
        raise ValueError("inradius requires the origin strictly inside the hull")
    return _inradius_unchecked(_dedupe(pts))


def minmax_value_sq(points: Sequence[Vec]) -> MinMaxValue:
    """Sign and exact squared magnitude of v(points)."""
    pts = _validated(points)
    sign = minmax_sign(pts)
    if sign is Trichotomy.NEGATIVE:
        _, dist_sq = min_norm_point_sq(pts)
        return MinMaxValue(sign, dist_sq)
    if sign is Trichotomy.ZERO:
        return MinMaxValue(sign, _ZERO)
    return MinMaxValue(sign, _inradius_unchecked(_dedupe(pts)))
