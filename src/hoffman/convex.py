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

Each sign question has one exact solver, and none rounds.  Whether the
origin lies outside the hull is read from Wolfe's nearest-point method, run
exactly on one integer Gram matrix per call: the nearest point is exact, it
is checked by substitution against every point of the set, scaled to
integers by one positive factor (which is exact and equivalent), and a
positive distance is both the negative sign and its magnitude.  When the
nearest point is the origin, one margin program, max t subject to
{sum(l_i d_i) = 0, sum(l_i) = 1, l_i >= t}, tells zero from positive: the
origin is interior exactly when the margin is positive and the hull is
full-dimensional.  The same hull system, without the margin, gives the
convex multipliers of a no-error-bound certificate
(`convex_hull_multipliers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .lp import LinearProgram, LpStatus, solve_lp
from .rational import (
    Vec,
    affine_hull_dim,
    integer_dot,
    integer_row,
    nullspace,
    primitive_row,
    reduce_integer_block,
    sqrt_approx,
)

__all__ = [
    "Trichotomy",
    "MinMaxValue",
    "convex_hull_multipliers",
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

    def approx(self) -> float | None:
        """Float annotation of the signed value, None past float range; the
        exact data is value_sq."""
        root = sqrt_approx(self.value_sq)
        if root is not None and self.sign is Trichotomy.NEGATIVE:
            return -root
        return root


def _validated(points: Sequence[Vec]) -> list[Vec]:
    pts = list(points)
    if not pts:
        raise ValueError("point set must be nonempty")
    dim = pts[0].dim
    if any(p.dim != dim for p in pts):
        raise ValueError("points must share one dimension")
    return pts


def _hull_equalities(pts: Sequence[Vec], zeros: int) -> tuple[tuple[Vec, Fraction], ...]:
    """The rows of {sum(l_i p_i) = 0, sum(l_i) = 1} over the multipliers l_i,
    each followed by `zeros` zero columns for variables they leave free."""
    pad = (_ZERO,) * zeros
    eqs = [(Vec.wrap(tuple(p[coord] for p in pts) + pad), _ZERO) for coord in range(pts[0].dim)]
    eqs.append((Vec.wrap((_ONE,) * len(pts) + pad), _ONE))
    return tuple(eqs)


def convex_hull_multipliers(rows: Sequence[Vec]) -> Vec | None:
    """Convex coefficients combining `rows` to the zero vector, or None.

    Solves {sum(l_i row_i) = 0, sum(l_i) = 1, 0 <= l_i <= 1} exactly.  The
    rows l_i <= 1 follow from the others but stay: the simplex pivots, and so
    the multipliers, depend on them.
    """
    pts = _validated(rows)
    k = len(pts)
    ineqs = [(Vec.unit(k, i), _ONE) for i in range(k)]
    ineqs += [(Vec.unit(k, i).scale(-1), _ZERO) for i in range(k)]
    # Only the multipliers are read, so no infeasibility certificate is built.
    outcome = solve_lp(LinearProgram(Vec.zeros(k), _hull_equalities(pts, 0), tuple(ineqs)))
    return outcome.witness if outcome.status is LpStatus.OPTIMAL else None


def _relative_interior_margin(pts: Sequence[Vec]) -> Fraction | None:
    """max t such that the origin is an affine combination of pts with every
    multiplier at least t (so t <= 1/k), or None off aff(pts).  t < 0 outside
    conv(pts), t = 0 on its relative boundary, t > 0 in its relative interior."""
    k = len(pts)
    width = k + 1  # multipliers plus the margin variable
    ineqs = []
    for i in range(k):
        row = [_ZERO] * width
        row[i] = -_ONE
        row[k] = _ONE
        ineqs.append((Vec.wrap(tuple(row)), _ZERO))  # t <= l_i
    outcome = solve_lp(
        LinearProgram(
            objective=Vec.unit(width, k),
            eq_constraints=_hull_equalities(pts, 1),
            ineq_constraints=tuple(ineqs),
        )
    )
    if outcome.status is LpStatus.INFEASIBLE:
        return None
    if outcome.status is not LpStatus.OPTIMAL or outcome.optimal_value is None:
        raise RuntimeError("the margin program is bounded by 1/k")
    return outcome.optimal_value


def minmax_sign(points: Sequence[Vec]) -> Trichotomy:
    """Exact sign of v(points), from one margin program: negative when it is
    infeasible or t < 0, positive when t > 0 and the hull is full-dimensional."""
    pts = _validated(points)
    margin = _relative_interior_margin(pts)
    if margin is None or margin < 0:
        return Trichotomy.NEGATIVE
    if margin > 0 and affine_hull_dim(pts) == pts[0].dim:
        return Trichotomy.POSITIVE
    return Trichotomy.ZERO


def _checked_nearest(
    vecs: Sequence[Sequence[int]], corral: Sequence[Sequence[int]], lam: Sequence[int], den: int
) -> tuple[list[int], int]:
    """The integer point X = sum(lam_j c_j) and X . X, checked by substitution
    to be den times the nearest point of conv(vecs): the weights lam / den
    are positive and sum to one, and no point of the set lies strictly on the
    origin's side of the hyperplane through X / den normal to it."""
    if any(l <= 0 for l in lam) or sum(lam) != den:
        raise RuntimeError("nearest-point weights are not convex")
    point = [integer_dot(lam, column) for column in zip(*corral)]
    norm = integer_dot(point, point)
    if any(integer_dot(v, point) * den < norm for v in vecs):
        raise RuntimeError("nearest-point result failed its optimality check")
    return point, norm


def _integer_points(pts: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int, list[list[int]]]:
    """The distinct points, in first-seen order, scaled to integer vectors by
    the lcm of all their denominators; that scale; and their Gram matrix,
    every inner product times the scale squared.  Under one common scale two
    points are equal exactly when their integer vectors are."""
    n = pts[0].dim
    flat, scale = integer_row([x for p in pts for x in p.entries])
    vecs = list(dict.fromkeys(tuple(flat[i:i + n]) for i in range(0, len(flat), n)))
    gram = [[0] * len(vecs) for _ in vecs]
    for i, u in enumerate(vecs):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = integer_dot(u, vecs[j])
    return vecs, scale, gram


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
    the result does not depend on the path.

    Everything before the return runs in integers.  The distinct points are
    scaled to integer vectors p_i by the lcm of all their denominators, which
    scales the hull, its nearest point and every comparison by one positive
    factor and leaves the weights as they are.  Every step runs on their Gram
    matrix, with integer weights lam_j over one common denominator, so x is
    sum(lam_j p_j) / den, <x, p_i> is values[i] / den and <x, x> is
    norm / den**2 in those units.  X = sum(lam_j p_j) is checked by
    substitution against every p_i (exact, and equivalent to checking x
    against the points), and a failed check raises RuntimeError.  Only then
    are x and its squared norm built as `Fraction`s.
    """
    vecs, scale, gram = _integer_points(_validated(points))
    first = min(range(len(vecs)), key=lambda i: gram[i][i])
    corral, lam, den = [first], [1], 1
    previous: tuple[int, int] | None = None
    while True:
        values = [sum(l * row[c] for c, l in zip(corral, lam)) for row in gram]
        norm = sum(l * values[c] for c, l in zip(corral, lam))
        if previous is not None and norm * previous[1] ** 2 >= previous[0] * den * den:
            raise RuntimeError("nearest-point method made no progress")
        previous = norm, den
        best = min(range(len(vecs)), key=values.__getitem__)
        if values[best] * den >= norm:
            break
        corral.append(best)
        lam.append(0)
        while True:
            k = len(corral)
            system = [[gram[i][j] for j in corral] + [1, 0] for i in corral]
            system.append([1] * k + [0, 1])
            block = reduce_integer_block(system, k + 1)
            if block is None or len(block[1]) <= k:
                raise RuntimeError("the corral of the nearest-point method lost affine independence")
            leads, _, lead_den = block
            tden, *target = primitive_row([lead_den] + [lead[k + 1] for lead in leads])
            target = target[:k]  # the last entry is the multiplier of sum(l) = 1
            if all(t > 0 for t in target):
                lam, den = target, tden
                break
            # Back to the boundary, by the least theta = w / (w - v) over the
            # points whose target weight v is not positive.
            theta = min(Fraction(l * tden, l * tden - t * den) for l, t in zip(lam, target) if t <= 0)
            a, b = theta.numerator, theta.denominator
            lam = [(b - a) * tden * l + a * den * t for l, t in zip(lam, target)]
            kept = [i for i, l in enumerate(lam) if l]
            corral = [corral[i] for i in kept]
            den, *lam = primitive_row([b * den * tden] + [lam[i] for i in kept])
    point, norm = _checked_nearest(vecs, [vecs[c] for c in corral], lam, den)
    unit = den * scale
    return Vec.wrap(tuple(Fraction(x, unit) for x in point)), Fraction(norm, unit * unit)


def _inradius_unchecked(points: Sequence[Vec]) -> Fraction:
    """Least squared origin distance 1 / (y . y) over the facet planes
    {x : y . x = 1} of conv(points), for an origin strictly inside: y . p <= 1
    at every point p, and n distinct points S span the plane exactly when the
    kernel of the rows (p, -1), p in S, is one vector (y, 1)."""
    pts = list(dict.fromkeys(points))
    dim = pts[0].dim
    best: Fraction | None = None
    for subset in combinations(pts, dim):
        kernel = nullspace([Vec.wrap(p.entries + (-_ONE,)) for p in subset], dim + 1)
        if len(kernel) != 1 or not kernel[0][dim]:
            continue
        normal = Vec.wrap(kernel[0].entries[:dim])
        if all(normal.dot(p) <= 1 for p in pts):
            candidate = 1 / normal.norm_sq()
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise RuntimeError("an interior origin implies at least one facet")
    return best


def inradius_at_origin_sq(points: Sequence[Vec]) -> Fraction:
    """Squared radius of the largest origin-centered ball inside conv(points).

    Every facet plane of the hull misses the origin and is spanned by n of
    the points, so minimizing the squared origin distance over the facet
    planes that n-subsets span is exact.
    """
    pts = _validated(points)
    if minmax_sign(pts) is not Trichotomy.POSITIVE:
        raise ValueError("inradius requires the origin strictly inside the hull")
    return _inradius_unchecked(pts)


def minmax_value_sq(points: Sequence[Vec]) -> MinMaxValue:
    """Sign and exact squared magnitude of v(points).  A positive distance to
    the hull is both, and no program is solved; only a hull through the origin
    asks the margin program, and a negative answer there raises RuntimeError."""
    pts = _validated(points)
    _, dist_sq = min_norm_point_sq(pts)
    if dist_sq:
        return MinMaxValue(Trichotomy.NEGATIVE, dist_sq)
    sign = minmax_sign(pts)
    if sign is Trichotomy.NEGATIVE:
        raise RuntimeError("the nearest point is the origin, but the margin program puts it outside the hull")
    if sign is Trichotomy.ZERO:
        return MinMaxValue(sign, _ZERO)
    return MinMaxValue(sign, _inradius_unchecked(pts))
