"""Brute-force reference implementations that the fast engines are tested against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from hoffman import Mat, Vec, solve_linear
from hoffman.rational import _row_rank


def _project_origin_onto_spanned_face(subset: Sequence[Vec], dim: int) -> tuple[Vec, Fraction] | None:
    """Project the origin onto aff(subset) if the subset is affinely
    independent and the projection has nonnegative barycentric coordinates.

    Returns (projection, squared distance) or None.
    """
    base = subset[0]
    diffs = [s - base for s in subset[1:]]
    if diffs:
        if _row_rank(diffs, dim) < len(diffs):
            return None  # affinely dependent; a smaller subset covers this face
        gram = Mat.of([[di.dot(dj) for dj in diffs] for di in diffs])
        rhs = Vec.of([-d.dot(base) for d in diffs])
        solution = solve_linear(gram, rhs)
        if solution is None or not solution.unique:
            raise RuntimeError("Gram system of an independent subset must be regular")
        coeffs = list(solution.point.entries)
        lead = 1 - sum(coeffs, Fraction(0))
        if lead < 0 or any(c < 0 for c in coeffs):
            return None
        projection = base
        for c, d in zip(coeffs, diffs):
            if c:
                projection = projection + d.scale(c)
    else:
        projection = base
    return projection, projection.norm_sq()


def min_norm_point_by_faces(points: Sequence[Vec]) -> tuple[Vec, Fraction]:
    """Nearest point of conv(points) to the origin, by face enumeration.

    Every affinely independent subset of at most n+1 distinct points
    contributes the projection of the origin onto its affine hull whenever
    that projection lies inside the subset's simplex; the closest candidate is
    the answer.  Exponential in the number of points.
    """
    pts = list(dict.fromkeys(points))
    dim = pts[0].dim
    best: tuple[Vec, Fraction] | None = None
    for size in range(1, min(dim + 1, len(pts)) + 1):
        for subset in combinations(pts, size):
            candidate = _project_origin_onto_spanned_face(subset, dim)
            if candidate is None:
                continue
            if best is None or candidate[1] < best[1]:
                best = candidate
    assert best is not None  # singletons always produce candidates
    return best
