"""Sign trichotomy and exact squared magnitude of the worst-direction value."""

import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from corpus import point_corpus
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import min_norm_point_by_faces

from hoffman import (
    LinearProgram,
    LpStatus,
    Trichotomy,
    Vec,
    affine_hull_dim,
    check_stability,
    feasible,
    inradius_at_origin_sq,
    min_norm_point_sq,
    minmax_sign,
    minmax_value_sq,
    solve_lp,
    worst_case_system,
)
from hoffman.convex import _checked_nearest

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

CROSS = [Vec.of([1, 0]), Vec.of([-1, 0]), Vec.of([0, 1]), Vec.of([0, -1])]
SEGMENT = [Vec.of([1, 0]), Vec.of([0, 1])]
ANTIPODAL = [Vec.of([1, 1]), Vec.of([-1, -1])]


@st.composite
def point_sets(draw, max_points=5):
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=max_points))
    return [
        Vec.of(draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(k)
    ]


# -- sign ------------------------------------------------------------------------


def test_sign_negative_for_orthonormal_segment():
    assert minmax_sign(SEGMENT) is Trichotomy.NEGATIVE


def test_sign_zero_for_antipodal_pair():
    assert minmax_sign(ANTIPODAL) is Trichotomy.ZERO


def test_sign_positive_for_cross():
    assert minmax_sign(CROSS) is Trichotomy.POSITIVE


def test_sign_zero_when_origin_is_vertex():
    assert minmax_sign([Vec.of([0, 0]), Vec.of([1, 0])]) is Trichotomy.ZERO


def test_lower_dimensional_set_is_never_positive():
    # Collinear points around the origin span only a line in the plane.
    pts = [Vec.of([-1, 0]), Vec.of([2, 0])]
    assert minmax_sign(pts) is Trichotomy.ZERO


def route_through(monkeypatch, fn, hook):
    """Rebind every name the package's modules hold for `fn` to `hook`."""
    for name, module in list(sys.modules.items()):
        if name == "hoffman" or name.startswith("hoffman."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, hook)


def test_negative_sign_solves_one_lp(monkeypatch):
    programs = []

    def counted(lp):
        programs.append(lp)
        return solve_lp(lp)

    route_through(monkeypatch, solve_lp, counted)
    assert minmax_sign(SEGMENT) is Trichotomy.NEGATIVE
    assert len(programs) == 1  # membership only: no infeasibility certificate


def test_stability_check_never_asks_for_a_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lp.feasible builds a certificate the sign test discards")

    route_through(monkeypatch, feasible, refuse)
    assert check_stability(worst_case_system(4)).stable


def test_sign_rejects_empty_and_mixed_dimension():
    with pytest.raises(ValueError):
        minmax_sign([])
    with pytest.raises(ValueError):
        minmax_sign([Vec.of([1]), Vec.of([1, 2])])


def origin_in_hull(points):
    k = len(points)
    n = points[0].dim
    eqs = [(Vec.of([p[coord] for p in points]), 0) for coord in range(n)]
    eqs.append((Vec.of([1] * k), 1))
    ineqs = [(Vec.unit(k, i), 1) for i in range(k)]
    ineqs += [(Vec.unit(k, i).scale(-1), 0) for i in range(k)]
    return feasible(eqs, ineqs).is_feasible


def origin_in_interior(points):
    """Full-dimensional hull plus strictly positive multipliers, as one LP."""
    k = len(points)
    n = points[0].dim
    if affine_hull_dim(points) != n:
        return False
    width = k + 1
    eqs = [(Vec.of([p[coord] for p in points] + [0]), 0) for coord in range(n)]
    eqs.append((Vec.of([1] * k + [0]), 1))
    ineqs = []
    for i in range(k):
        row = [Fraction(0)] * width
        row[i] = Fraction(-1)
        row[k] = Fraction(1)
        ineqs.append((Vec.of(row), 0))
    out = solve_lp(
        LinearProgram(
            objective=Vec.unit(width, k),
            eq_constraints=tuple(eqs),
            ineq_constraints=tuple(ineqs),
        )
    )
    return out.status is LpStatus.OPTIMAL and out.optimal_value > 0


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_trichotomy_matches_independent_lp_classification(pts):
    sign = minmax_sign(pts)
    inside = origin_in_hull(pts)
    interior = origin_in_interior(pts)
    if not inside:
        assert sign is Trichotomy.NEGATIVE
    elif interior:
        assert sign is Trichotomy.POSITIVE
    else:
        assert sign is Trichotomy.ZERO


# -- nearest point of the hull ------------------------------------------------------


def test_min_norm_point_of_segment():
    point, dist_sq = min_norm_point_sq(SEGMENT)
    assert point.entries == (Fraction(1, 2), Fraction(1, 2))
    assert dist_sq == Fraction(1, 2)


def test_min_norm_point_of_singleton():
    point, dist_sq = min_norm_point_sq([Vec.of([2, 0])])
    assert point.entries == (2, 0)
    assert dist_sq == 4


def test_min_norm_point_through_origin():
    point, dist_sq = min_norm_point_sq(ANTIPODAL)
    assert point.is_zero()
    assert dist_sq == 0


def test_min_norm_point_ignores_duplicates():
    point, dist_sq = min_norm_point_sq(SEGMENT + SEGMENT)
    assert dist_sq == Fraction(1, 2)
    assert point.entries == (Fraction(1, 2), Fraction(1, 2))


@st.composite
def point_sets_with_repeats(draw):
    """point_sets() plus repeated points and, sometimes, a point's mirror
    image, which puts the origin in the hull."""
    pts = draw(point_sets())
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.booleans()):
        pts.append(-draw(st.sampled_from(pts)))
    return pts


def assert_matches_face_enumeration(pts):
    point, dist_sq = min_norm_point_sq(pts)
    assert (point, dist_sq) == min_norm_point_by_faces(pts)


def test_min_norm_point_matches_face_enumeration_on_the_point_corpus():
    for pts in point_corpus():
        assert_matches_face_enumeration(pts)


def test_min_norm_point_matches_face_enumeration_on_identity_row_subsets():
    rows = worst_case_system(6).A.rows
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            assert_matches_face_enumeration(subset)


@given(point_sets_with_repeats())
@settings(max_examples=100, deadline=None)
def test_min_norm_point_matches_face_enumeration(pts):
    assert_matches_face_enumeration(pts)


def test_nearest_point_check_rejects_wrong_answers():
    with pytest.raises(RuntimeError):
        _checked_nearest(SEGMENT, SEGMENT[:1], [Fraction(1)])  # a vertex, not the nearest point
    with pytest.raises(RuntimeError):
        _checked_nearest(SEGMENT, SEGMENT, [Fraction(3, 2), Fraction(-1, 2)])  # outside the hull


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_min_norm_point_is_a_convex_combination_and_dominates(pts):
    point, dist_sq = min_norm_point_sq(pts)
    assert point.norm_sq() == dist_sq
    assert origin_in_hull([p - point for p in pts])  # point lies in the hull
    # Optimality: the nearest point supports the hull from the origin's side.
    for p in pts:
        assert p.dot(point) >= dist_sq


# -- inradius at the origin -----------------------------------------------------------


def test_inradius_of_cross():
    assert inradius_at_origin_sq(CROSS) == Fraction(1, 2)


def test_inradius_scales_quadratically():
    scaled = [p.scale(3) for p in CROSS]
    assert inradius_at_origin_sq(scaled) == Fraction(9, 2)


def test_inradius_of_square():
    square = [Vec.of([1, 1]), Vec.of([1, -1]), Vec.of([-1, 1]), Vec.of([-1, -1])]
    assert inradius_at_origin_sq(square) == 1


def test_inradius_requires_interior_origin():
    with pytest.raises(ValueError):
        inradius_at_origin_sq(SEGMENT)
    with pytest.raises(ValueError):
        inradius_at_origin_sq(ANTIPODAL)


def test_inradius_in_one_dimension():
    assert inradius_at_origin_sq([Vec.of([2]), Vec.of([-1])]) == 1


# -- combined value --------------------------------------------------------------------


def test_value_on_first_and_second_row_pair():
    mv = minmax_value_sq([Vec.of([1, 1]), Vec.of([-2, 1])])
    assert mv.sign is Trichotomy.NEGATIVE
    assert mv.value_sq == 1


def test_value_on_second_and_third_row_pair():
    mv = minmax_value_sq([Vec.of([-2, 1]), Vec.of([1, -2])])
    assert mv.sign is Trichotomy.NEGATIVE
    assert mv.value_sq == Fraction(1, 2)


def test_value_on_antipodal_pair():
    mv = minmax_value_sq(ANTIPODAL)
    assert mv.sign is Trichotomy.ZERO
    assert mv.value_sq == 0


def test_value_on_singleton():
    mv = minmax_value_sq([Vec.of([3, 0])])
    assert mv.sign is Trichotomy.NEGATIVE
    assert mv.value_sq == 9


def test_value_on_cross():
    mv = minmax_value_sq(CROSS)
    assert mv.sign is Trichotomy.POSITIVE
    assert mv.value_sq == Fraction(1, 2)


def test_approx_annotation_signs():
    assert minmax_value_sq(CROSS).approx() == pytest.approx(math.sqrt(0.5))
    assert minmax_value_sq(SEGMENT).approx() == pytest.approx(-math.sqrt(0.5))
    assert minmax_value_sq(ANTIPODAL).approx() == 0.0


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_value_sq_vanishes_exactly_on_zero_sign(pts):
    mv = minmax_value_sq(pts)
    assert (mv.value_sq == 0) == (mv.sign is Trichotomy.ZERO)
    assert mv.value_sq >= 0


@given(point_sets(), st.fractions(min_value="1/4", max_value=3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_scaling_law(pts, c):
    base = minmax_value_sq(pts)
    scaled = minmax_value_sq([p.scale(c) for p in pts])
    assert scaled.sign is base.sign
    assert scaled.value_sq == c * c * base.value_sq


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_negative_case_witness_direction(pts):
    mv = minmax_value_sq(pts)
    if mv.sign is Trichotomy.NEGATIVE:
        point, _ = min_norm_point_sq(pts)
        witness = -point  # unnormalized: only the sign of the maximum matters
        assert max(p.dot(witness) for p in pts) < 0
