"""Sign trichotomy and exact squared magnitude of the worst-direction value."""

import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from corpus import point_corpus, system_corpus
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import fraction_min_norm_point_sq, inradius_by_supporting_halfspaces, min_norm_point_by_faces

from hoffman import (
    LinearProgram,
    LpStatus,
    Trichotomy,
    Vec,
    affine_hull_dim,
    check_error_bound,
    check_stability,
    feasible,
    inradius_at_origin_sq,
    min_norm_point_sq,
    minmax_sign,
    minmax_value_sq,
    solve_lp,
    worst_case_system,
)
from hoffman.convex import _checked_nearest, _relative_interior_margin
from hoffman.lp import solve_integer_lp

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

CROSS = [Vec.of([1, 0]), Vec.of([-1, 0]), Vec.of([0, 1]), Vec.of([0, -1])]
SEGMENT = [Vec.of([1, 0]), Vec.of([0, 1])]
ANTIPODAL = [Vec.of([1, 1]), Vec.of([-1, -1])]


@st.composite
def point_sets(draw, max_points=5, scalars=rationals):
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=max_points))
    return [
        Vec.of(draw(st.lists(scalars, min_size=n, max_size=n))) for _ in range(k)
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


def count_programs(monkeypatch):
    """Route every linear program the package solves through a counter: each
    one reaches `lp.solve_integer_lp`, from `solve_lp` or from the margin
    program of `realizability`, which no longer builds a `LinearProgram`."""
    programs = []

    def counted(*args):
        programs.append(args)
        return solve_integer_lp(*args)

    route_through(monkeypatch, solve_integer_lp, counted)
    return programs


def test_negative_sign_solves_one_lp(monkeypatch):
    programs = count_programs(monkeypatch)
    assert minmax_sign(SEGMENT) is Trichotomy.NEGATIVE
    assert len(programs) == 1  # the margin program only: no infeasibility certificate


def test_stability_check_never_asks_for_a_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lp.feasible builds a certificate the sign test discards")

    route_through(monkeypatch, feasible, refuse)
    assert check_stability(worst_case_system(4)).stable


def test_error_bound_check_never_asks_for_a_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lp.feasible builds a Farkas certificate that check_error_bound discards")

    route_through(monkeypatch, feasible, refuse)
    verdicts = [check_error_bound(system) for system in system_corpus()]
    assert any(not verdict.has_error_bound for verdict in verdicts)


def test_sign_solves_one_lp_per_call(monkeypatch):
    programs = count_programs(monkeypatch)
    for calls, pts in enumerate(point_corpus(), start=1):
        minmax_sign(pts)
        assert len(programs) == calls


def test_value_of_a_set_off_the_origin_solves_no_lp(monkeypatch):
    programs = count_programs(monkeypatch)
    assert minmax_value_sq(SEGMENT).sign is Trichotomy.NEGATIVE
    assert programs == []


@pytest.mark.parametrize("m", range(1, 9))
def test_stability_of_identity_runs_wolfe_once_and_asks_no_sign(monkeypatch, m):
    # Every member is a subset of the full set, whose hull stays off the
    # origin: one value decides them all, and the margin program never runs.
    calls = {"min_norm_point_sq": 0, "minmax_value_sq": 0, "minmax_sign": 0}

    def counting(fn):
        def counted(points):
            calls[fn.__name__] += 1
            return fn(points)

        return counted

    for fn in (min_norm_point_sq, minmax_value_sq, minmax_sign):
        route_through(monkeypatch, fn, counting(fn))
    assert check_stability(worst_case_system(m)).stable
    assert calls == {"min_norm_point_sq": 1, "minmax_value_sq": 1, "minmax_sign": 0}


def test_stability_of_identity_solves_one_lp_per_zero_level_set(monkeypatch):
    # 15 realizability programs for the 2^4 - 1 subsets, and no sign program:
    # every hull of unit vectors stays off the origin.
    programs = count_programs(monkeypatch)
    assert check_stability(worst_case_system(4)).stable
    assert len(programs) == 15


# Two points on a line through the origin, both on one side of it: the origin
# is in the affine hull, but outside the convex hull, at margin -1.
OFF_SEGMENT_1D = [Vec.of([1]), Vec.of([2])]
OFF_SEGMENT_2D = [Vec.of([1, 0]), Vec.of([2, 0])]


@pytest.mark.parametrize("pts", [OFF_SEGMENT_1D, OFF_SEGMENT_2D], ids=["1d", "2d"])
def test_negative_margin_is_a_negative_sign(pts):
    assert _relative_interior_margin(pts) == -1
    assert minmax_sign(pts) is Trichotomy.NEGATIVE
    value = minmax_value_sq(pts)
    assert value.sign is Trichotomy.NEGATIVE
    assert value.value_sq == 1


def test_margin_is_none_off_the_affine_hull():
    assert _relative_interior_margin(SEGMENT) is None


def assert_value_sign_is_the_sign(pts):
    assert minmax_value_sq(pts).sign is minmax_sign(pts)


def test_value_sign_is_the_sign_on_the_point_corpus():
    for pts in point_corpus():
        assert_value_sign_is_the_sign(pts)


def test_value_sign_is_the_sign_on_identity_row_subsets():
    rows = worst_case_system(6).A.rows
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            assert_value_sign_is_the_sign(subset)


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
def point_sets_with_repeats(draw, scalars=rationals):
    """point_sets() plus repeated points and, sometimes, a point's mirror
    image, which puts the origin in the hull."""
    pts = draw(point_sets(scalars=scalars))
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


@given(point_sets_with_repeats())
@settings(max_examples=100, deadline=None)
def test_value_sign_is_the_sign(pts):
    assert_value_sign_is_the_sign(pts)


def assert_matches_fraction_wolfe(pts):
    point, dist_sq = min_norm_point_sq(pts)
    assert (point, dist_sq) == fraction_min_norm_point_sq(pts)
    assert all(type(x) is Fraction for x in point.entries + (dist_sq,))


def test_min_norm_point_matches_fraction_wolfe_on_the_corpora():
    for pts in point_corpus():
        assert_matches_fraction_wolfe(pts)
    rows = worst_case_system(6).A.rows
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            assert_matches_fraction_wolfe(subset)
    for system in system_corpus():
        rows = system.A.rows
        for size in range(1, len(rows) + 1):
            for subset in combinations(rows, size):
                assert_matches_fraction_wolfe(subset)


@given(point_sets_with_repeats())
@settings(max_examples=100, deadline=None)
def test_min_norm_point_matches_fraction_wolfe(pts):
    assert_matches_fraction_wolfe(pts)


# Numerators up to 10**40 over denominators up to 12: the integer Gram matrix
# scales by the lcm of every denominator in the set.
wide_rationals = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 12))


@given(point_sets_with_repeats(scalars=wide_rationals))
@settings(max_examples=100, deadline=None)
def test_min_norm_point_matches_fraction_wolfe_on_wide_entries(pts):
    assert_matches_fraction_wolfe(pts)


def test_nearest_point_check_rejects_wrong_answers():
    segment = [[1, 0], [0, 1]]  # SEGMENT, already integer
    assert _checked_nearest(segment, segment, [1, 1], 2) == ([1, 1], 2)
    with pytest.raises(RuntimeError, match="optimality check"):
        _checked_nearest(segment, segment[:1], [1], 1)  # a vertex, not the nearest point
    with pytest.raises(RuntimeError, match="not convex"):
        _checked_nearest(segment, segment, [3, -1], 2)  # outside the hull
    with pytest.raises(RuntimeError, match="not convex"):
        _checked_nearest(segment, segment, [1, 1], 3)  # weights that do not sum to den


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


@st.composite
def interior_point_sets(draw):
    """Point sets whose hull holds the origin in its interior: n to 4 points,
    their negatives and extra points, with repeated points and multiples of
    a point, which lie on a line through the origin."""
    n = draw(st.integers(min_value=1, max_value=3))
    vectors = st.lists(rationals, min_size=n, max_size=n).map(Vec.of)
    base = draw(st.lists(vectors, min_size=n, max_size=4))
    pts = base + [-p for p in base] + draw(st.lists(vectors, max_size=3))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pts.append(draw(st.sampled_from(pts)).scale(draw(rationals)))
    assume(minmax_sign(pts) is Trichotomy.POSITIVE)
    return pts


@given(interior_point_sets())
@settings(max_examples=200, deadline=None)
def test_inradius_matches_the_supporting_halfspace_search(pts):
    assert inradius_at_origin_sq(pts) == inradius_by_supporting_halfspaces(pts)


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


def test_approx_annotation_past_float_range():
    big = 10**200
    assert minmax_value_sq([Vec.of([big])]).approx() == -1e200
    assert minmax_value_sq([Vec.of([big]), Vec.of([-big])]).approx() == 1e200
    assert minmax_value_sq([Vec.of([big * big]), Vec.of([-big * big])]).approx() is None


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
