"""Error-bound verdicts, stability, certificates, perturbations, distances."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import system_corpus
from hoffman import (
    NO_ERROR_BOUND,
    Certificate,
    InequalitySystem,
    Perturbation,
    Vec,
    check_error_bound,
    check_stability,
    convex_hull_multipliers,
    feasible,
    hoffman_constant_sq,
    max_residual,
    perturb,
    verify_certificate,
    worst_case_system,
)
from oracles import distance_sq_to_polyhedron, perturbation_ratio_sq, stability_by_full_scan

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

PAIR = InequalitySystem.of([[1, 1], [-1, -1]], [0, 0])
TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])
IDENTITY2 = InequalitySystem.of([[1, 0], [0, 1]], [0, 0])
INFEASIBLE = InequalitySystem.of([[1], [-1]], [-1, -1])


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=1, max_value=3))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    offsets = draw(st.lists(rationals, min_size=m, max_size=m))
    return InequalitySystem.of(rows, offsets)


def system_feasible(system):
    ineqs = [(system.A.rows[i], system.b[i]) for i in range(system.m)]
    return feasible((), ineqs, dim=system.n)


# -- error-bound verdicts -----------------------------------------------------------


def test_triangle_has_error_bound_with_sharp_constant():
    verdict = check_error_bound(TRIANGLE)
    assert verdict.has_error_bound
    assert verdict.certificate is None
    assert verdict.sigma_sq == Fraction(1, 2)
    assert verdict.checked_sets == 3  # the three inclusion-maximal pairs


def test_full_scan_agrees_with_maximal_only():
    full = check_error_bound(TRIANGLE, maximal_only=False)
    assert full.has_error_bound
    assert full.sigma_sq == Fraction(1, 2)
    assert full.checked_sets == 6


def test_single_row_error_bound():
    system = InequalitySystem.of([[1, 0]], [0])
    verdict = check_error_bound(system)
    assert verdict.has_error_bound
    assert verdict.sigma_sq == 1


def test_infeasible_system_yields_checkable_certificate():
    verdict = check_error_bound(INFEASIBLE)
    assert not verdict.has_error_bound
    assert verdict.sigma_sq is None
    certificate = verdict.certificate
    assert certificate is not None
    assert certificate.active == (1, 2)
    assert certificate.hull_multipliers.entries == (Fraction(1, 2), Fraction(1, 2))
    assert verify_certificate(INFEASIBLE, certificate)


def test_pair_has_error_bound_despite_opposite_rows():
    verdict = check_error_bound(PAIR)
    assert verdict.has_error_bound
    assert verdict.sigma_sq == 2


@given(small_systems())
@settings(max_examples=40, deadline=None)
def test_error_bound_holds_exactly_when_system_is_feasible(system):
    verdict = check_error_bound(system)
    assert verdict.has_error_bound == system_feasible(system).is_feasible
    if not verdict.has_error_bound:
        assert verify_certificate(system, verdict.certificate)


@given(small_systems())
@settings(max_examples=30, deadline=None)
def test_maximal_shortcut_never_changes_the_verdict(system):
    fast = check_error_bound(system)
    slow = check_error_bound(system, maximal_only=False)
    assert fast.has_error_bound == slow.has_error_bound
    assert fast.sigma_sq == slow.sigma_sq


def test_corpus_verdicts_are_pinned():
    # One digest over the reprs of both verdicts of every corpus system: the
    # certificates, sharp constants, violating sets and lower bounds.
    digest = hashlib.sha256()
    for system in system_corpus():
        digest.update(repr(check_error_bound(system)).encode())
        digest.update(repr(check_stability(system)).encode())
    assert digest.hexdigest() == "a6efabac3edbf032379c6a442e6ae4178ef063cf22bcafc99b6f868e4753e631"


# -- stability ---------------------------------------------------------------------------


def test_triangle_is_stable():
    verdict = check_stability(TRIANGLE)
    assert verdict.stable
    assert verdict.violating_set is None
    assert verdict.lower_bound_sq == Fraction(1, 2)


def test_pair_is_unstable():
    verdict = check_stability(PAIR)
    assert not verdict.stable
    assert verdict.violating_set == (1, 2)
    assert verdict.lower_bound_sq == 0


def test_single_row_is_stable():
    verdict = check_stability(InequalitySystem.of([[1, 0]], [0]))
    assert verdict.stable
    assert verdict.lower_bound_sq == 1


def test_stability_of_system_without_boundary_points():
    # No point attains maximum residual zero, so there is nothing to perturb.
    verdict = check_stability(INFEASIBLE)
    assert verdict.stable
    assert verdict.violating_set is None
    assert verdict.lower_bound_sq is None


# The strip {x1 = 0, x2 <= 0}: its zero-level members {1, 2} and {1, 2, 3}
# both hold the origin on the boundary of their hull.
STRIP = InequalitySystem.of([[1, 0], [-1, 0], [0, 1]], [0, 0, 0])
# A triangle around the origin, through it: its one member is positive.
TRIANGLE_AT_ORIGIN = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [0, 0, 0])


def assert_matches_full_scan(system):
    verdict = check_stability(system)
    assert verdict == stability_by_full_scan(system)  # stable, violating_set and lower_bound_sq
    return verdict


def test_strip_is_unstable_at_its_first_zero_member():
    verdict = assert_matches_full_scan(STRIP)
    assert not verdict.stable
    assert verdict.violating_set == (1, 2)
    assert verdict.lower_bound_sq == 0


def test_triangle_through_the_origin_is_stable_with_its_inradius_as_bound():
    verdict = assert_matches_full_scan(TRIANGLE_AT_ORIGIN)
    assert verdict.stable
    assert verdict.lower_bound_sq == Fraction(1, 2)


def test_extremal_members_match_the_full_scan_on_the_corpus():
    for system in system_corpus():
        assert_matches_full_scan(system)


def test_extremal_members_match_the_full_scan_on_every_subset_of_identity():
    identity = worst_case_system(6)
    for size in range(1, 7):
        for rows in combinations(identity.A.rows, size):
            assert_matches_full_scan(InequalitySystem.of(list(rows), [0] * size))


@st.composite
def homogeneous_systems(draw):
    # b = 0 puts every system's origin on the boundary; small integer rows
    # draw repeated, negated and zero rows often.
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=6))
    pool = st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "repeat", "negate", "zero"])) if rows else "fresh"
        if kind == "fresh":
            rows.append(draw(pool))
        elif kind == "zero":
            rows.append([0] * n)
        else:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else [-x for x in row])
    return InequalitySystem.of(rows, [0] * m)


@given(homogeneous_systems())
@settings(max_examples=150, deadline=None)
def test_extremal_members_match_the_full_scan_on_homogeneous_systems(system):
    assert_matches_full_scan(system)


def test_stable_lower_bound_caps_the_sharp_constant_from_below():
    for system in (TRIANGLE, IDENTITY2):
        stability = check_stability(system)
        assert stability.stable
        sigma_sq = hoffman_constant_sq(system)
        assert sigma_sq >= stability.lower_bound_sq


# -- the sharp constant -------------------------------------------------------------------


def test_constant_for_single_rows_is_the_squared_row_norm():
    assert hoffman_constant_sq(InequalitySystem.of([[3, 4]], [7])) == 25
    assert hoffman_constant_sq(InequalitySystem.of([[3, 4]], [-5])) == 25


def test_constant_for_identity_systems():
    for m in range(1, 5):
        assert hoffman_constant_sq(worst_case_system(m)) == Fraction(1, m)


def test_constant_of_triangle():
    assert hoffman_constant_sq(TRIANGLE) == Fraction(1, 2)


def test_constant_of_infeasible_system():
    assert hoffman_constant_sq(INFEASIBLE) is NO_ERROR_BOUND


def test_constant_undefined_when_nothing_violates():
    # All-zero rows with nonnegative offsets: no point has positive residual.
    assert hoffman_constant_sq(InequalitySystem.of([[0, 0]], [1])) is None
    assert hoffman_constant_sq(InequalitySystem.of([[0, 0]], [0])) is None


def test_zero_row_with_negative_offset_has_no_error_bound():
    assert hoffman_constant_sq(InequalitySystem.of([[0, 0]], [-1])) is NO_ERROR_BOUND


# -- certificates --------------------------------------------------------------------------


def test_hull_multipliers_exist_only_for_enclosing_sets():
    assert convex_hull_multipliers([Vec.of([1, 0]), Vec.of([0, 1])]) is None
    lam = convex_hull_multipliers([Vec.of([1, 1]), Vec.of([-1, -1])])
    assert lam is not None
    assert sum(lam, Fraction(0)) == 1
    assert all(value >= 0 for value in lam)
    combined = Vec.zeros(2)
    for value, row in zip(lam, [Vec.of([1, 1]), Vec.of([-1, -1])]):
        combined = combined + row.scale(value)
    assert combined.is_zero()


def test_hull_multipliers_reject_rows_of_mixed_dimension():
    # the shorter first row once set the width, and (1/2, 1/2) came back
    # for rows that do not combine to zero
    with pytest.raises(ValueError):
        convex_hull_multipliers([Vec.of([1]), Vec.of([-1, 5])])
    with pytest.raises(ValueError):
        convex_hull_multipliers([Vec.of([1, 5]), Vec.of([-1])])
    with pytest.raises(ValueError):
        convex_hull_multipliers([])


def test_hull_multiplier_for_zero_row():
    lam = convex_hull_multipliers([Vec.of([0, 0])])
    assert lam is not None
    assert lam.entries == (1,)


def test_certificate_rejections():
    good = check_error_bound(INFEASIBLE).certificate
    assert verify_certificate(INFEASIBLE, good)

    feasible_point = Certificate(Vec.of([-2]), good.active, good.hull_multipliers)
    assert not verify_certificate(INFEASIBLE, feasible_point)

    wrong_active = Certificate(good.point, (1,), Vec.of([1]))
    assert not verify_certificate(INFEASIBLE, wrong_active)

    bad_combination = Certificate(good.point, good.active, Vec.of([1, 0]))
    assert not verify_certificate(INFEASIBLE, bad_combination)

    bad_sum = Certificate(good.point, good.active, Vec.of([Fraction(1, 4), Fraction(1, 4)]))
    assert not verify_certificate(INFEASIBLE, bad_sum)

    negative_weight = Certificate(good.point, good.active, Vec.of([2, -1]))
    assert not verify_certificate(INFEASIBLE, negative_weight)

    wrong_dims = Certificate(Vec.of([0, 0]), good.active, good.hull_multipliers)
    assert not verify_certificate(INFEASIBLE, wrong_dims)

    out_of_range = Certificate(good.point, (1, 5), good.hull_multipliers)
    assert not verify_certificate(INFEASIBLE, out_of_range)

    # indices are integers: 1.4 and 2.9 are not truncated to (1, 2), nor is True read as 1
    for active in [(1.4, 2.9), (True, 2), (1, 2.0)]:
        assert not verify_certificate(INFEASIBLE, Certificate(good.point, active, good.hull_multipliers))


# -- perturbations -------------------------------------------------------------------------


def test_perturb_tilts_rows_and_offsets():
    tilted = perturb(PAIR, Perturbation(Fraction(1, 10), Vec.of([0, 1]), Vec.zeros(2)))
    assert [row.entries for row in tilted.A.rows] == [
        (1, Fraction(11, 10)),
        (-1, Fraction(-9, 10)),
    ]
    assert tilted.b.entries == (0, 0)


def test_perturb_shifts_offsets_to_keep_the_anchor_on_the_boundary():
    anchor = Vec.of([2, -2])  # max residual of PAIR is zero on the whole line x+y=0
    tilted = perturb(PAIR, Perturbation(Fraction(1, 2), Vec.of([0, 1]), anchor))
    assert max_residual(tilted, anchor) == 0


def test_zero_perturbations_change_nothing():
    assert perturb(PAIR, Perturbation(0, Vec.of([0, 1]), Vec.zeros(2))) == PAIR
    assert perturb(PAIR, Perturbation(Fraction(1, 2), Vec.zeros(2), Vec.zeros(2))) == PAIR


def test_perturb_rejects_anchor_off_the_boundary():
    with pytest.raises(ValueError):
        perturb(PAIR, Perturbation(Fraction(1, 10), Vec.of([0, 1]), Vec.of([1, 1])))
    with pytest.raises(ValueError):
        perturb(TRIANGLE, Perturbation(Fraction(1, 10), Vec.of([0, 1]), Vec.zeros(2)))


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(Fraction(-1, 10), Vec.of([0, 1]), Vec.zeros(2))
    with pytest.raises(ValueError):
        Perturbation(Fraction(1, 10), Vec.of([1, 1]), Vec.zeros(2))  # norm above one
    with pytest.raises(ValueError):
        Perturbation(Fraction(1, 10), Vec.of([1]), Vec.zeros(2))
    with pytest.raises(ValueError):
        perturb(PAIR, Perturbation(Fraction(1, 10), Vec.of([1]), Vec.zeros(1)))


def tilted_pair(eps):
    return perturb(PAIR, Perturbation(eps, Vec.of([0, 1]), Vec.zeros(2)))


def test_ratio_on_tilted_pair_is_half_epsilon_squared():
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1)):
        probe = Vec.of([-eps, eps])
        assert perturbation_ratio_sq(tilted_pair(eps), probe) == eps * eps / 2


def test_ratio_on_single_row():
    system = InequalitySystem.of([[1, 0]], [0])
    assert perturbation_ratio_sq(system, Vec.of([1, 0])) == 1


def test_ratio_requires_a_violating_point():
    with pytest.raises(ValueError):
        perturbation_ratio_sq(PAIR, Vec.zeros(2))


def test_ratio_is_zero_for_empty_solution_sets():
    assert perturbation_ratio_sq(INFEASIBLE, Vec.of([0])) == 0


@given(st.fractions(min_value="1/100", max_value="99/100", max_denominator=100))
@settings(max_examples=40, deadline=None)
def test_tilt_collapses_the_constant_quadratically(eps):
    tilted = tilted_pair(eps)
    probe = Vec.of([-eps, eps])
    ratio_sq = perturbation_ratio_sq(tilted, probe)
    assert ratio_sq == eps * eps / 2
    sigma_sq = hoffman_constant_sq(tilted)
    assert sigma_sq == eps * eps / 2
    assert sigma_sq < eps * eps


@given(small_systems(), st.lists(rationals, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_every_pointwise_ratio_dominates_the_sharp_constant(system, coords):
    assume(len(coords) == system.n)
    x = Vec.of(coords)
    assume(max_residual(system, x) > 0)
    sigma_sq = hoffman_constant_sq(system)
    if sigma_sq is NO_ERROR_BOUND:
        return
    assert sigma_sq is not None  # a violating point exists, so the family is nonempty
    assert perturbation_ratio_sq(system, x) >= sigma_sq


# -- distances ----------------------------------------------------------------------------


def test_distance_zero_inside_the_solution_set():
    assert distance_sq_to_polyhedron(IDENTITY2, Vec.of([-1, -2])) == 0


def test_distance_to_the_negative_quadrant():
    assert distance_sq_to_polyhedron(IDENTITY2, Vec.of([1, 1])) == 2
    assert distance_sq_to_polyhedron(IDENTITY2, Vec.of([1, -5])) == 1


def test_distance_is_none_for_empty_solution_sets():
    assert distance_sq_to_polyhedron(INFEASIBLE, Vec.of([0])) is None


@given(small_systems(), st.lists(rationals, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_distance_agrees_with_feasibility_and_dominated_by_any_feasible_point(system, coords):
    assume(len(coords) == system.n)
    x = Vec.of(coords)
    result = system_feasible(system)
    dist_sq = distance_sq_to_polyhedron(system, x)
    if not result.is_feasible:
        assert dist_sq is None
    else:
        assert dist_sq is not None
        assert dist_sq <= (x - result.point).norm_sq()


# -- stress-case construction ---------------------------------------------------------------


def test_worst_case_system_shape_and_constant():
    system = worst_case_system(3)
    assert system.m == 3 and system.n == 3
    assert hoffman_constant_sq(system) == Fraction(1, 3)


def test_worst_case_system_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        worst_case_system(0)
