"""Exact linear programming: verdicts, witnesses, duality, Farkas certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_solve_lp
from scipy.optimize import linprog

from hoffman import (
    LinearProgram,
    LpOutcome,
    LpStatus,
    Vec,
    feasible,
    solve_lp,
)
from hoffman.lp import solve_integer_lp
from hoffman.rational import integer_row

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def lp_1d(objective, ineqs, lower=None):
    if lower is not None:
        ineqs = [*ineqs, (-1, -lower)]  # x >= lower
    return LinearProgram(
        objective=Vec.of([objective]),
        ineq_constraints=tuple((Vec.of([c]), b) for c, b in ineqs),
    )


# -- basic verdicts --------------------------------------------------------------


def test_bounded_maximum():
    out = solve_lp(lp_1d(1, [(1, 1)], lower=0))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 1
    assert out.witness.entries == (1,)


def test_infeasible_bounds():
    out = solve_lp(lp_1d(1, [(1, -1)], lower=0))
    assert out.status is LpStatus.INFEASIBLE
    assert out.optimal_value is None and out.witness is None


def test_unbounded_above():
    out = solve_lp(lp_1d(1, [], lower=0))
    assert out.status is LpStatus.UNBOUNDED
    assert out.witness is not None
    assert out.witness[0] > 0  # improving ray


def test_unbounded_ray_respects_constraints():
    # max x + y subject to x - y <= 0: ray must satisfy c.r > 0 and A.r <= 0.
    lp = LinearProgram(
        objective=Vec.of([1, 1]),
        ineq_constraints=((Vec.of([1, -1]), 0),),
    )
    out = solve_lp(lp)
    assert out.status is LpStatus.UNBOUNDED
    ray = out.witness
    assert Vec.of([1, 1]).dot(ray) > 0
    assert Vec.of([1, -1]).dot(ray) <= 0
    # max x + 2y subject to -x <= 0, x - y <= 3: no equalities, no optimum.
    lp = LinearProgram(
        objective=Vec.of([1, 2]),
        ineq_constraints=((Vec.of([-1, 0]), 0), (Vec.of([1, -1]), 3)),
    )
    out = solve_lp(lp)
    assert out.status is LpStatus.UNBOUNDED
    assert out.witness.entries == (1, 1)


def test_equalities_are_eliminated_exactly():
    # max x + 2y on the line x + y = 1 with y <= 3/4.
    lp = LinearProgram(
        objective=Vec.of([1, 2]),
        eq_constraints=((Vec.of([1, 1]), 1),),
        ineq_constraints=((Vec.of([0, 1]), Fraction(3, 4)),),
    )
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == Fraction(7, 4)
    assert out.witness.entries == (Fraction(1, 4), Fraction(3, 4))


def test_inconsistent_equalities_are_infeasible():
    lp = LinearProgram(
        objective=Vec.of([1, 0]),
        eq_constraints=((Vec.of([1, 1]), 0), (Vec.of([1, 1]), 1)),
    )
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_pinned_equalities_without_freedom():
    lp = LinearProgram(
        objective=Vec.of([5, -1]),
        eq_constraints=((Vec.of([1, 0]), 2), (Vec.of([0, 1]), -3)),
    )
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.witness.entries == (2, -3)
    assert out.optimal_value == 13


def test_pinned_equalities_violating_inequalities():
    lp = LinearProgram(
        objective=Vec.of([0, 0]),
        eq_constraints=((Vec.of([1, 0]), 2), (Vec.of([0, 1]), -3)),
        ineq_constraints=((Vec.of([1, 0]), 1),),
    )
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_unbounded_through_equality_elimination():
    # max x subject to x - y = 0: improving ray along (1, 1).
    lp = LinearProgram(objective=Vec.of([1, 0]), eq_constraints=((Vec.of([1, -1]), 0),))
    out = solve_lp(lp)
    assert out.status is LpStatus.UNBOUNDED
    ray = out.witness
    assert Vec.of([1, -1]).dot(ray) == 0
    assert ray[0] > 0


def test_vacuous_zero_rows():
    lp = LinearProgram(
        objective=Vec.of([1]),
        ineq_constraints=((Vec.of([0]), 5), (Vec.of([1]), 2)),
    )
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL and out.optimal_value == 2


def test_zero_row_with_negative_bound_is_infeasible():
    lp = LinearProgram(objective=Vec.of([1]), ineq_constraints=((Vec.of([0]), -1),))
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_constraint_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearProgram(objective=Vec.of([1]), ineq_constraints=((Vec.of([1, 2]), 0),))


# -- feasibility and Farkas certificates -------------------------------------------


def hull_system(points):
    """The convex-multiplier system for the origin over the given points."""
    k = len(points)
    n = points[0].dim
    eqs = [(Vec.of([p[coord] for p in points]), 0) for coord in range(n)]
    eqs.append((Vec.of([1] * k), 1))
    ineqs = [(Vec.unit(k, i), 1) for i in range(k)]
    ineqs += [(Vec.unit(k, i).scale(-1), 0) for i in range(k)]
    return eqs, ineqs


def test_origin_outside_orthonormal_segment():
    eqs, ineqs = hull_system([Vec.of([1, 0]), Vec.of([0, 1])])
    result = feasible(eqs, ineqs)
    assert not result.is_feasible
    assert result.certificate is not None


def test_origin_inside_symmetric_pair():
    eqs, ineqs = hull_system([Vec.of([1, 0]), Vec.of([-1, 0])])
    result = feasible(eqs, ineqs)
    assert result.is_feasible
    lam = result.point
    assert sum(lam, Fraction(0)) == 1
    assert lam[0] - lam[1] == 0  # the combination cancels
    assert all(0 <= v <= 1 for v in lam)


def test_feasible_wedge_system():
    ineqs = [(Vec.of([1, 1]), 0), (Vec.of([-1, -1]), 0)]
    result = feasible((), ineqs)
    assert result.is_feasible
    x = result.point
    assert Vec.of([1, 1]).dot(x) <= 0 and Vec.of([-1, -1]).dot(x) <= 0
    assert x.entries == (0, 0)


def test_feasible_empty_system_needs_dimension():
    with pytest.raises(ValueError):
        feasible((), ())
    assert feasible((), (), dim=2).is_feasible


def check_farkas(eqs, ineqs, certificate):
    """Substitution check: combined rows vanish, combined bound is negative."""
    n = (eqs + ineqs)[0][0].dim
    combined = Vec.zeros(n)
    bound = Fraction(0)
    if certificate.eq_multipliers is not None:
        for y, (vec, beta) in zip(certificate.eq_multipliers, eqs):
            combined = combined + vec.scale(y)
            bound += y * beta
    if certificate.ineq_multipliers is not None:
        for y, (vec, beta) in zip(certificate.ineq_multipliers, ineqs):
            assert y >= 0
            combined = combined + vec.scale(y)
            bound += y * beta
    assert combined.is_zero()
    assert bound < 0


def test_farkas_certificate_for_crossing_halflines():
    ineqs = [(Vec.of([1]), -1), (Vec.of([-1]), -1)]
    result = feasible((), ineqs)
    assert not result.is_feasible
    check_farkas([], ineqs, result.certificate)
    assert result.certificate.ineq_multipliers.entries == (Fraction(1, 2), Fraction(1, 2))


def test_farkas_certificate_with_equalities():
    eqs = [(Vec.of([1, 1]), 2)]
    ineqs = [(Vec.of([1, 0]), 0), (Vec.of([0, 1]), 0)]
    result = feasible(eqs, ineqs)
    assert not result.is_feasible
    check_farkas(eqs, ineqs, result.certificate)
    assert result.certificate.eq_multipliers.entries == (Fraction(-1, 2),)
    assert result.certificate.ineq_multipliers.entries == (Fraction(1, 2), Fraction(1, 2))


@st.composite
def random_ineq_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [
        Vec.of(draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(m)
    ]
    bounds = draw(st.lists(rationals, min_size=m, max_size=m))
    return list(zip(rows, bounds))


@given(random_ineq_systems())
@settings(max_examples=60, deadline=None)
def test_feasibility_always_produces_checkable_evidence(ineqs):
    result = feasible((), ineqs)
    if result.is_feasible:
        x = result.point
        assert all(vec.dot(x) <= bound for vec, bound in ineqs)
    else:
        check_farkas([], ineqs, result.certificate)


# -- optimal witnesses and duality ---------------------------------------------------


@st.composite
def random_lps(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    objective = Vec.of(draw(st.lists(rationals, min_size=n, max_size=n)))
    rows = [
        Vec.of(draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(m)
    ]
    bounds = draw(st.lists(rationals, min_size=m, max_size=m))
    return LinearProgram(objective=objective, ineq_constraints=tuple(zip(rows, bounds)))


@given(random_lps())
@settings(max_examples=60, deadline=None)
def test_optimal_witness_is_feasible_and_value_matches(lp):
    out = solve_lp(lp)
    if out.status is LpStatus.OPTIMAL:
        assert all(vec.dot(out.witness) <= bound for vec, bound in lp.ineq_constraints)
        assert lp.objective.dot(out.witness) == out.optimal_value


@given(random_lps())
@settings(max_examples=60, deadline=None)
def test_unbounded_ray_is_improving_and_recession(lp):
    out = solve_lp(lp)
    if out.status is LpStatus.UNBOUNDED:
        ray = out.witness
        assert lp.objective.dot(ray) > 0
        assert all(vec.dot(ray) <= 0 for vec, _ in lp.ineq_constraints)


@given(random_lps())
@settings(max_examples=40, deadline=None)
def test_strong_duality_on_random_programs(lp):
    """max c.x s.t. Ax <= b equals min b.y s.t. A^T y = c, y >= 0, exactly."""
    out = solve_lp(lp)
    if out.status is not LpStatus.OPTIMAL:
        return
    m = len(lp.ineq_constraints)
    n = lp.n
    dual_eqs = tuple(
        (Vec.of([vec[coord] for vec, _ in lp.ineq_constraints]), lp.objective[coord])
        for coord in range(n)
    )
    dual = LinearProgram(
        objective=Vec.of([-bound for _, bound in lp.ineq_constraints]),
        eq_constraints=dual_eqs,
        ineq_constraints=tuple((Vec.unit(m, j).scale(-1), 0) for j in range(m)),  # y >= 0
    )
    dual_out = solve_lp(dual)
    assert dual_out.status is LpStatus.OPTIMAL
    assert -dual_out.optimal_value == out.optimal_value


@given(random_lps())
@settings(max_examples=40, deadline=None)
def test_verdicts_agree_with_float_solver(lp):
    """Status and value cross-check against an independent floating solver."""
    c = [-float(v) for v in lp.objective]  # linprog minimizes
    a_ub = [[float(v) for v in vec] for vec, _ in lp.ineq_constraints]
    b_ub = [float(b) for _, b in lp.ineq_constraints]
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * lp.n, method="highs")
    out = solve_lp(lp)
    if out.status is LpStatus.OPTIMAL:
        assert ref.status == 0
        assert abs(-ref.fun - float(out.optimal_value)) < 1e-7
    elif out.status is LpStatus.INFEASIBLE:
        assert ref.status == 2
    else:
        assert ref.status == 3


def test_determinism_for_fixed_input():
    lp = LinearProgram(
        objective=Vec.of([1, 1, 1]),
        ineq_constraints=(
            (Vec.of([1, 1, 0]), 2),
            (Vec.of([0, 1, 1]), 2),
            (Vec.of([1, 0, 1]), 2),
            (Vec.of([-1, 0, 0]), 0),
            (Vec.of([0, -1, 0]), 0),
            (Vec.of([0, 0, -1]), 0),
        ),
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first == second
    assert first.optimal_value == 3


# -- the integer tableau against the Fraction tableau ----------------------------


def _lp(objective, eqs=(), ineqs=()):
    return LinearProgram(
        objective=Vec.of(objective),
        eq_constraints=tuple((Vec.of(c), b) for c, b in eqs),
        ineq_constraints=tuple((Vec.of(c), b) for c, b in ineqs),
    )


FIXED_POINT_EQS = [([1, 1], 1), ([1, -1], "1/3")]

ORACLE_CASES = {
    # 2x + 3y - z = 1/2 has the kernel (-3/2, 1, 0), (1/2, 0, 1)
    "fractional-kernel-optimal": (
        _lp([1, "1/3", 1], [([2, 3, -1], "1/2")],
            [([1, 0, 0], 1), ([0, 1, 0], 1), ([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, 1], "5/3")]),
        LpStatus.OPTIMAL,
    ),
    "fractional-kernel-ray": (
        _lp([-1, 0, 0], [([2, 3, 0], 0)], [([0, 0, 1], 1)]),
        LpStatus.UNBOUNDED,
    ),
    "slack-entering-ray": (
        _lp([1, 1], [], [([1, -1], 0), (["1/2", "-1/3"], "1/5")]),
        LpStatus.UNBOUNDED,
    ),
    "phase-one-optimal": (
        _lp([-1, -2], [], [([-1, -1], -1), ([1, 0], 3), ([0, 1], "2/3"), (["-1/2", 1], "-1/4")]),
        LpStatus.OPTIMAL,
    ),
    "phase-one-infeasible": (
        _lp([1, 0], [], [([-1, -1], -3), ([1, 0], 1), ([0, 1], 1)]),
        LpStatus.INFEASIBLE,
    ),
    "zero-rows": (
        _lp([1, 1], [], [([0, 0], 1), ([1, 0], 2), ([0, 0], 0), ([0, 1], "3/2")]),
        LpStatus.OPTIMAL,
    ),
    "zero-row-negative-bound": (
        _lp([1], [], [([0], "-1/2"), ([1], 1)]),
        LpStatus.INFEASIBLE,
    ),
    # every row vanishes on the kernel (-3/2, 1), so the unscaled cost is the ray
    "no-row-left-ray": (
        _lp([1, 1], [([2, 3], 1)], [([2, 3], 4)]),
        LpStatus.UNBOUNDED,
    ),
    "no-row-left-zero-cost": (
        _lp([2, 3], [([2, 3], 1)], [([4, 6], 4)]),
        LpStatus.OPTIMAL,
    ),
    "degenerate-ties": (
        _lp([1, 1], [], [([2, 0], 2), ([1, 0], 1), ([3, 3], 3), ([1, -1], 1),
                         (["1/2", "1/2"], "1/2"), ([-1, 0], 0)]),
        LpStatus.OPTIMAL,
    ),
    # the ray enters the slack of a row scaled by 5
    "slack-scale-ray": (
        _lp(["4/3"], [], [(["-2/5"], "-2/5")]),
        LpStatus.UNBOUNDED,
    ),
    "slack-scale-ray-after-phase-one": (
        _lp([0, 5], [], [(["3/5", "-5/3"], 0), ([-1, 0], "-3/2")]),
        LpStatus.UNBOUNDED,
    ),
    # the artificial of the second row stays basic at zero and leaves on a
    # negative pivot
    "negative-drive-out-pivot": (
        _lp([-1], [], [(["1/4"], "1/4"), ([-2], -2)]),
        LpStatus.OPTIMAL,
    ),
    # both phase-one rows tie in the ratio test
    "ratio-tie-break": (
        _lp([-1], [], [(["2/3"], "-8/3"), ([1], -4)]),
        LpStatus.UNBOUNDED,
    ),
    "degenerate-phase-one": (
        _lp([1, 0, -1], [([1, 1, 1], 1)],
            [([-1, 0, 0], -1), ([0, -1, 0], 0), ([0, 0, -1], 0), ([-2, 0, 0], -2)]),
        LpStatus.OPTIMAL,
    ),
    # x + y = 1 and x - y = 1/3 fix the point (2/3, 1/3), so the kernel is
    # empty and every inequality is a vacuous row; the last one is tight
    "fixed-point-optimal": (
        _lp([1, "1/2"], FIXED_POINT_EQS, [([1, 0], 1), ([0, -1], 0), ([1, 1], 1)]),
        LpStatus.OPTIMAL,
    ),
    "fixed-point-infeasible": (
        _lp([1, "1/2"], FIXED_POINT_EQS, [([1, 0], 1), ([0, 3], "3/4")]),
        LpStatus.INFEASIBLE,
    ),
    "fixed-point-no-inequalities": (
        _lp([1, "1/2"], FIXED_POINT_EQS),
        LpStatus.OPTIMAL,
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_integer_tableau_matches_fraction_tableau_on_named_programs(name):
    lp, status = ORACLE_CASES[name]
    out = solve_lp(lp)
    assert out.status is status
    assert out == fraction_solve_lp(lp)


@st.composite
def oracle_lps(draw):
    """Programs that reach every branch of the tableau: equality blocks with
    fractional kernels (consistent or not), negative bounds, all-zero rows,
    rows that vanish on the kernel, and repeated or rescaled rows whose
    ratios tie."""
    n = draw(st.integers(min_value=1, max_value=4))
    vectors = st.lists(rationals, min_size=n, max_size=n).map(Vec.of)
    eq_rows = draw(st.lists(vectors, max_size=3))
    if draw(st.booleans()):
        anchor = draw(vectors)
        eqs = [(row, row.dot(anchor)) for row in eq_rows]
    else:
        eqs = [(row, draw(rationals)) for row in eq_rows]
    ineqs = draw(st.lists(st.tuples(vectors, rationals), max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["zero", "repeat", "eq-multiple"]))
        if kind == "zero":
            ineqs.append((Vec.zeros(n), draw(rationals)))
        elif kind == "repeat" and ineqs:
            coeffs, bound = draw(st.sampled_from(ineqs))
            factor = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
            ineqs.append((coeffs.scale(factor), bound * factor))
        elif kind == "eq-multiple" and eqs:
            coeffs, bound = draw(st.sampled_from(eqs))
            ineqs.append((coeffs.scale(draw(st.sampled_from([-1, 2]))), draw(rationals)))
    objective = draw(st.one_of(vectors, st.just(Vec.zeros(n))))
    return LinearProgram(objective=objective, eq_constraints=tuple(eqs), ineq_constraints=tuple(ineqs))


@given(oracle_lps())
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_fraction_tableau(lp):
    # Bit-identical: status, optimal value, and the witness point or ray.
    assert solve_lp(lp) == fraction_solve_lp(lp)


# -- the integer core on rows scaled by the caller -----------------------------------


def solve_scaled(lp, eq_factors=(), ineq_factors=(), cost_factor=1):
    """`solve_integer_lp` on the rows of `lp` scaled as a caller may scale
    them: each equality row by any nonzero integer, each inequality row and
    the objective by a positive one, which multiplies its scale."""
    eq_factors = [*eq_factors, *[1] * len(lp.eq_constraints)]
    ineq_factors = [*ineq_factors, *[1] * len(lp.ineq_constraints)]
    eqs = [
        [f * v for v in integer_row((*vec, b))[0]] for (vec, b), f in zip(lp.eq_constraints, eq_factors)
    ]
    ineqs = []
    for (vec, b), f in zip(lp.ineq_constraints, ineq_factors):
        ints, scale = integer_row((*vec, b))
        ineqs.append(([f * v for v in ints], f * scale))
    ints, scale = integer_row(lp.objective)
    status, witness = solve_integer_lp(([cost_factor * v for v in ints], cost_factor * scale), eqs, ineqs, lp.n)
    if witness is None:
        return LpOutcome(status)
    point = Vec.of(witness)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(status, None, point)
    return LpOutcome(status, lp.objective.dot(point), point)


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_integer_core_matches_fraction_tableau_on_named_programs(name):
    lp, status = ORACLE_CASES[name]
    expected = fraction_solve_lp(lp)
    assert expected.status is status
    assert solve_scaled(lp) == expected
    assert solve_scaled(lp, [-2, 3, -1], [6, 1, 4, 2, 5, 3], 10) == expected


@st.composite
def equality_blocked_lps(draw):
    """Programs whose equality block is redundant (a row repeated, rescaled,
    or the sum of two others), inconsistent (such a row with its bound
    moved), or fixes the point (a triangular block with a nonzero diagonal),
    with few enough inequalities that many programs are unbounded; plus the
    factors that scale each row."""
    n = draw(st.integers(min_value=1, max_value=4))
    vectors = st.lists(rationals, min_size=n, max_size=n).map(Vec.of)
    anchor = draw(vectors)
    kind = draw(st.sampled_from(["redundant", "inconsistent", "fixes-point", "free"]))
    if kind == "fixes-point":
        nonzero = rationals.filter(bool)
        rows = [
            Vec.of([draw(nonzero) if j == i else (draw(rationals) if j > i else 0) for j in range(n)])
            for i in range(n)
        ]
    else:
        rows = draw(st.lists(vectors, max_size=3))
    eqs = [(row, row.dot(anchor)) for row in rows]
    if kind in ("redundant", "inconsistent") and eqs:
        (first, b1), (second, b2) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        factor = draw(st.sampled_from([1, -1, Fraction(2, 3)]))
        extra = (first.scale(factor) + second, b1 * factor + b2)
        if kind == "inconsistent":
            extra = (extra[0], extra[1] + draw(rationals.filter(bool)))
        eqs.insert(draw(st.integers(min_value=0, max_value=len(eqs))), extra)
    ineqs = draw(st.lists(st.tuples(vectors, rationals), max_size=3))
    objective = draw(st.one_of(vectors, st.just(Vec.zeros(n))))
    lp = LinearProgram(objective=objective, eq_constraints=tuple(eqs), ineq_constraints=tuple(ineqs))
    eq_factors = draw(st.lists(st.sampled_from([-3, -1, 1, 2, 6]), min_size=len(eqs), max_size=len(eqs)))
    ineq_factors = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=len(ineqs), max_size=len(ineqs)))
    return lp, eq_factors, ineq_factors, draw(st.integers(min_value=1, max_value=5))


@given(equality_blocked_lps())
@settings(max_examples=300, deadline=None)
def test_integer_core_matches_fraction_tableau(case):
    # Bit-identical: status, optimal value, and the witness point or ray.
    lp, eq_factors, ineq_factors, cost_factor = case
    assert solve_scaled(lp, eq_factors, ineq_factors, cost_factor) == fraction_solve_lp(lp)
