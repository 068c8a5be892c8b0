"""Exact scalar, vector, matrix, and linear-algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoffman import (
    Mat,
    Vec,
    affine_hull_dim,
    format_rational,
    nullspace,
    parse_rational,
    rank,
    solve_linear,
    to_rational,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# -- scalar parsing and emission ---------------------------------------------


def test_parse_integer_literal():
    assert parse_rational("3") == 3


def test_parse_fraction_literal():
    assert parse_rational("-2/7") == Fraction(-2, 7)


def test_parse_decimal_is_exact():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_unicode_minus():
    assert parse_rational("−2/7") == Fraction(-2, 7)


def test_parse_strips_whitespace():
    assert parse_rational("  5/3 ") == Fraction(5, 3)


def test_parse_signed_and_bare_decimals():
    assert parse_rational("+3") == 3
    assert parse_rational(".5") == Fraction(1, 2)
    assert parse_rational("-2.") == -2


@pytest.mark.parametrize(
    "bad",
    ["", "abc", "1/0", "1.2.3", "2/3/4", "nan", "inf", "1e200000", "2E3", "1.5e-2", "1_0", "1/1_0", "- 1"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_uses_fraction_form():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2, 7)) == "-2/7"


@given(rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_to_rational_accepts_int_fraction_str():
    assert to_rational(7) == 7
    assert to_rational(Fraction(2, 3)) == Fraction(2, 3)
    assert to_rational("-1/2") == Fraction(-1, 2)


def test_to_rational_rejects_floats():
    with pytest.raises(TypeError):
        to_rational(0.25)


@given(rationals, rationals)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda q: q != 0))
def test_multiplication_is_exact(a, b):
    assert (a * b) / b == a


def test_canonical_form_lowest_terms_positive_denominator():
    q = Fraction(4, -6)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (-2, 3)


# -- vectors -------------------------------------------------------------------


def test_vec_coerces_mixed_entries():
    v = Vec.of([1, "1/2", Fraction(3, 4)])
    assert v.entries == (Fraction(1), Fraction(1, 2), Fraction(3, 4))


def test_vec_requires_dimension_one():
    with pytest.raises(ValueError):
        Vec.of([])
    with pytest.raises(ValueError):
        Vec.zeros(0)


def test_vec_unit_and_indexing():
    e1 = Vec.unit(3, 1)
    assert e1.entries == (0, 1, 0)
    assert e1[1] == 1
    assert len(e1) == 3
    with pytest.raises(ValueError):
        Vec.unit(2, 5)


def test_vec_arithmetic():
    a = Vec.of([1, 2])
    b = Vec.of(["1/2", -1])
    assert (a + b).entries == (Fraction(3, 2), Fraction(1))
    assert (a - b).entries == (Fraction(1, 2), Fraction(3))
    assert (-a).entries == (-1, -2)
    assert a.scale("1/3").entries == (Fraction(1, 3), Fraction(2, 3))
    assert a.dot(b) == Fraction(1, 2) - 2
    assert a.norm_sq() == 5
    assert not a.is_zero()
    assert Vec.zeros(4).is_zero()


def test_vec_dimension_mismatch():
    with pytest.raises(ValueError):
        Vec.of([1]).dot(Vec.of([1, 2]))
    with pytest.raises(ValueError):
        Vec.of([1]) + Vec.of([1, 2])


# -- matrices ------------------------------------------------------------------


def test_mat_shape_and_access():
    m = Mat.of([[1, 2], [3, 4], [5, 6]])
    assert (m.m, m.n) == (3, 2)
    assert m.row(1).entries == (3, 4)
    assert m.column(1).entries == (2, 4, 6)
    assert m.transpose().rows[0].entries == (1, 3, 5)
    assert m.apply(Vec.of([1, -1])).entries == (-1, -1, -1)


def test_mat_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        Mat.of([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat.of([])


def test_mat_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(2).apply(Vec.of([1, 2, 3]))


# -- rank ----------------------------------------------------------------------


def test_rank_identity():
    assert rank(Mat.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(Mat.of([[0, 0, 0]] * 3)) == 0


def test_rank_proportional_rows():
    assert rank(Mat.of([[1, 1], [2, 2]])) == 1


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)


@given(small_matrices)
def test_rank_equals_transpose_rank(rows):
    m = Mat.of(rows)
    assert rank(m) == rank(m.transpose())


@given(small_matrices)
def test_rank_bounded_by_shape(rows):
    m = Mat.of(rows)
    assert 0 <= rank(m) <= min(m.m, m.n)


# -- linear solving -------------------------------------------------------------


def test_solve_identity():
    sol = solve_linear(Mat.identity(2), Vec.of([3, 4]))
    assert sol is not None and sol.unique
    assert sol.point.entries == (3, 4)


def test_solve_inconsistent():
    assert solve_linear(Mat.of([[1, 0], [1, 0]]), Vec.of([1, 2])) is None


def test_solve_underdetermined_flags_non_unique():
    sol = solve_linear(Mat.of([[1, 1]]), Vec.of([2]))
    assert sol is not None and not sol.unique
    assert sum(sol.point.entries) == 2


def test_solve_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(Mat.identity(2), Vec.of([1, 2, 3]))


@given(small_matrices, st.data())
def test_solution_satisfies_system(rows, data):
    m = Mat.of(rows)
    rhs = Vec.of(data.draw(st.lists(rationals, min_size=m.m, max_size=m.m)))
    sol = solve_linear(m, rhs)
    if sol is not None:
        assert m.apply(sol.point).entries == rhs.entries


@given(small_matrices, st.data())
def test_consistent_rhs_always_solved(rows, data):
    m = Mat.of(rows)
    x = Vec.of(data.draw(st.lists(rationals, min_size=m.n, max_size=m.n)))
    sol = solve_linear(m, m.apply(x))
    assert sol is not None
    assert m.apply(sol.point).entries == m.apply(x).entries


# -- nullspace and affine hulls --------------------------------------------------


def test_nullspace_of_nothing_is_standard_basis():
    basis = nullspace([], 3)
    assert [v.entries for v in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_dimension_formula():
    rows = [Vec.of([1, 2, 3]), Vec.of([2, 4, 6]), Vec.of([0, 1, 0])]
    basis = nullspace(rows, 3)
    assert len(basis) == 3 - rank(Mat(tuple(rows)))


@given(small_matrices)
def test_nullspace_vectors_annihilate_rows(rows):
    m = Mat.of(rows)
    for v in nullspace(list(m.rows), m.n):
        assert all(r.dot(v) == 0 for r in m.rows)
        assert not v.is_zero()


def test_affine_hull_dim_examples():
    assert affine_hull_dim([Vec.of([0, 0])]) == 0
    assert affine_hull_dim([Vec.of([0, 0]), Vec.of([1, 0])]) == 1
    assert affine_hull_dim([Vec.of([0, 0]), Vec.of([1, 0]), Vec.of([0, 1])]) == 2


def test_affine_hull_dim_ignores_duplicates():
    pts = [Vec.of([1, 1]), Vec.of([1, 1]), Vec.of([2, 2])]
    assert affine_hull_dim(pts) == 1


def test_affine_hull_dim_rejects_empty():
    with pytest.raises(ValueError):
        affine_hull_dim([])
