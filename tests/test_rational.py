"""Exact scalar, vector, matrix, and linear-algebra layer."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from corpus import system_corpus
from oracles import fraction_kernel_basis, fraction_particular_solution, fraction_rref

from hoffman import (
    LinearSolution,
    Mat,
    Vec,
    affine_hull_dim,
    check_error_bound,
    check_stability,
    format_rational,
    nullspace,
    parse_rational,
    rank,
    solve_linear,
    to_rational,
    worst_case_system,
)
from hoffman.rational import integer_row, reduce_integer_block

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def solve_affine(rows, rhs, dim):
    """Particular solution and kernel basis of {x : rows x = rhs}, or None,
    read off `reduce_integer_block` as `lp` reads it: pivot p_k of lead k
    takes `lead[dim] / den` at the free variables' zero, and the kernel
    vector of free column f has a 1 there and `-lead[f] / den` at p_k."""
    block = reduce_integer_block([integer_row((*row, b))[0] for row, b in zip(rows, rhs)], dim)
    if block is None:
        return None
    leads, pivots, den = block
    assert all(lead[q] == (den if q == p else 0) for lead, p in zip(leads, pivots) for q in pivots)
    point = [Fraction(0)] * dim
    for lead, p in zip(leads, pivots):
        point[p] = Fraction(lead[dim], den)
    kernel = []
    for f in (j for j in range(dim) if j not in pivots):
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for lead, p in zip(leads, pivots):
            v[p] = Fraction(-lead[f], den)
        kernel.append(Vec.of(v))
    return Vec.of(point), kernel


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


@pytest.mark.parametrize(
    "bad", ["x" * 5000, "1" * 5000, "1/" + "0" * 5000], ids=["letters", "digits", "zero-denominator"]
)
def test_rejected_literal_is_quoted_by_a_bounded_prefix(bad):
    with pytest.raises(ValueError, match="not a rational literal") as info:
        parse_rational(bad)
    message = str(info.value)
    assert len(message) < 100
    assert f"({len(bad)} characters)" in message


def test_format_uses_fraction_form():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2, 7)) == "-2/7"


@given(rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def _from_digits(digits: str) -> int:
    """The int a decimal string names, read 500 digits at a time, within the
    interpreter's limit on digits in str-to-int conversion."""
    value = 0
    for start in range(0, len(digits), 500):
        piece = digits[start:start + 500]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.mark.parametrize("limit", [4300, 640])
def test_format_prints_values_past_the_int_string_limit(limit):
    # str() of an int refuses more digits than the limit: 4300 by default,
    # and it can be set as low as 640.
    digits = "".join(str((i * 7 + i // 13) % 10) for i in range(9001)).lstrip("0")
    num, den = _from_digits(digits), _from_digits("1" + digits[:4500])
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert format_rational(Fraction(10**799)) == "1" + "0" * 799
        assert format_rational(Fraction(10**4400)) == "1" + "0" * 4400
        assert format_rational(Fraction(-(10**5000 - 1))) == "-" + "9" * 5000
        assert format_rational(Fraction(7, 10**4400 + 3)) == "7/1" + "0" * 4399 + "3"
        text = format_rational(Fraction(-num, den))
    finally:
        sys.set_int_max_str_digits(saved)
    sign, body = text[0], text[1:]
    assert sign == "-"
    top, bottom = body.split("/")
    assert Fraction(_from_digits(top), _from_digits(bottom)) == Fraction(num, den)
    assert top[0] != "0" and bottom[0] != "0"


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
    assert all(type(e) is Fraction for e in (*v, *Vec(("1/2", 3))))
    with pytest.raises(ValueError):
        Vec.of(["1e2"])


def test_vec_requires_dimension_one():
    with pytest.raises(ValueError):
        Vec.of([])
    with pytest.raises(ValueError):
        Vec(())
    with pytest.raises(ValueError):
        Vec.zeros(0)


def test_internal_vectors_hold_only_fractions(monkeypatch):
    """Every vector the package builds without coercion holds `Fraction`
    entries, through both verdicts on the corpus and a worst-case system."""
    built = []
    wrap = Vec.wrap.__func__

    def recording(cls, entries):
        built.append(entries)
        return wrap(cls, entries)

    monkeypatch.setattr(Vec, "wrap", classmethod(recording))
    for system in (*system_corpus(), worst_case_system(5)):
        check_error_bound(system)
        check_stability(system)
    assert len(built) > 10_000
    assert all(type(entries) is tuple and entries for entries in built)
    assert all(type(e) is Fraction for entries in built for e in entries)


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


def test_solve_affine_of_an_empty_block_is_the_origin_and_standard_basis():
    point, kernel = solve_affine([], [], 3)
    assert point.entries == (0, 0, 0)
    assert [v.entries for v in kernel] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_solve_affine_of_an_inconsistent_block_is_none():
    rows = [Vec.of([1, 2]), Vec.of([2, 4])]
    assert solve_affine(rows, [Fraction(1), Fraction(3)], 2) is None


def test_solve_affine_reads_a_fractional_kernel():
    point, kernel = solve_affine([Vec.of([2, 3, -1])], [Fraction(1, 2)], 3)
    assert point.entries == (Fraction(1, 4), 0, 0)
    assert [v.entries for v in kernel] == [(Fraction(-3, 2), 1, 0), (Fraction(1, 2), 0, 1)]


@given(small_matrices, st.booleans(), st.data())
def test_solve_affine_equals_solve_linear_and_nullspace(rows, consistent, data):
    m = Mat.of(rows)
    if consistent:
        rhs = m.apply(Vec.of(data.draw(st.lists(rationals, min_size=m.n, max_size=m.n))))
    else:
        rhs = Vec.of(data.draw(st.lists(rationals, min_size=m.m, max_size=m.m)))
    reduced = solve_affine(list(m.rows), list(rhs), m.n)
    solution = solve_linear(m, rhs)
    if solution is None:
        assert reduced is None
    else:
        point, kernel = reduced
        assert point == solution.point
        assert kernel == nullspace(list(m.rows), m.n)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@given(st.lists(
    st.one_of(st.just(Fraction(0)), st.integers(-20, 20).map(Fraction),
              st.fractions(min_value=-20, max_value=20, max_denominator=30)),
    min_size=1, max_size=8,
))
@example([Fraction(0)])
@example([Fraction(3), Fraction(0), Fraction(-7)])
@example([Fraction(1, 6), Fraction(0), Fraction(-3, 4)])
def test_integer_row_scales_by_the_least_common_denominator(values):
    ints, scale = integer_row(values)
    assert all(type(i) is int for i in ints)
    assert [Fraction(i) for i in ints] == [v * scale for v in values]
    assert scale == math.lcm(*[v.denominator for v in values])
    # Valid scales are the multiples of the least one, and every prime factor
    # of `scale` is below 30: no scale / p is valid, so no smaller one is.
    for p in _SMALL_PRIMES:
        if scale % p == 0:
            assert any((v * (scale // p)).denominator != 1 for v in values)
    if all(v.denominator == 1 for v in values):
        assert scale == 1 and ints == [int(v) for v in values]


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


# -- the fraction-free elimination against the Fraction one ------------------------


@st.composite
def eliminable_systems(draw):
    """`(rows, rhs)`: wide or tall, fractional entries, zero rows, repeated and
    rescaled rows, and a right-hand side that is consistent or arbitrary."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rows: list[list[Fraction]] = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "rescale"]))
        if kind == "zero":
            rows.append([Fraction(0)] * n)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
        else:
            source = draw(st.sampled_from(rows))
            factor = Fraction(1) if kind == "repeat" else draw(entries.filter(bool))
            rows.append([factor * a for a in source])
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    return rows, rhs


@given(eliminable_systems())
@example(([[Fraction(0)] * 3] * 2, [Fraction(0), Fraction(1)]))
@example(([[Fraction(1, 2), Fraction(-3)], [Fraction(1), Fraction(-6)]], [Fraction(1), Fraction(3)]))
@example(([[Fraction(2, 3), Fraction(0), Fraction(-1, 5), Fraction(4)]], [Fraction(7, 2)]))
@example(
    ([[Fraction(0), Fraction(3)], [Fraction(2), Fraction(1)], [Fraction(-4), Fraction(-2)]], [Fraction(1)] * 3)
)
@settings(max_examples=200, deadline=None)
def test_read_outs_equal_the_fraction_elimination(system):
    rows, rhs = system
    matrix = Mat.of(rows)
    n = matrix.n
    reduced, pivots = fraction_rref([list(row) for row in rows])
    assert rank(matrix) == len(pivots)
    assert nullspace(list(matrix.rows), n) == fraction_kernel_basis(reduced, pivots, n)

    aug_reduced, aug_pivots = fraction_rref([row + [b] for row, b in zip(rows, rhs)])
    solution = solve_linear(matrix, Vec.of(rhs))
    affine = solve_affine(list(matrix.rows), rhs, n)
    if n in aug_pivots:
        assert solution is None and affine is None
    else:
        point = fraction_particular_solution(aug_reduced, aug_pivots, n)
        assert solution == LinearSolution(point, unique=len(aug_pivots) == n)
        assert affine == (point, fraction_kernel_basis(aug_reduced, aug_pivots, n))

    points = list(matrix.rows)
    diffs = [list((p - points[0]).entries) for p in points[1:]]
    assert affine_hull_dim(points) == (len(fraction_rref(diffs)[1]) if diffs else 0)
