"""Exact rational scalars, vectors, matrices, and dense linear algebra.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), always kept
in lowest terms with a positive denominator, so equality and sign tests are
reliable even on boundary cases.  Vectors and matrices are immutable; every
operation returns a fresh value, which makes all of this safe to use from
concurrent callers.

Every exact elimination in the package runs on one integer row format, after
Edmonds (1967) and Bareiss (1968), with a gcd division where Bareiss divides
by the previous pivot.  `integer_row` scales a row to integers by the lcm of
its denominators, and `primitive_row` divides it by the gcd of its entries.
`clear_column` makes a pivot p positive and replaces every other row by
`(p * row - f * lead) / gcd` (`eliminate_row`), with f the row's entry in
the pivot column.  Every row stays a positive multiple of the row the
`Fraction` elimination holds, so signs and ratios within a row are all that
is read.  The simplex tableau of `lp` and Wolfe's Gram matrix in `convex`
use these helpers too; they are not part of the package surface.

One elimination, `_eliminate`, reduces every block, and it has one read-out:
`reduce_integer_block` brings the reduced row echelon form, which is unique,
over one common denominator.  `solve_linear`, `nullspace`, the equality
block of `lp` and Wolfe's corral system in `convex` all read that block, and
`rank` and `affine_hull_dim` count the pivots of the elimination.  A
`Fraction` is built only for an entry a caller returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Rational",
    "Vec",
    "Mat",
    "LinearSolution",
    "to_rational",
    "parse_rational",
    "format_rational",
    "sqrt_approx",
    "rank",
    "solve_linear",
    "nullspace",
    "affine_hull_dim",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Unicode minus shows up in hand-written data files; normalize it on parse.
_MINUS_SIGN = "−"

# The literal forms parse_rational documents.  `Fraction` alone also takes
# exponents and underscores; "1e2000000" would build a 6.6M-bit integer,
# which the interpreter's limit on int digits does not catch.
_LITERAL = re.compile(r"[-+]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")

# A rejected literal is quoted in its error up to this many characters.
_QUOTED_CHARS = 40


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string literal to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    text = repr(value)
    shown = text if len(text) <= _QUOTED_CHARS else f"{text[:_QUOTED_CHARS]}... ({len(text)} characters)"
    raise TypeError(f"cannot interpret {shown} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse an integer ("3"), fraction ("-2/7"), or finite decimal ("0.25").

    Decimals convert exactly (0.25 becomes 1/4); no binary floating point is
    involved at any stage.
    """
    cleaned = text.strip().replace(_MINUS_SIGN, "-")
    if _LITERAL.fullmatch(cleaned):
        try:
            return Fraction(cleaned)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than the interpreter converts
    shown = repr(text) if len(text) <= _QUOTED_CHARS else f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"
    raise ValueError(f"not a rational literal: {shown}")


# `str` refuses an int past the interpreter's limit on digits (4300 by
# default); `_decimal` splits larger ones into pieces it takes, so that the
# process-wide limit is never changed.  No limit can be set below 640
# (`sys.int_info.str_digits_check_threshold`), so every piece of at most 640
# digits passes `str` at any limit.
_PIECE_DIGITS = 640
_PIECE = 10**_PIECE_DIGITS


def format_rational(value: Fraction) -> str:
    """Emit the canonical fraction form: "3", "-2/7", exactly at any size."""
    p, q = value.numerator, value.denominator
    text = "-" + _decimal(-p) if p < 0 else _decimal(p)
    return text if q == 1 else f"{text}/{_decimal(q)}"


def _decimal(n: int) -> str:
    """Decimal digits of an int n >= 0 of any size."""
    if n < _PIECE:
        return str(n)
    # Split at 10**k with k the largest power-of-two multiple of the piece
    # size whose square is at most n, so both halves are below 10**k.
    k, split = _PIECE_DIGITS, _PIECE
    while split * split <= n:
        k, split = 2 * k, split * split
    high, low = divmod(n, split)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def sqrt_approx(value_sq: Fraction | None) -> float | None:
    """Float annotation of the square root of an exact value >= 0.

    None for None and for a root past float range; it never raises.
    """
    if value_sq is None:
        return None
    p, q = value_sq.numerator, value_sq.denominator
    if p == 0 or abs(p.bit_length() - q.bit_length()) < 1000:
        return sqrt(value_sq)  # value_sq converts to a normal float
    # Past the normal range at either end: the integer root of p * 4**s / q
    # has at least 64 bits, and one division by 2**s rounds it.
    s = max(0, q.bit_length() - p.bit_length() + 128) // 2
    try:
        return isqrt((p << 2 * s) // q) / (1 << s)
    except OverflowError:
        return None


@dataclass(frozen=True)
class Vec:
    """Immutable vector of exact rationals (dimension >= 1)."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = tuple(to_rational(e) for e in self.entries)
        if not entries:
            raise ValueError("vector dimension must be at least 1")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> "Vec":
        return cls(tuple(values))

    @classmethod
    def wrap(cls, entries: tuple[Fraction, ...]) -> "Vec":
        """Wrap a nonempty tuple of `Fraction` as is, without coercing or checking.

        The caller guarantees the condition, as the package's arithmetic and
        read-outs do; anything else goes through `Vec(...)` or `Vec.of`,
        which coerce and validate.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "entries", entries)
        return vec

    @classmethod
    def zeros(cls, dim: int) -> "Vec":
        if dim < 1:
            raise ValueError("vector dimension must be at least 1")
        return cls.wrap((_ZERO,) * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "Vec":
        if not 0 <= index < dim:
            raise ValueError(f"unit index {index} out of range for dimension {dim}")
        return cls.wrap(tuple(_ONE if j == index else _ZERO for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def _require_same_dim(self, other: "Vec") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def dot(self, other: "Vec") -> Fraction:
        self._require_same_dim(other)
        total = _ZERO
        for a, b in zip(self.entries, other.entries):
            if a and b:
                total += a * b
        return total

    def __add__(self, other: "Vec") -> "Vec":
        self._require_same_dim(other)
        return Vec.wrap(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._require_same_dim(other)
        return Vec.wrap(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec.wrap(tuple(-a for a in self.entries))

    def scale(self, factor: RationalLike) -> "Vec":
        f = to_rational(factor)
        return Vec.wrap(tuple(f * a for a in self.entries))

    def norm_sq(self) -> Fraction:
        return sum((a * a for a in self.entries), _ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix with at least one row; rows share a dimension."""

    rows: tuple[Vec, ...]

    def __post_init__(self) -> None:
        rows = tuple(r if isinstance(r, Vec) else Vec.of(r) for r in self.rows)
        if not rows:
            raise ValueError("matrix must have at least one row")
        width = rows[0].dim
        if any(r.dim != width for r in rows):
            raise ValueError("matrix rows must all share one dimension")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, rows: Iterable[Iterable[RationalLike]]) -> "Mat":
        return cls(tuple(Vec.of(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(tuple(Vec.unit(n, j) for j in range(n)))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.rows[0].dim

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def column(self, j: int) -> Vec:
        return Vec.wrap(tuple(r[j] for r in self.rows))

    def transpose(self) -> "Mat":
        return Mat(tuple(self.column(j) for j in range(self.n)))

    def apply(self, x: Vec) -> Vec:
        """Matrix-vector product."""
        if x.dim != self.n:
            raise ValueError(f"dimension mismatch: matrix width {self.n}, vector {x.dim}")
        return Vec.wrap(tuple(r.dot(x) for r in self.rows))

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.rows)


@dataclass(frozen=True)
class LinearSolution:
    """A solution of M x = rhs; `unique` is False for underdetermined systems."""

    point: Vec
    unique: bool


def integer_row(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """`(scale * values, scale)` for the least positive integer scale, the
    lcm of the denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*[q for _, q in ratios])
    if scale == 1:
        return [p for p, _ in ratios], 1
    return [p * (scale // q) for p, q in ratios], scale


def primitive_row(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (an all-zero row stays)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def eliminate_row(row: list[int], f: int, lead: list[int], p: int) -> list[int]:
    """`(p * row - f * lead) / gcd`: clears the pivot column for a pivot p > 0."""
    return primitive_row([p * a - f * b for a, b in zip(row, lead)])


def clear_column(rows: list[list[int]], r: int, c: int) -> list[int]:
    """Pivot on `rows[r][c]`, which must be nonzero: negate row r if that
    makes the pivot positive, clear column c from every other row in place,
    and return the lead row."""
    lead = rows[r]
    p = lead[c]
    if p < 0:
        p = -p
        lead = rows[r] = [-v for v in lead]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i] = eliminate_row(row, f, lead, p)
    return lead


def integer_dot(a: Iterable[int], b: Iterable[int]) -> int:
    return sum(map(mul, a, b))


def _eliminate(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns (rows, pivot columns).

    Row k of the result, for k below the number of pivots, is a positive
    integer multiple of row k of the reduced row echelon form, so that form's
    entry (k, j) is `rows[k][j] / rows[k][pivots[k]]`.  Rows past the last
    pivot are zero.
    """
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        clear_column(mat, r, c)
        pivots.append(c)
        if r + 1 == len(mat):
            break
    return mat, pivots


def reduce_integer_block(rows: list[list[int]], dim: int) -> tuple[list[list[int]], list[int], int] | None:
    """The reduced row echelon form of an integer block `[M | rhs]`, M of
    width `dim`, over one common denominator; None when it is inconsistent.

    Returns `(leads, pivots, den)`: lead k is `den` times row k of the reduced
    form, so its entry in every pivot column is `den` or 0, and only rows
    that hold a pivot are kept.  `den` is the lcm of the pivot entries of
    `_eliminate` (1 for a block without pivots), and `rows` are left as they
    are.  With the free variables at zero, pivot variable p_k is
    `lead_k[dim] / den`; the kernel vector of free column f has a 1 there
    and `-lead_k[f] / den` at p_k.  `solve_linear` and `nullspace` read it
    so, `lp` substitutes the pivot variables of an equality block with it,
    and `convex` solves the corral system of Wolfe's method with it; it is
    not part of the package surface.
    """
    reduced, pivots = _eliminate(list(rows))
    if pivots and pivots[-1] == dim:
        return None
    heads = [row[p] for row, p in zip(reduced, pivots)]
    den = lcm(*heads)
    return [row if h == den else [v * (den // h) for v in row] for row, h in zip(reduced, heads)], pivots, den


def _ratio(num: int, den: int) -> Fraction:
    """`num / den` in lowest terms; zero reuses `_ZERO`, and `den == 1` skips the gcd."""
    if not num:
        return _ZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


def _row_rank(rows: Sequence[Vec], dim: int) -> int:
    if any(r.dim != dim for r in rows):
        raise ValueError("rank: rows must share the stated dimension")
    return len(_eliminate([integer_row(r.entries)[0] for r in rows])[1])


def rank(matrix: Mat) -> int:
    """Exact rank via Gauss-Jordan elimination."""
    return _row_rank(matrix.rows, matrix.n)


def solve_linear(matrix: Mat, rhs: Vec) -> LinearSolution | None:
    """Solve M x = rhs exactly.

    Returns a particular solution (flagged non-unique when the system is
    underdetermined) or None when the system is inconsistent.
    """
    if rhs.dim != matrix.m:
        raise ValueError(f"dimension mismatch: {matrix.m} rows, rhs of dimension {rhs.dim}")
    n = matrix.n
    block = reduce_integer_block([integer_row((*row.entries, b))[0] for row, b in zip(matrix.rows, rhs.entries)], n)
    if block is None:
        return None
    leads, pivots, den = block
    point = [_ZERO] * n
    for lead, p in zip(leads, pivots):
        point[p] = _ratio(lead[n], den)
    return LinearSolution(Vec.wrap(tuple(point)), unique=len(pivots) == n)


def nullspace(rows: Sequence[Vec], dim: int) -> list[Vec]:
    """Basis of {x : r . x = 0 for every r in rows}.

    An empty row list yields the standard basis of the full space.
    """
    if dim < 1:
        raise ValueError("nullspace dimension must be at least 1")
    if any(r.dim != dim for r in rows):
        raise ValueError("nullspace: rows must share the stated dimension")
    # a zero bound column never makes the block inconsistent
    leads, pivots, den = reduce_integer_block([integer_row(r.entries)[0] + [0] for r in rows], dim)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for f in range(dim):
        if f in pivot_set:
            continue
        v = [_ZERO] * dim
        v[f] = _ONE
        for lead, p in zip(leads, pivots):
            v[p] = _ratio(-lead[f], den)
        basis.append(Vec.wrap(tuple(v)))
    return basis


def affine_hull_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of a nonempty point set."""
    if not points:
        raise ValueError("affine hull of an empty point set is undefined")
    base = points[0]
    diffs = [p - base for p in points[1:] if not (p - base).is_zero()]
    return _row_rank(diffs, base.dim)
