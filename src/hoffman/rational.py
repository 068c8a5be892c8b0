"""Exact rational scalars, vectors, matrices, and dense linear algebra.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), always kept
in lowest terms with a positive denominator, so equality and sign tests are
reliable even on boundary cases.  Vectors and matrices are immutable; every
operation returns a fresh value, which makes all of this safe to use from
concurrent callers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "Vec",
    "Mat",
    "LinearSolution",
    "to_rational",
    "parse_rational",
    "format_rational",
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


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string literal to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse an integer ("3"), fraction ("-2/7"), or finite decimal ("0.25").

    Decimals convert exactly (0.25 becomes 1/4); no binary floating point is
    involved at any stage.
    """
    cleaned = text.strip().replace(_MINUS_SIGN, "-")
    if not _LITERAL.fullmatch(cleaned):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Emit the canonical fraction form: "3", "-2/7"."""
    return str(value)


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
    def zeros(cls, dim: int) -> "Vec":
        if dim < 1:
            raise ValueError("vector dimension must be at least 1")
        return cls(tuple(_ZERO for _ in range(dim)))

    @classmethod
    def unit(cls, dim: int, index: int) -> "Vec":
        if not 0 <= index < dim:
            raise ValueError(f"unit index {index} out of range for dimension {dim}")
        return cls(tuple(_ONE if j == index else _ZERO for j in range(dim)))

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
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._require_same_dim(other)
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.entries))

    def scale(self, factor: RationalLike) -> "Vec":
        f = to_rational(factor)
        return Vec(tuple(f * a for a in self.entries))

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
        return Vec(tuple(r[j] for r in self.rows))

    def transpose(self) -> "Mat":
        return Mat(tuple(self.column(j) for j in range(self.n)))

    def apply(self, x: Vec) -> Vec:
        """Matrix-vector product."""
        if x.dim != self.n:
            raise ValueError(f"dimension mismatch: matrix width {self.n}, vector {x.dim}")
        return Vec(tuple(r.dot(x) for r in self.rows))

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.rows)


@dataclass(frozen=True)
class LinearSolution:
    """A solution of M x = rhs; `unique` is False for underdetermined systems."""

    point: Vec
    unique: bool


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan; returns (rref, pivot columns)."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    r = 0
    ncols = len(mat[0])
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        if piv != 1:
            mat[r] = [x / piv for x in mat[r]]
        lead = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _row_rank(rows: Sequence[Vec], dim: int) -> int:
    listed = [list(r.entries) for r in rows]
    if not listed:
        return 0
    if any(r.dim != dim for r in rows):
        raise ValueError("rank: rows must share the stated dimension")
    _, pivots = _rref(listed)
    return len(pivots)


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
    aug = [list(row.entries) + [rhs[i]] for i, row in enumerate(matrix.rows)]
    reduced, pivots = _rref(aug)
    if any(p == n for p in pivots):
        return None
    point = [_ZERO] * n
    for row_index, col in enumerate(pivots):
        point[col] = reduced[row_index][n]
    return LinearSolution(Vec.of(point), unique=len(pivots) == n)


def nullspace(rows: Sequence[Vec], dim: int) -> list[Vec]:
    """Basis of {x : r . x = 0 for every r in rows}.

    An empty row list yields the standard basis of the full space.
    """
    if dim < 1:
        raise ValueError("nullspace dimension must be at least 1")
    listed = [list(r.entries) for r in rows]
    if listed and any(len(r) != dim for r in listed):
        raise ValueError("nullspace: rows must share the stated dimension")
    if not listed:
        return [Vec.unit(dim, j) for j in range(dim)]
    reduced, pivots = _rref(listed)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free_col in range(dim):
        if free_col in pivot_set:
            continue
        v = [_ZERO] * dim
        v[free_col] = _ONE
        for row_index, piv_col in enumerate(pivots):
            v[piv_col] = -reduced[row_index][free_col]
        basis.append(Vec.of(v))
    return basis


def affine_hull_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of a nonempty point set."""
    if not points:
        raise ValueError("affine hull of an empty point set is undefined")
    base = points[0]
    diffs = [p - base for p in points[1:] if not (p - base).is_zero()]
    return _row_rank(diffs, base.dim)
