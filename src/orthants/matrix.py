"""Dense matrices over a scalar backend.

Exact rank and determinants go through fraction-free (Bareiss) elimination
on integer-rescaled rows, which keeps intermediate entries polynomial in
the input size instead of letting denominators explode.  Solving and
kernels share one Gauss-Jordan loop with a fixed pivot rule so that
results are deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .context import Context, Scalar, common_context
from .errors import ShapeMismatch


@dataclass(frozen=True)
class Mat:
    """An immutable rows x cols grid of scalars sharing one backend."""

    data: tuple
    ctx: Context

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ctx: Context) -> "Mat":
        data = tuple(tuple(ctx.coerce(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ShapeMismatch("ragged rows")
        return cls(data, ctx)

    @classmethod
    def identity(cls, n: int, ctx: Context) -> "Mat":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], ctx
        )

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Mat":
        return Mat(tuple(zip(*self.data)) if self.data else (), self.ctx)

    def matvec(self, v: Sequence[Scalar]) -> list:
        if len(v) != self.cols:
            raise ShapeMismatch(f"matvec: {self.cols} columns vs vector of {len(v)}")
        return [dot(r, v) for r in self.data]

    def matmul(self, other: "Mat") -> "Mat":
        common_context(self.ctx, other.ctx)
        if self.cols != other.rows:
            raise ShapeMismatch("matmul shapes")
        ot = other.transpose()
        return Mat(
            tuple(tuple(dot(r, c) for c in ot.data) for r in self.data), self.ctx
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(
            tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx), self.ctx
        )

    def select_columns(self, col_idx: Sequence[int]) -> "Mat":
        return self.submatrix(range(self.rows), col_idx)

    def augment_column(self, v: Sequence[Scalar]) -> "Mat":
        if len(v) != self.rows:
            raise ShapeMismatch("augment length")
        vv = [self.ctx.coerce(x) for x in v]
        return Mat(
            tuple(row + (vv[i],) for i, row in enumerate(self.data)), self.ctx
        )


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ShapeMismatch("dot length")
    return sum(a * b for a, b in zip(u, v))


def primitive(vec: Sequence[Fraction]) -> tuple:
    """The integer multiple of a rational vector with content 1.

    Scales by the lcm of the denominators, then divides by the gcd of the
    numerators; the zero vector stays zero.
    """
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints)


def proportional(u: Sequence[Scalar], v: Sequence[Scalar], ctx: Context) -> Optional[Scalar]:
    """The scalar lam with v = lam * u for a nonzero u, or None."""
    k = next((i for i in range(len(u)) if ctx.sign(u[i]) != 0), None)
    if k is None:
        return None
    lam = v[k] / u[k]
    if all(ctx.is_zero(y - lam * x) for x, y in zip(u, v)):
        return lam
    return None


def _integer_rows(M: Mat) -> list:
    """Rescale each row by the lcm of denominators; rank-preserving."""
    out = []
    for row in M.data:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def rank(M: Mat) -> int:
    """Rank of M; fraction-free elimination on the exact backend."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.ctx.is_exact:
        return _rank_bareiss(_integer_rows(M))
    return _rank_float([list(map(float, row)) for row in M.data], M.ctx.tol)


def _rank_bareiss(a: list) -> int:
    m, n = len(a), len(a[0])
    prev = 1
    r = 0
    col = 0
    while r < m and col < n:
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, m):
            ai = a[i]
            ar = a[r]
            f = ai[col]
            for j in range(col, n):
                # exact division is guaranteed by the Bareiss identity
                ai[j] = (ai[j] * p - f * ar[j]) // prev
        prev = p
        r += 1
        col += 1
    return r


def _rank_float(a: list, tol: float) -> int:
    m, n = len(a), len(a[0])
    r = 0
    col = 0
    while r < m and col < n:
        piv = max(range(r, m), key=lambda i: abs(a[i][col]))
        if abs(a[piv][col]) <= tol:
            col += 1
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, m):
            f = a[i][col] / p
            if f != 0.0:
                for j in range(col, n):
                    a[i][j] -= f * a[r][j]
        r += 1
        col += 1
    return r


def _gauss_jordan(a: list, ctx: Context) -> list:
    """Reduce the rows of ``a`` in place to echelon form, clearing each pivot
    column above and below its pivot; rows are not normalised.

    Deterministic pivot rule: for each column left to right, take the first
    unused row with a nonzero entry there and swap it into place.  Returns
    the pivot columns; the k-th pivot sits in row k.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if ctx.sign(a[i][col]) != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(m):
            if i == r:
                continue
            f = a[i][col] / p
            if ctx.sign(f) != 0:
                for j in range(col, n):
                    a[i][j] -= f * a[r][j]
        pivots.append(col)
    return pivots


def solve_linear(M: Mat, rhs: Sequence[Scalar]) -> Optional[list]:
    """One solution of M x = rhs, or None when inconsistent.

    Free variables are set to zero, so the returned particular solution is
    reproducible.  The system is inconsistent exactly when the rhs column
    of [M | rhs] takes a pivot.
    """
    if len(rhs) != M.rows:
        raise ShapeMismatch("rhs length")
    ctx = M.ctx
    a = [list(row) + [ctx.coerce(rhs[i])] for i, row in enumerate(M.data)]
    n = M.cols
    pivots = _gauss_jordan(a, ctx)
    if pivots and pivots[-1] == n:
        return None
    x = [ctx.zero()] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n] / a[r][col]
    return x


def kernel_basis(M: Mat) -> list:
    """Canonical basis of the nullspace from the reduced echelon form.

    One basis vector per free column, ordered by free-column index; the
    vector has 1 in its free coordinate, so the basis is deterministic.
    """
    ctx = M.ctx
    a = [list(row) for row in M.data]
    pivots = _gauss_jordan(a, ctx)
    n = M.cols
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ctx.zero()] * n
        v[free] = ctx.one()
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][free] / a[r][pc]
        basis.append(v)
    return basis


def inverse(M: Mat) -> Mat:
    """Inverse of a square nonsingular matrix, column by column."""
    if M.rows != M.cols:
        raise ShapeMismatch("inverse needs a square matrix")
    cols = []
    for k in range(M.rows):
        e = [M.ctx.one() if i == k else M.ctx.zero() for i in range(M.rows)]
        x = solve_linear(M, e)
        if x is None:
            raise ShapeMismatch("matrix is singular")
        cols.append(x)
    return Mat.from_rows(cols, M.ctx).transpose()


def det(M: Mat) -> Scalar:
    """Determinant of a square matrix (Bareiss on the exact backend)."""
    if M.rows != M.cols:
        raise ShapeMismatch("det needs a square matrix")
    n = M.rows
    if n == 0:
        return M.ctx.one()
    if not M.ctx.is_exact:
        return _det_float([list(map(float, row)) for row in M.data], M.ctx.tol)
    # Track the row scalings introduced when clearing denominators.
    scale = Fraction(1)
    a = []
    for row in M.data:
        s = lcm(*(x.denominator for x in row))
        scale *= s
        a.append([int(x * s) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1]) / scale


def _det_float(a: list, tol: float) -> float:
    n = len(a)
    d = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[piv][k]) <= tol:
            return 0.0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return d
