"""Dense matrices over a scalar backend.

Rank, pivot columns, solutions, kernels and determinants are all read off
one Gauss-Jordan reduction, ``_echelon``.  On the exact backend it scales
each row to integers once and then eliminates fraction-free (Bareiss
1968): every division is exact and intermediate entries are minors of the
input, so their size stays polynomial instead of letting denominators
explode.  A Fraction is built only when a result is read off.  The float
backend runs the same loop with partial pivoting and a zero tolerance.
Exact results do not depend on the pivot rule: the rank, the pivot
columns, the solution with free variables at zero, the kernel basis with
1 in its free coordinate and the determinant are unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .context import EXACT, Context, Scalar, common_context
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


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ShapeMismatch("dot length")
    return sum(a * b for a, b in zip(u, v))


def _content(vec: Sequence[Fraction]) -> tuple:
    """(v, s) with vec = s v, v an integer vector with content 1 and s > 0:
    scale by the lcm of the denominators, divide by the gcd of the
    numerators.  The zero vector gives (0, 1)."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints), Fraction(g, den)


def _primitive_rows(rows, ctx: Context) -> tuple:
    """(v_i, sigma_i), row_i = sigma_i v_i, sigma_i > 0: where exact rows are
    made primitive (``_content``); a float row is its own v_i, scale 1.0."""
    if ctx.is_exact:
        return tuple(map(_content, rows))
    return tuple((tuple(row), ctx.one()) for row in rows)


def primitive(vec: Sequence[Fraction]) -> tuple:
    """The integer multiple of a rational vector with content 1; zero stays zero."""
    return tuple(map(Fraction, _content(vec)[0]))


def _numerators(vectors, ctx: Context) -> tuple:
    """(numerators, d): exact vectors as integers over their least common
    denominator d, as ``_echelon`` scales; float vectors as they are, over 1."""
    if not ctx.is_exact:
        return [list(v) for v in vectors], 1
    d = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (d // x.denominator) for x in v] for v in vectors], d


def normalize(vec: Sequence[Scalar], ctx: Context) -> tuple:
    """One representative per direction: primitive (exact) or unit length (float)."""
    if ctx.is_exact:
        return primitive(vec)
    norm = sum(float(x) * float(x) for x in vec) ** 0.5
    return tuple(float(x) / norm for x in vec)


def _tol_key(vec: Sequence[Scalar], ctx: Context) -> tuple:
    """A hashable key for vec: the vector itself (exact) or its entries
    rounded to multiples of ``tol`` (float)."""
    return tuple(vec) if ctx.is_exact else tuple(round(float(x) / ctx.tol) for x in vec)


def _echelon(M: Mat, rhs: Sequence[Sequence[Scalar]] = (), width: Optional[int] = None):
    """Gauss-Jordan on [M | rhs columns]: (reduced rows, pivot columns, swap sign, row scale).

    Pivots are searched in the first ``width`` columns (all by default).
    Every pivot column is cleared above and below its pivot, and the k-th
    pivot sits in row k; rows are not normalised.  On the exact backend
    each row is first scaled to integers (``scale`` is the product of the
    row scalings; a row of ints as it is) and the reduction is
    fraction-free: every division is exact, and at the end every pivot
    entry is the same integer.  The pivot
    is the first nonzero entry of its column.  On the float backend it is
    the entry of largest magnitude, and magnitudes at or below ``tol``
    count as zero.
    """
    ctx = M.ctx
    rows = M.data
    if rhs:
        cols = [[ctx.coerce(b) for b in col] for col in rhs]
        rows = [row + bs for row, bs in zip(rows, zip(*cols))]
    exact = ctx.is_exact
    scale = 1
    if exact:
        a = []
        for row in rows:
            if all(type(x) is int for x in row):
                a.append(list(row))
                continue
            s = lcm(*(x.denominator for x in row))
            scale *= s
            a.append([x.numerator * (s // x.denominator) for x in row])
    else:
        a = [list(map(float, row)) for row in rows]
    m = len(a)
    n = (len(a[0]) if m else 0) if width is None else width
    pivots = []
    sign = 1
    prev = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        if exact:
            piv = next((i for i in range(r, m) if a[i][col]), None)
        else:
            piv = max(range(r, m), key=lambda i: abs(a[i][col]))
            if abs(a[piv][col]) <= ctx.tol:
                piv = None
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        p = ar[col]
        for i in range(m):
            if i == r:
                continue
            f = a[i][col]
            if exact:
                # exact by the Bareiss identity: entries stay minors of the input
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], ar)]
            elif f:
                f /= p
                a[i] = [x - f * y for x, y in zip(a[i], ar)]
        prev = p
        pivots.append(col)
    return a, pivots, sign, scale


def _ratio(num, den, ctx: Context) -> Scalar:
    """num / den of two echelon entries, as a backend scalar."""
    return Fraction(num, den) if ctx.is_exact else num / den


def pivot_columns(M: Mat) -> list:
    """Pivot columns of M: the first independent columns in scan order."""
    return _echelon(M)[1]


def rank(M: Mat) -> int:
    """Rank of M; fraction-free elimination on the exact backend."""
    return len(pivot_columns(M))


def solve_linear(M: Mat, rhs: Sequence[Scalar]) -> Optional[list]:
    """One solution of M x = rhs, or None when inconsistent.

    Free variables are set to zero, so the returned particular solution is
    reproducible.
    """
    return solve_columns(M, [rhs])[0]


def solve_columns(M: Mat, rhss: Sequence[Sequence[Scalar]]) -> list:
    """solve_linear for every rhs in ``rhss``, read off one pass on [M | rhs_1 ... rhs_k].

    Pivots are taken in M's columns only, so the right-hand sides never mix;
    rhs k is consistent exactly when its column vanishes below the rank.
    """
    if any(len(rhs) != M.rows for rhs in rhss):
        raise ShapeMismatch("rhs length")
    ctx, n = M.ctx, M.cols
    a, pivots, _, _ = _echelon(M, rhss, width=n)
    below = a[len(pivots):]
    out = []
    for k in range(n, n + len(rhss)):
        if any(not ctx.is_zero(row[k]) for row in below):
            out.append(None)
            continue
        x = [ctx.zero()] * n
        for row, col in zip(a, pivots):
            x[col] = _ratio(row[k], row[col], ctx)
        out.append(x)
    return out


def _solve_integers(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[tuple]:
    """solve_linear for a square integer system as (numerators, d > 0), d the
    common final pivot of the fraction-free reduction; None if inconsistent."""
    n = len(rhs)
    augmented = Mat(tuple((*row, r) for row, r in zip(rows, rhs)), EXACT)
    a, pivots, _, _ = _echelon(augmented, width=n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    d = a[0][pivots[0]] if pivots else 1
    s = 1 if d > 0 else -1
    x = [0] * n
    for row, col in zip(a, pivots):
        x[col] = s * row[n]
    return x, s * d


def kernel_basis(M: Mat) -> list:
    """Canonical basis of the nullspace from the reduced echelon form.

    One basis vector per free column, ordered by free-column index; the
    vector has 1 in its free coordinate, so the basis is deterministic.
    """
    ctx = M.ctx
    a, pivots, _, _ = _echelon(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = [ctx.zero()] * M.cols
        v[free] = ctx.one()
        for row, pc in zip(a, pivots):
            v[pc] = -_ratio(row[free], row[pc], ctx)
        basis.append(v)
    return basis


def det(M: Mat) -> Scalar:
    """Determinant of a square matrix, read off the echelon pivots."""
    if M.rows != M.cols:
        raise ShapeMismatch("det needs a square matrix")
    if M.rows == 0:
        return M.ctx.one()
    a, pivots, sign, scale = _echelon(M)
    if len(pivots) < M.rows:
        return M.ctx.zero()
    if M.ctx.is_exact:
        # every pivot equals the determinant of the integer-scaled rows
        return Fraction(sign * a[-1][pivots[-1]], scale)
    d = float(sign)
    for row, col in zip(a, pivots):
        d *= row[col]
    return d
