"""Metric classification of simplices and the explicit axis embedding.

A simplex is handled through its matrix of squared edge lengths, because
the two decisive conditions are rational in squared lengths even when any
coordinate realization is irrational:

  * orthocentric: for every four vertices A, B, C, D the three pairings
    satisfy AB^2 + CD^2 = AD^2 + BC^2 = AC^2 + BD^2 (the altitudes of the
    simplex then meet in one point);
  * acute: every triangle of vertices has all squared-length triangle
    inequalities strict in the acute sense, d_ij + d_jk > d_ik.

An n-simplex is an orthant section of the nonnegative orthant in n+1
dimensions exactly when it is both.  The realization places vertex i at
distance sqrt(x_i) along the i-th axis, where

    x_i = (d_ij + d_ik - d_jk) / 2

for any two other vertices j, k; orthocentricity makes the choice
irrelevant and x_i + x_j = d_ij for every pair.

Garbage metric input is rejected by one LDL^T of the edge Gram matrix at
vertex 0, G_ij = (d_0i + d_0j - d_ij) / 2: it comes from a nondegenerate
simplex exactly when G is positive definite (Schoenberg 1935), that is
when all n pivots are positive.  The same factors place the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, isqrt, sqrt

from .context import Context, EXACT, FLOAT, Scalar
from .errors import NotOrthantError, NotRealizable, OutOfFloatRange, ShapeMismatch
from .matrix import Mat, _ldl


class SimplexClass:
    ORTHANT_ACUTE_ORTHOCENTRIC = "OrthantAcuteOrthocentric"
    ORTHOCENTRIC_NOT_ACUTE = "OrthocentricNotAcute"
    NOT_ORTHOCENTRIC = "NotOrthocentric"


@dataclass(frozen=True)
class SimplexMetric:
    """Squared edge lengths of an n-simplex on vertices 0..n."""

    n: int
    d2: Mat

    @classmethod
    def from_squared_distances(cls, rows, ctx: Context) -> "SimplexMetric":
        d2 = Mat.from_rows(rows, ctx)
        k = d2.rows
        if k != d2.cols or k < 2:
            raise ShapeMismatch("need a square matrix on at least two vertices")
        if not ctx.is_exact and not all(isfinite(x) for row in d2.data for x in row):
            raise OutOfFloatRange("squared distances: an entry exceeds float range")
        for i in range(k):
            if ctx.sign(d2.data[i][i]) != 0:
                raise ShapeMismatch("diagonal of a distance matrix must be zero")
            for j in range(i + 1, k):
                if not ctx.eq(d2.data[i][j], d2.data[j][i]):
                    raise ShapeMismatch("squared distances must be symmetric")
                if ctx.sign(d2.data[i][j]) <= 0:
                    raise ShapeMismatch("off-diagonal squared distances must be positive")
        return cls(k - 1, d2)

    @property
    def ctx(self) -> Context:
        return self.d2.ctx

    def entry(self, i: int, j: int) -> Scalar:
        return self.d2.data[i][j]


def _positive_ldl(S: SimplexMetric):
    """(L, D) of the edge Gram matrix at vertex 0 when it has n positive
    pivots, else None; OutOfFloatRange when a float entry of it overflows."""
    ctx = S.ctx
    two = ctx.coerce(2)
    G = [
        [(S.entry(0, i) + S.entry(0, j) - S.entry(i, j)) / two for j in range(1, S.n + 1)]
        for i in range(1, S.n + 1)
    ]
    if not ctx.is_exact and not all(isfinite(x) for row in G for x in row):
        raise OutOfFloatRange("edge Gram matrix at vertex 0: an entry exceeds float range")
    factor = _ldl(G, ctx)
    return factor if factor is not None and len(factor[1]) == S.n else None


def is_realizable(S: SimplexMetric) -> bool:
    """True when the metric comes from a nondegenerate simplex."""
    return _positive_ldl(S) is not None


def classify_simplex(S: SimplexMetric) -> str:
    """Orthocentricity and acuteness verdict; rejects unrealizable metrics.

    Triangles skip the orthocentric test (altitudes of a triangle always
    meet), so only acuteness decides in dimension two.
    """
    if not is_realizable(S):
        raise NotRealizable("not the squared-distance matrix of a simplex")
    ctx = S.ctx
    if S.n > 2:
        for a, b, c, d in combinations(range(S.n + 1), 4):
            ab_cd = S.entry(a, b) + S.entry(c, d)
            ad_bc = S.entry(a, d) + S.entry(b, c)
            ac_bd = S.entry(a, c) + S.entry(b, d)
            if not (ctx.eq(ab_cd, ad_bc) and ctx.eq(ab_cd, ac_bd)):
                return SimplexClass.NOT_ORTHOCENTRIC
    for i, j, k in combinations(range(S.n + 1), 3):
        for mid, left, right in ((i, j, k), (j, i, k), (k, i, j)):
            if ctx.sign(S.entry(left, mid) + S.entry(mid, right) - S.entry(left, right)) <= 0:
                return SimplexClass.ORTHOCENTRIC_NOT_ACUTE
    return SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC


def embed_simplex(S: SimplexMetric) -> tuple:
    """Squared axis intercepts x with x_i + x_j = d2_ij and all x_i > 0.

    Only defined for acute orthocentric metrics; vertex i of the realized
    simplex sits at sqrt(x_i) times the i-th standard basis vector.
    """
    if classify_simplex(S) != SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC:
        raise NotOrthantError("embedding exists only for acute orthocentric simplices")
    ctx = S.ctx
    two = ctx.coerce(2)
    if S.n == 1:  # a segment has no third vertex to fix the split; take halves
        return (S.entry(0, 1) / two,) * 2
    x = []
    for i in range(S.n + 1):
        j, k = [v for v in range(S.n + 1) if v != i][:2]
        x.append((S.entry(i, j) + S.entry(i, k) - S.entry(j, k)) / two)
    for i in range(S.n + 1):
        if ctx.sign(x[i]) <= 0:
            raise NotOrthantError("intercept formula produced a nonpositive value")
        for j in range(i + 1, S.n + 1):
            if not ctx.eq(x[i] + x[j], S.entry(i, j)):
                raise NotOrthantError("intercepts do not reproduce the metric")
    return tuple(x)


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """The rational square root of x >= 0, or None when there is none."""
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def metric_coordinates(S: SimplexMetric):
    """Vertex coordinates realizing the metric, with vertex 0 at the origin.

    Vertex i > 0 is row i - 1 of L diag(sqrt(D)), from the LDL^T of the
    edge Gram matrix.  On the exact backend the result stays exact when
    every pivot is a perfect rational square; otherwise coordinates fall
    back to floats.  Returns (vertices, ctx_of_vertices).
    """
    factor = _positive_ldl(S)
    if factor is None:
        raise NotRealizable("not the squared-distance matrix of a simplex")
    L, D = factor
    roots = [_fraction_sqrt(d) for d in D] if S.ctx.is_exact else None
    out_ctx = EXACT
    if roots is None or None in roots:
        try:
            roots = [sqrt(float(d)) for d in D]
            L = [[float(v) for v in row] for row in L]
        except OverflowError:
            raise OutOfFloatRange(
                "metric_coordinates: an LDL^T pivot or factor exceeds float range"
            ) from None
        out_ctx = FLOAT
    origin = tuple(out_ctx.zero() for _ in range(S.n))
    return [origin] + [tuple(x * r for x, r in zip(row, roots)) for row in L], out_ctx
