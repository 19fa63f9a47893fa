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

Garbage metric input is rejected by a Cayley-Menger sign gate: the points
of a nondegenerate k-simplex make the bordered determinant of each vertex
prefix carry the sign (-1)^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, sqrt

from .context import Context, EXACT, FLOAT, Scalar
from .errors import NotOrthantError, NotRealizable, ShapeMismatch
from .matrix import Mat, det


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


def cayley_menger_det(S: SimplexMetric, points) -> Scalar:
    """Bordered determinant of the chosen vertex subset."""
    pts = list(points)
    k = len(pts)
    ctx = S.ctx
    rows = [[ctx.zero()] + [ctx.one()] * k]
    for i in pts:
        rows.append([ctx.one()] + [S.entry(i, j) for j in pts])
    return det(Mat.from_rows(rows, ctx))


def is_realizable(S: SimplexMetric) -> bool:
    """True when the metric comes from a nondegenerate simplex."""
    ctx = S.ctx
    for k in range(2, S.n + 2):
        d = cayley_menger_det(S, range(k))
        if ctx.sign(d) * (1 if k % 2 == 0 else -1) <= 0:
            return False
    return True


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
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def metric_coordinates(S: SimplexMetric):
    """Vertex coordinates realizing the metric, with vertex 0 at the origin.

    Performs an LDL factorization of the edge-vector Gram matrix.  On the
    exact backend the result stays exact when every pivot is a perfect
    rational square; otherwise coordinates fall back to floats.
    Returns (vertices, ctx_of_vertices).
    """
    if not is_realizable(S):
        raise NotRealizable("not the squared-distance matrix of a simplex")
    ctx = S.ctx
    n = S.n
    two = ctx.coerce(2)
    G = [
        [
            (S.entry(0, i + 1) + S.entry(0, j + 1) - S.entry(i + 1, j + 1)) / two
            for j in range(n)
        ]
        for i in range(n)
    ]
    # LDL^T without pivoting; realizability makes G positive definite
    L = [[ctx.zero()] * n for _ in range(n)]
    D = [ctx.zero()] * n
    for j in range(n):
        D[j] = G[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        L[j][j] = ctx.one()
        for i in range(j + 1, n):
            L[i][j] = (
                G[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            ) / D[j]

    roots = None
    if ctx.is_exact:
        exact_roots = [_fraction_sqrt(d) for d in D]
        if all(r is not None for r in exact_roots):
            roots = exact_roots
            out_ctx = EXACT
    if roots is None:
        roots = [sqrt(float(d)) for d in D]
        L = [[float(v) for v in row] for row in L]
        out_ctx = FLOAT
    verts = [tuple(out_ctx.zero() for _ in range(n))]
    for i in range(n):
        verts.append(tuple(L[i][k] * roots[k] for k in range(n)))
    return verts, out_ctx
