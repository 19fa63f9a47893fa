"""Generators for the named polyhedron families used throughout the tests.

All generators emit minimal H-representations with a fixed row order so
that downstream weighting systems and certificates are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .context import Context, EXACT
from .errors import ShapeMismatch
from .matrix import Mat, dot
from .polyhedra import Polyhedron
from .simplices import SimplexMetric, metric_coordinates


def generate_cube(n: int, ctx: Context = EXACT) -> Polyhedron:
    """Unit cube: x_i >= 0 and -x_i >= -1, in coordinate order."""
    if n < 1:
        raise ShapeMismatch("dimension must be at least 1")
    rows, offs = [], []
    for i in range(n):
        rows.append([1 if j == i else 0 for j in range(n)])
        offs.append(0)
    for i in range(n):
        rows.append([-1 if j == i else 0 for j in range(n)])
        offs.append(-1)
    return Polyhedron.from_rows(rows, offs, ctx)


def generate_cross_polytope(n: int, ctx: Context = EXACT) -> Polyhedron:
    """Cross-polytope: the 2^n inequalities (+-1, ..., +-1) . x >= -1."""
    if n < 1:
        raise ShapeMismatch("dimension must be at least 1")
    rows = [list(signs) for signs in product((1, -1), repeat=n)]
    return Polyhedron.from_rows(rows, [-1] * len(rows), ctx)


def generate_max_rank_orthant(n: int, ctx: Context = EXACT) -> Polyhedron:
    """The standard orthant polytope whose weighting system has full rank.

    Facets: x_i - x_j >= -1 and x_j - x_i >= -1 for i < j, then
    x_i + x_j >= -1 for i < j, then x_i >= -2/3.  Known to admit a strictly
    positive facet weighting while its system rank tops out at n(n+1)/2,
    which makes it the universal companion for realization constructions.
    """
    if n < 1:
        raise ShapeMismatch("dimension must be at least 1")
    rows, offs = [], []
    for i, j in combinations(range(n), 2):
        row = [0] * n
        row[i], row[j] = 1, -1
        rows.append(row)
        offs.append(-1)
        row = [0] * n
        row[i], row[j] = -1, 1
        rows.append(row)
        offs.append(-1)
    for i, j in combinations(range(n), 2):
        row = [0] * n
        row[i], row[j] = 1, 1
        rows.append(row)
        offs.append(-1)
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(row)
        offs.append(Fraction(-2, 3) if ctx.is_exact else -2.0 / 3.0)
    return Polyhedron.from_rows(rows, offs, ctx)


def generate_simplex(alphas, ctx: Context = EXACT) -> Polyhedron:
    """The n-simplex with vertex i at distance alpha_i along axis i of
    R^{n+1}, expressed as an n-dimensional H-representation.

    Squared edge lengths are alpha_i^2 + alpha_j^2.  Coordinates in the
    affine hull are exact only when the induced Gram factorization has
    perfect-square pivots; otherwise the result falls back to the float
    backend.
    """
    alphas = [ctx.coerce(a) for a in alphas]
    if len(alphas) < 2 or any(ctx.sign(a) <= 0 for a in alphas):
        raise ShapeMismatch("need at least two positive axis intercepts")
    d2 = [
        [
            ctx.zero() if i == j else alphas[i] * alphas[i] + alphas[j] * alphas[j]
            for j in range(len(alphas))
        ]
        for i in range(len(alphas))
    ]
    metric = SimplexMetric.from_squared_distances(d2, ctx)
    verts, vctx = metric_coordinates(metric)
    return simplex_from_vertices(verts, vctx)


def simplex_from_vertices(verts, ctx: Context) -> Polyhedron:
    """Minimal H-representation of the simplex spanned by n+1 affinely
    independent points in R^n."""
    n = len(verts) - 1
    rows, offs = [], []
    for skip in range(n + 1):
        face = [verts[i] for i in range(n + 1) if i != skip]
        base = face[0]
        if n == 1:
            normal = [ctx.one()]
        else:
            span = Mat.from_rows(
                [[v[k] - base[k] for k in range(n)] for v in face[1:]], ctx
            )
            normal = _hyperplane_normal(span, ctx)
        # orient toward the skipped vertex
        gap = dot(normal, verts[skip]) - dot(normal, base)
        s = ctx.sign(gap)
        if s == 0:
            raise ShapeMismatch("degenerate vertex set")
        if s < 0:
            normal = [-x for x in normal]
        rows.append(normal)
        offs.append(dot(normal, base))
    return Polyhedron.from_rows(rows, offs, ctx)


def _hyperplane_normal(span: Mat, ctx: Context):
    """A nonzero vector orthogonal to all rows of an (n-1) x n matrix."""
    from .matrix import kernel_basis

    basis = kernel_basis(span)
    if len(basis) != 1:
        raise ShapeMismatch("face does not span a hyperplane")
    return basis[0]
