"""Gram-matrix tests for embedding cones into nonnegative orthants.

A cone spanned by rays embeds isometrically into some nonnegative orthant
exactly when the Gram matrix of its rays factors as scale * B B^T with B
entrywise nonnegative (complete positivity).  A cheap necessary condition
is double nonnegativity: nonnegative entries plus positive
semidefiniteness, decided by the one LDL^T of ``matrix``.  No search for
factorizations is attempted here; only certificates are verified, since
no general decision procedure is known.

Irrational ray coordinates are never stored: users supply float rays or
the exact Gram matrix directly, and factor matrices may carry a rational
squared scale so that factors like sqrt(2) * M stay exactly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Context, Scalar
from .errors import ShapeMismatch
from .matrix import Mat, _ldl, dot
from .polyhedra import Cone


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products of m generators."""

    m: int
    G: Mat

    @classmethod
    def from_rows(cls, rows, ctx: Context) -> "GramMatrix":
        G = Mat.from_rows(rows, ctx)
        if G.rows != G.cols:
            raise ShapeMismatch("Gram matrix must be square")
        for i in range(G.rows):
            if ctx.sign(G.data[i][i]) <= 0:
                raise ShapeMismatch("Gram diagonal must be positive (nonzero generators)")
            for j in range(i + 1, G.rows):
                if not ctx.eq(G.data[i][j], G.data[j][i]):
                    raise ShapeMismatch("Gram matrix must be symmetric")
        return cls(G.rows, G)

    @property
    def ctx(self) -> Context:
        return self.G.ctx


def gram_from_rays(C: Cone) -> GramMatrix:
    rows = [[dot(u, v) for v in C.rays] for u in C.rays]
    return GramMatrix.from_rows(rows, C.ctx)


def is_doubly_nonnegative(G: GramMatrix) -> bool:
    """Entrywise nonnegative, and positive semidefinite by ``_ldl``."""
    ctx = G.ctx
    if any(ctx.sign(x) < 0 for row in G.G.data for x in row):
        return False
    return _ldl(G.G.data, ctx) is not None


def verify_cp_decomposition(G: GramMatrix, B: Mat, sq_scale: Scalar = 1) -> bool:
    """Exact check that scale * B B^T = G with B entrywise nonnegative.

    ``sq_scale`` is the square of a common positive factor pulled out of B
    (so B itself stays rational); a passing check certifies that the cone
    of G embeds into the nonnegative orthant of dimension B.cols.
    """
    ctx = G.ctx
    if B.rows != G.m:
        raise ShapeMismatch("factor must have one row per generator")
    scale = ctx.coerce(sq_scale)
    if ctx.sign(scale) <= 0:
        return False
    for row in B.data:
        for x in row:
            if ctx.sign(x) < 0:
                return False
    for i in range(G.m):
        for j in range(G.m):
            prod = scale * dot(B.row(i), B.row(j))
            if not ctx.eq(prod, G.G.data[i][j]):
                return False
    return True
