"""The facet weighting system behind every orthantness verdict.

For a polyhedron with facet normals a_1 .. a_m in R^n, consider unknown
positive weights t_i, one per facet.  The map sending x to the vector of
scaled slacks sqrt(t_i) (a_i . x - b_i) is an isometry onto its image
exactly when the weighted normals resolve the identity:

    sum_i t_i a_i a_i^T = I_n .

Reading the upper triangle of that matrix identity row by row gives a
linear system Q t = c with n(n+1)/2 equations: one per coordinate pair
(p, q), with coefficient a_ip a_iq in column i, and right-hand side 1 on
diagonal pairs and 0 off the diagonal.  A strictly positive solution t is
precisely an orthant realization of the polyhedron; the rank of Q is a
rigid-motion invariant that stratifies the whole theory.

With a_i = sigma_i v_i, v_i primitive (read from ``primitive_rows``, not
made here), column i of Q is sigma_i^2 times the integer column W_i of the
v_ip v_iq.  A positive column scale keeps rank, pivots, solvability and
signs, so everything exact runs on W.

Row order is fixed once and for all (diagonal pairs by increasing index,
then off-diagonal pairs lexicographically) so that witnesses, certificates
and file dumps are byte-stable.
"""

from __future__ import annotations

from .context import Context
from .matrix import Mat, _primitive_rows, pivot_columns
from .polyhedra import Polyhedron, require_nondegenerate


class BangSystem:
    """Q t = c as integer columns W with one positive scale each,
    Q = W diag(scales), and the pairs (p, q) of its rows.  Exact: W is an
    integer Mat and the scales are positive Fractions; float: every scale
    is 1.  Q itself is built only when read, which ``--dump-bang`` does.
    """

    def __init__(self, pairs, W: Mat, scales, c):
        self.pairs, self.W, self.scales, self.c = tuple(pairs), W, tuple(scales), tuple(c)
        self._Q = None

    @property
    def Q(self) -> Mat:
        if self._Q is None:
            rows = (tuple(w * s for w, s in zip(row, self.scales)) for row in self.W.data)
            self._Q = Mat(tuple(rows), self.W.ctx)
        return self._Q


def coordinate_pairs(n: int) -> tuple:
    """(p,p) for p = 0..n-1, then (p,q) with p < q in lexicographic order."""
    diag = [(p, p) for p in range(n)]
    off = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return tuple(diag + off)


def system_from_primitive(rows, ctx: Context) -> BangSystem:
    """Q t = c for normals sigma_i v_i given as rows (v_i, sigma_i): W = (v_ip v_iq)."""
    pairs = coordinate_pairs(len(rows[0][0]))
    c = tuple(ctx.one() if p == q else ctx.zero() for p, q in pairs)
    W = Mat(tuple(tuple(v[p] * v[q] for v, _ in rows) for p, q in pairs), ctx)
    return BangSystem(pairs, W, [s * s for _, s in rows], c)


def system_from_normals(normals, ctx: Context) -> BangSystem:
    """Q t = c from a plain list of normal vectors."""
    return system_from_primitive(_primitive_rows(normals, ctx), ctx)


def build(P: Polyhedron) -> BangSystem:
    """The weighting system of a nondegenerate polyhedron; m columns, C(n+1,2) rows."""
    require_nondegenerate(P)
    return system_from_primitive(P.primitive_rows, P.ctx)


def rank_and_consistency(system: BangSystem) -> tuple:
    """(rank Q, whether Q t = c is solvable) from one echelon pass on [W | c].

    rank Q counts the pivots left of the rhs column, and the system is
    solvable exactly when the rhs column takes no pivot.
    """
    W = system.W
    aug = Mat(tuple(row + (ci,) for row, ci in zip(W.data, system.c)), W.ctx)
    pivots = pivot_columns(aug)
    return sum(p < W.cols for p in pivots), W.cols not in pivots
