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

Row order is fixed once and for all (diagonal pairs by increasing index,
then off-diagonal pairs lexicographically) so that witnesses, certificates
and file dumps are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Context
from .matrix import Mat, pivot_columns
from .polyhedra import Polyhedron, require_nondegenerate


@dataclass(frozen=True)
class BangSystem:
    """Coefficient matrix Q, right-hand side c, and the pair index of rows."""

    pairs: tuple  # (p, q) zero-based with p <= q
    Q: Mat
    c: tuple


def coordinate_pairs(n: int) -> tuple:
    """(p,p) for p = 0..n-1, then (p,q) with p < q in lexicographic order."""
    diag = [(p, p) for p in range(n)]
    off = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return tuple(diag + off)


def system_from_normals(normals, ctx: Context) -> BangSystem:
    """Build Q t = c from a plain list of normal vectors."""
    n = len(normals[0])
    pairs = coordinate_pairs(n)
    rows = [[a[p] * a[q] for a in normals] for p, q in pairs]
    c = tuple(ctx.one() if p == q else ctx.zero() for p, q in pairs)
    return BangSystem(pairs, Mat.from_rows(rows, ctx), c)


def build(P: Polyhedron) -> BangSystem:
    """The weighting system of a nondegenerate polyhedron; m columns, C(n+1,2) rows."""
    require_nondegenerate(P)
    return system_from_normals([P.A.row(i) for i in range(P.nfacets)], P.ctx)


def rank_and_consistency(system: BangSystem) -> tuple:
    """(rank Q, whether Q t = c is solvable) from one echelon pass on [Q | c].

    rank Q counts the pivots left of the rhs column, and the system is
    solvable exactly when the rhs column takes no pivot.
    """
    Q = system.Q
    aug = Mat(tuple(row + (ci,) for row, ci in zip(Q.data, system.c)), Q.ctx)
    pivots = pivot_columns(aug)
    return sum(p < Q.cols for p in pivots), Q.cols not in pivots


def poly_rank(P: Polyhedron) -> int:
    """rank Q; satisfies n <= rank <= n(n+1)/2 for nondegenerate inputs."""
    return rank_and_consistency(build(P))[0]


def is_consistent(P: Polyhedron) -> bool:
    """True when Q t = c is solvable at all (sign-free).

    Orthant polyhedra always pass this test; the converse fails, so this is
    the cheap necessary condition, not the decision.
    """
    return rank_and_consistency(build(P))[1]
