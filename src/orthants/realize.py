"""Isometric realizations of polyhedra inside nonnegative orthants.

A positive facet weighting t of the system A x >= b packages into the map

    x  |->  ( sqrt(t_i) (a_i . x - b_i) )_i ,

an isometry of R^n onto an n-plane whose intersection with the nonnegative
orthant is exactly the image of the polyhedron.  The Gram identity
sum t_i a_i a_i^T = I_n is equivalent to distance preservation for all
point pairs at once, so verifying an embedding never needs square roots:
the identity is checked exactly, and squared image distances are rational.

``orthant_embedding`` is the paper's variant 1: P in R^m, m its facet
count.  The realizers take variant 2 for every input and pad the system
with enough auxiliary halfspaces: a bounded polyhedron (one LP decides
it) joins the standard full-rank orthant family of its dimension, and an
unbounded one joins a sheared copy controlled by its recession cone,
provided that cone sits strictly inside the positive orthant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .context import Context
from .errors import (
    BrokenInvariant,
    InvalidWitness,
    RecessionNotStrictlyPositive,
    UnboundedPolyhedron,
)
from .matrix import Mat, dot, proportional
from .polyhedra import Polyhedron, functional_min, is_bounded, recession_rays
from .polyhedra import require_nondegenerate
from .frames import build, system_from_normals
from .generators import generate_max_rank_orthant
from . import lp


@dataclass(frozen=True)
class Embedding:
    """The data of an isometric (or affine) section map into R^target_dim."""

    source_dim: int
    target_dim: int
    t: tuple
    A_ext: Mat
    b_ext: tuple
    affine: bool = False

    @property
    def ctx(self) -> Context:
        return self.A_ext.ctx

    def map_point_float(self, x) -> tuple:
        """Image of a point, rendered in floats (the scale factors are sqrt t_i)."""
        return tuple(
            sqrt(float(self.t[i]))
            * float(dot(self.A_ext.row(i), x) - self.b_ext[i])
            for i in range(self.target_dim)
        )


def build_embedding(P: Polyhedron, t, system=None) -> Embedding:
    """Package a verified positive weighting of P's system (built if not given)."""
    B = build(P) if system is None else system
    outcome = lp.PositivityOutcome(lp.Verdict.POSITIVE, P.ctx.backend, witness_t=tuple(t))
    if not lp.verify_outcome(B, outcome):
        raise InvalidWitness("t is not a positive solution of the weighting system")
    return Embedding(P.dim, P.nfacets, tuple(t), P.A, P.b)


def affine_embedding(P: Polyhedron) -> Embedding:
    """The weight-free affine section x -> (a_i . x - b_i); no isometry claim."""
    require_nondegenerate(P)
    one = P.ctx.one()
    return Embedding(P.dim, P.nfacets, tuple([one] * P.nfacets), P.A, P.b, affine=True)


def verify_embedding(E: Embedding, sample_points=()) -> bool:
    """Re-check the Gram identity and image nonnegativity from scratch.

    The exact Gram identity alone certifies isometry; sample points are
    additionally required to land inside the orthant.  On the float
    backend pairwise sample distances are compared within tolerance.
    """
    ctx = E.ctx
    n = E.source_dim
    if not E.affine:
        for p in range(n):
            for q in range(p, n):
                acc = sum(
                    E.t[i] * E.A_ext.data[i][p] * E.A_ext.data[i][q]
                    for i in range(E.target_dim)
                )
                target = ctx.one() if p == q else ctx.zero()
                if not ctx.eq(acc, target):
                    return False
    for x in sample_points:
        for i in range(E.target_dim):
            if ctx.sign(dot(E.A_ext.row(i), x) - E.b_ext[i]) < 0:
                return False
    if not ctx.is_exact and not E.affine:
        pts = list(sample_points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                direct = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])) ** 0.5
                mapped_i = E.map_point_float(pts[i])
                mapped_j = E.map_point_float(pts[j])
                image = sum((a - b) ** 2 for a, b in zip(mapped_i, mapped_j)) ** 0.5
                if abs(direct - image) > ctx.tol * max(1.0, direct):
                    return False
    return True


# ---------------------------------------------------------------------------
# padding with auxiliary halfspaces


def _pad_and_embed(P: Polyhedron, aux_normals) -> Embedding:
    ctx = P.ctx
    own = [P.A.row(i) for i in range(P.nfacets)]
    added = []
    for a in aux_normals:
        if any(proportional(a, r, ctx) is not None for r in own):
            continue
        if any(proportional(a, r, ctx) is not None for r in added):
            continue
        added.append(list(ctx.coerce(x) for x in a))
    offsets = []
    for a in added:
        low = functional_min(P, a)
        if low is None:
            raise UnboundedPolyhedron(
                "auxiliary functional unbounded below; recession cone violates setup"
            )
        offsets.append(low - ctx.one())
    ext_rows = [list(r) for r in own] + added
    ext_b = list(P.b) + offsets
    system = system_from_normals(ext_rows, ctx)
    outcome = lp.decide_positive(system)
    if not outcome.is_positive:
        raise BrokenInvariant("realize: the padded system lost its positive weighting")
    return Embedding(
        P.dim, len(ext_rows), outcome.witness_t, Mat.from_rows(ext_rows, ctx), tuple(ext_b)
    )


def orthant_embedding(P: Polyhedron) -> Embedding | None:
    """Variant 1: P in R^m when its own weighting system is Positive, else None."""
    system = build(P)
    outcome = lp.decide_positive(system)
    return build_embedding(P, outcome.witness_t, system) if outcome.is_positive else None


def _pad_with_companion(P: Polyhedron) -> Embedding:
    companion = generate_max_rank_orthant(P.dim, P.ctx)
    return _pad_and_embed(P, [companion.A.row(i) for i in range(companion.nfacets)])


def realize_polytope(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron, any target dimension.

    Joins the facet directions with the standard full-rank orthant family,
    pushing its offsets strictly below the polytope so that no auxiliary
    halfspace touches it; the padded system always admits a positive
    weighting because it contains a full-rank orthant subsystem.
    """
    if not is_bounded(P):
        raise UnboundedPolyhedron("use realize_unbounded for unbounded inputs")
    return _pad_with_companion(P)


def realize_unbounded(P: Polyhedron) -> Embedding:
    """Orthant section of an unbounded polyhedron whose recession rays are
    strictly positive componentwise; refuses the boundary case.  A bounded
    input is padded as in realize_polytope, with boundedness decided once.

    The auxiliary family is x_i and x_i -+ eps x_j with eps below every
    ratio r_i / r_j over the recession rays, which keeps all auxiliary
    functionals bounded below on the polyhedron.
    """
    if is_bounded(P):
        return _pad_with_companion(P)
    ctx = P.ctx
    cone = recession_rays(P)
    for r in cone.rays:
        if any(ctx.sign(x) <= 0 for x in r):
            raise RecessionNotStrictlyPositive(
                "a recession ray touches the orthant boundary; this case is refused"
            )
    n = P.dim
    half = Fraction(1, 2) if ctx.is_exact else 0.5
    eps = ctx.coerce(Fraction(1, 2)) if ctx.is_exact else 0.5
    for r in cone.rays:
        for i in range(n):
            for j in range(n):
                if i != j:
                    bound = r[i] / r[j] * half
                    if ctx.lt(bound, eps):
                        eps = bound
    aux = []
    for i in range(n):
        e = [ctx.zero()] * n
        e[i] = ctx.one()
        aux.append(tuple(e))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            minus = [ctx.zero()] * n
            minus[i] = ctx.one()
            minus[j] = -eps
            aux.append(tuple(minus))
            plus = [ctx.zero()] * n
            plus[i] = ctx.one()
            plus[j] = eps
            aux.append(tuple(plus))
    return _pad_and_embed(P, aux)
