"""Isometric realizations of polyhedra inside nonnegative orthants.

A positive facet weighting t of the system A x >= b packages into the map

    x  |->  ( sqrt(t_i) (a_i . x - b_i) )_i ,

an isometry of R^n onto an n-plane whose intersection with the nonnegative
orthant is exactly the image of the polyhedron.  The Gram identity
sum t_i a_i a_i^T = I_n is equivalent to distance preservation for all
point pairs at once, so verifying an embedding never needs square roots:
the identity is checked exactly, and squared image distances are rational.

``orthant_embedding`` is the paper's variant 1: P in R^m, m its facet
count.  ``realize_polytope`` and ``realize_unbounded`` take variant 2 by
one route: pad P with the shear family x_i -+ eps x_j, x_i, and give every
added row u a multiplier lambda >= 0 with A^T lambda = u, re-checked in one
place, so that the offset lambda.b - 1 is strictly slack by weak duality
(Schrijver 1986, sec. 7.3 and 7.8).  The multipliers come from the strict
multiplier LP of ``polyhedra`` (u = A^T lambda, lambda > 0), by one of two maps:

* Bounded P (Stiemke: u = 0 is Positive): eps = 1, where the family is the
  full-rank orthant family ``generate_max_rank_orthant``, and lambda =
  mu + s y, mu from one echelon pass on A^T and y the Stiemke witness.
* Unbounded P: n Farkas LPs u = e_i give lambda_i > 0, so the recession
  cone lies strictly inside the orthant, and row u gets sum_k u_k lambda_k.
  eps is the largest power of two <= 1/2 with eps lambda_j <= lambda_i
  entrywise.  A refusal names the recession direction of the failing LP.

Any eps > 0 keeps the padded system Positive: the family spans Sym(n) with
the identity inside its cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

from .context import Context
from .errors import (
    BrokenInvariant,
    InvalidWitness,
    RecessionNotStrictlyPositive,
    UnboundedPolyhedron,
)
from .matrix import Mat, dot, normalize, solve_columns
from .polyhedra import Polyhedron, _strict_multiplier, boundedness, require_nondegenerate
from .frames import build, system_from_normals
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


def _direction_key(a, ctx: Context) -> tuple:
    """One key per line through the origin: the normalized vector with its
    first nonzero entry positive, rounded by ``tol`` on the float backend."""
    d = normalize(a, ctx)
    if next(x for x in d if ctx.sign(x) != 0) < 0:
        d = tuple(-x for x in d)
    return d if ctx.is_exact else tuple(round(x / ctx.tol) for x in d)


def _stiemke_multipliers(P: Polyhedron, y):
    """The multiplier map of a bounded input, from its Stiemke witness y.

    One echelon pass on [A^T | U] gives mu with A^T mu = u for every added
    row u; y > 0 with A^T y = 0 shifts it to lambda = mu + s y,
    s = max(0, max_i -mu_i / y_i), which is >= 0.
    """
    ctx = P.ctx

    def multipliers(added):
        out = []
        for mu in solve_columns(P.A.transpose(), added):
            if mu is None:
                raise BrokenInvariant("realize: an added row is outside the row space of A")
            s = max([ctx.zero()] + [-m / w for m, w in zip(mu, y)])
            out.append([m + s * w for m, w in zip(mu, y)])
        return out

    return multipliers


def _pad_and_embed(P: Polyhedron, aux_normals, multipliers) -> Embedding:
    """P's rows, then every auxiliary normal whose line is new, each pushed
    strictly below P by its multiplier.

    ``multipliers`` maps the added rows to lambda >= 0 with A^T lambda = u,
    re-checked here.  Then u.x = lambda.(A x) >= lambda.b on P (weak
    duality), so u.x >= lambda.b - 1 is strictly slack.
    """
    ctx = P.ctx
    own = [P.A.row(i) for i in range(P.nfacets)]
    seen, added = {_direction_key(r, ctx) for r in own}, []
    for a in aux_normals:
        if (key := _direction_key(a, ctx)) not in seen:
            seen.add(key)
            added.append(list(a))
    At = P.A.transpose()
    offsets = []
    for u, lam in zip(added, multipliers(added), strict=True):
        if any(ctx.sign(v) < 0 for v in lam) or not all(
            ctx.is_zero(dot(col, lam) - v) for col, v in zip(At.data, u)
        ):
            raise BrokenInvariant("realize: a multiplier failed lambda >= 0, A^T lambda = u")
        offsets.append(dot(lam, P.b) - ctx.one())
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


def _shear_family(n: int, eps, ctx: Context) -> list:
    """x_i - eps x_j and x_j - eps x_i for each i < j, the same with + eps,
    then x_i; at eps = 1 its lines are generate_max_rank_orthant(n)'s, in order."""
    unit = [[ctx.one() if k == i else ctx.zero() for k in range(n)] for i in range(n)]
    return [[x + s * y for x, y in zip(unit[p], unit[q])] for s in (-eps, eps)
            for i, j in combinations(range(n), 2) for p, q in ((i, j), (j, i))] + unit


def _farkas_witnesses(P: Polyhedron) -> list:
    """lambda_i > 0 with A^T lambda_i = e_i for every coordinate i; raises
    RecessionNotStrictlyPositive with a recession direction otherwise.

    By Farkas' lemma every nonzero v with A v >= 0 is > 0 exactly when each
    e_i is in {A^T lam : lam > 0} (A of full column rank, as ``boundedness``
    checks first).  Else the certificate y for e_i has A y >= 0, A y != 0
    and y_i <= 0: a recession direction off the open orthant.
    """
    ctx = P.ctx
    witnesses = []
    for i in range(P.dim):
        e = tuple(ctx.one() if k == i else ctx.zero() for k in range(P.dim))
        outcome = _strict_multiplier(P, e)
        if not outcome.is_positive:
            ray = ", ".join(ctx.format(v) for v in outcome.certificate_y)
            raise RecessionNotStrictlyPositive(
                f"the recession direction y = ({ray}) has A y >= 0 and y_{i + 1} <= 0, "
                "so the recession cone touches or leaves the orthant boundary; "
                "this case is refused"
            )
        witnesses.append(outcome.witness_t)
    return witnesses


def _realize(P: Polyhedron, bounded_only: bool) -> Embedding:
    """The one realization route; see the module docstring."""
    ctx = P.ctx
    bounded = boundedness(P)
    if bounded.is_positive:
        eps, multipliers = ctx.one(), _stiemke_multipliers(P, bounded.witness_t)
    elif bounded_only:
        raise UnboundedPolyhedron("use realize_unbounded for unbounded inputs")
    else:
        by_row = list(zip(*_farkas_witnesses(P)))
        ratio = min(min(col) / max(col) for col in by_row)
        eps = ctx.one() / 2
        while ratio < eps:
            eps /= 2

        def multipliers(added):
            return [[dot(u, col) for col in by_row] for u in added]

    return _pad_and_embed(P, _shear_family(P.dim, eps, ctx), multipliers)


def realize_polytope(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron; raises
    UnboundedPolyhedron otherwise."""
    return _realize(P, bounded_only=True)


def realize_unbounded(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron, or of an unbounded
    one whose recession rays are strictly positive; refuses the rest."""
    return _realize(P, bounded_only=False)
