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
with enough auxiliary halfspaces, each certified rather than enumerated
(Schrijver 1986, sec. 7.3 and 7.8):

* One Stiemke LP decides boundedness.  A bounded polyhedron joins the
  standard full-rank orthant family of its dimension; every added row u
  gets a multiplier lambda >= 0 with A^T lambda = u, read off one echelon
  pass and the Stiemke witness, and the offset lambda.b - 1 keeps it
  strictly slack by weak duality.  No LP per row.
* An unbounded polyhedron joins a sheared copy of the coordinate family,
  provided its recession cone sits strictly inside the positive orthant.
  By Farkas' lemma that is one strict-positivity LP per coordinate, and
  the shear eps is a minimum over the rays that small LPs compute without
  listing them; the offsets are LP minima.
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
from .matrix import Mat, dot, normalize, solve_columns
from .polyhedra import Polyhedron, _functional_min_rows, _System, boundedness, functional_min
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


def _direction_key(a, ctx: Context) -> tuple:
    """One key per line through the origin: the normalized vector with its
    first nonzero entry positive, rounded by ``tol`` on the float backend."""
    d = normalize(a, ctx)
    if next(x for x in d if ctx.sign(x) != 0) < 0:
        d = tuple(-x for x in d)
    return d if ctx.is_exact else tuple(round(x / ctx.tol) for x in d)


def _multipliers(P: Polyhedron, y, added) -> list:
    """lambda >= 0 with A^T lambda = u for every added row u, each re-checked.

    One echelon pass on [A^T | U] gives mu with A^T mu = u for every u; the
    Stiemke witness y > 0 with A^T y = 0 shifts it to lambda = mu + s y,
    s = max(0, max_i -mu_i / y_i).  Then u.x = lambda.(A x) >= lambda.b on
    P (weak duality), so u.x >= lambda.b - 1 is strictly slack.
    """
    ctx = P.ctx
    At = P.A.transpose()
    out = []
    for u, mu in zip(added, solve_columns(At, added)):
        if mu is None:
            raise BrokenInvariant("realize: an added row is outside the row space of A")
        s = max([ctx.zero()] + [-m / w for m, w in zip(mu, y)])
        lam = [m + s * w for m, w in zip(mu, y)]
        if any(ctx.sign(v) < 0 for v in lam) or not all(
            ctx.is_zero(dot(col, lam) - v) for col, v in zip(At.data, u)
        ):
            raise BrokenInvariant("realize: a multiplier failed lambda >= 0, A^T lambda = u")
        out.append(lam)
    return out


def _pad_and_embed(P: Polyhedron, aux_normals, stiemke=None) -> Embedding:
    """P's rows, then every auxiliary normal whose line is new, each pushed
    strictly below P: by multipliers when a Stiemke witness proves P bounded,
    else by one LP per added row."""
    ctx = P.ctx
    own = [P.A.row(i) for i in range(P.nfacets)]
    seen = {_direction_key(r, ctx) for r in own}
    added = []
    for a in aux_normals:
        a = [ctx.coerce(x) for x in a]
        key = _direction_key(a, ctx)
        if key not in seen:
            seen.add(key)
            added.append(a)
    if stiemke is None:
        offsets = []
        for a in added:
            low = functional_min(P, a)
            if low is None:
                raise UnboundedPolyhedron(
                    "auxiliary functional unbounded below; recession cone violates setup"
                )
            offsets.append(low - ctx.one())
    else:
        offsets = [dot(lam, P.b) - ctx.one() for lam in _multipliers(P, stiemke, added)]
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


def _pad_with_companion(P: Polyhedron, stiemke) -> Embedding:
    companion = generate_max_rank_orthant(P.dim, P.ctx)
    rows = [companion.A.row(i) for i in range(companion.nfacets)]
    return _pad_and_embed(P, rows, stiemke)


def realize_polytope(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron, any target dimension.

    One Stiemke LP proves P bounded with a witness y > 0, A^T y = 0.  The
    facet directions are joined with the standard full-rank orthant family,
    whose offsets come from multipliers shifted along y and sit strictly
    below the polytope, so no auxiliary halfspace touches it; the padded
    system always admits a positive weighting because it contains a
    full-rank orthant subsystem.
    """
    bounded = boundedness(P)
    if not bounded.is_positive:
        raise UnboundedPolyhedron("use realize_unbounded for unbounded inputs")
    return _pad_with_companion(P, bounded.witness_t)


def _strictly_positive_cone(P: Polyhedron) -> bool:
    """Whether every nonzero v with A v >= 0 is strictly positive.

    By cone duality that holds exactly when every e_i lies in the interior
    of the dual cone, which is cone(rows of A) by Farkas' lemma; with A of
    full column rank that interior is {A^T lam : lam > 0}.  So the test is
    one strict-positivity LP per coordinate, each Positive witness re-checked.
    """
    ctx = P.ctx
    At = P.A.transpose()
    for i in range(P.dim):
        e = tuple(ctx.one() if k == i else ctx.zero() for k in range(P.dim))
        system = _System(At, e)
        outcome = lp.decide_positive(system)
        if not outcome.is_positive:
            return False
        if not lp.verify_outcome(system, outcome):
            raise BrokenInvariant("realize: a Farkas multiplier failed its re-check")
    return True


def _shear_eps(P: Polyhedron):
    """min(1/2, min over recession rays r and i != j of r_i / (2 r_j)).

    With every ray strictly positive, {v : A v >= 0, v_j = 1} is the
    polytope spanned by the rays scaled to v_j = 1, so the smallest ratio
    r_i / r_j is the minimum of v_i over it: one n-row dual LP per pair.
    """
    ctx = P.ctx
    n = P.dim
    half = Fraction(1, 2) if ctx.is_exact else 0.5
    eps = half
    unit = [[ctx.one() if k == i else ctx.zero() for k in range(n)] for i in range(n)]
    own = [P.A.row(i) for i in range(P.nfacets)]
    offsets = [ctx.zero()] * P.nfacets + [ctx.one(), -ctx.one()]
    for j in range(n):
        rows = own + [unit[j], [-x for x in unit[j]]]
        for i in range(n):
            if i == j:
                continue
            low = _functional_min_rows(rows, offsets, unit[i], ctx)
            if low is None:
                raise BrokenInvariant("realize: a ray slice v_j = 1 is empty or unbounded")
            bound = low * half
            if ctx.lt(bound, eps):
                eps = bound
    return eps


def realize_unbounded(P: Polyhedron) -> Embedding:
    """Orthant section of a polyhedron whose recession rays are strictly
    positive componentwise; refuses the boundary case.

    One Stiemke LP decides boundedness; a bounded input is padded as in
    realize_polytope, offsets from its witness.  Otherwise n Farkas LPs
    test the recession cone without listing its rays, and the auxiliary
    family is x_i and x_i -+ eps x_j with eps below every ratio r_i / r_j
    over the rays (n(n-1) more LPs), which keeps every auxiliary functional
    bounded below on the polyhedron; its offsets are LP minima.
    """
    bounded = boundedness(P)
    if bounded.is_positive:
        return _pad_with_companion(P, bounded.witness_t)
    if not _strictly_positive_cone(P):
        raise RecessionNotStrictlyPositive(
            "a recession ray touches the orthant boundary; this case is refused"
        )
    ctx = P.ctx
    n = P.dim
    eps = _shear_eps(P)
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
