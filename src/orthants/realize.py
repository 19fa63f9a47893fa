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
added row u a multiplier lambda >= 0 with A^T lambda = u, so that the
offset lambda.b - 1 is strictly slack by weak duality (Schrijver 1986,
sec. 7.3 and 7.8).  Multipliers are linear in u: both routes hand
``_pad_and_embed`` generators g_1..g_n with A^T g_k = e_k, and bounded
inputs also a kernel vector y > 0 with A^T y = 0.  Row u gets
lambda = sum_k u_k g_k + s y, with the least s >= 0 that makes it
nonnegative (s = 0 without y).  The generators and y are checked once,
and per row only lambda >= 0, all on integer numerators.  They come from:

* Bounded P (Stiemke: u = 0 is Positive): eps = 1, where the family is the
  full-rank orthant family ``generate_max_rank_orthant``; the generators
  from one echelon pass on A^T against e_1..e_n, and y the Stiemke
  witness of the strict multiplier LP of ``polyhedra``.
* Unbounded P: n Farkas LPs u = e_i (the same strict multiplier LP) give
  generators g_i > 0, so the recession cone lies strictly inside the
  orthant.  eps is the largest power of two <= 1/2 with eps g_j <= g_i
  entrywise.  A refusal names the recession direction of the failing LP.

Any eps > 0 keeps the padded system Positive, and its weighting comes in
closed form, with no LP: the family's rows at equal weights resolve a
multiple of I, and on a triangular basis of the family they also resolve
M = sum_P a_i a_i^T, so P's rows at a small power of two delta and the
family at 1/c less delta times M's coefficients resolve I with every
weight > 0 (``_padded_weighting``).  ``lp.verify_outcome`` re-checks that
weighting exactly on the padded system before an embedding is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf, sqrt

from .context import Context
from .errors import (
    BrokenInvariant,
    InvalidWitness,
    RecessionNotStrictlyPositive,
    UnboundedPolyhedron,
)
from .matrix import Mat, _numerators, _ratio, _tol_key, dot, solve_columns
from .hedgehogs import _needle
from .polyhedra import Polyhedron, _strict_multiplier, boundedness, require_nondegenerate
from .frames import build, system_from_primitive
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


def _pad_and_embed(P: Polyhedron, eps, generators, y=None) -> Embedding:
    """P's rows, then every row sigma v of ``_shear_family(n, eps)``, in the
    form (v, sigma) of ``_primitive_rows``, whose line is new, each pushed
    strictly below P by its multiplier; weighted by ``_padded_weighting``
    and re-checked by ``lp.verify_outcome``, or BrokenInvariant.

    ``generators`` are g_1..g_n with A^T g_k = e_k (None where
    ``solve_columns`` found e_k out of reach), and on bounded inputs y > 0
    has A^T y = 0.  Both are checked here once, on the integer numerators
    of ``_numerators``: with A = N / d and the vectors over one denominator
    D, A^T g_k = e_k reads N^T G_k = d D e_k.  Row u gets, by linearity,
    lambda = mu + s y with mu = sum_k u_k g_k and s = max(0, max_i -mu_i / y_i)
    (s = 0 without y), so A^T lambda = u holds and only lambda >= 0 is
    checked per row, on the same numerators.  Then u.x = lambda.(A x) >=
    lambda.b on P (weak duality), so u.x >= lambda.b - 1 is strictly slack;
    lambda.b is read off the products g_k.b and y.b, taken once.  One scalar
    is built per row, its offset.  A family row whose line P or an earlier
    family row already carries is dropped, and its weight goes to that
    carrier.
    """
    ctx, m = P.ctx, P.nfacets
    family = _shear_family(P.dim, eps, ctx)
    # row_of_line: each line to the padded row that carries it
    row_of_line, split, carriers = {}, [], []
    for i, (v, _) in enumerate(P.primitive_rows):
        row_of_line.setdefault(_tol_key(_needle(v, ctx), ctx), i)
    for v, s in family:
        r = row_of_line.setdefault(_tol_key(_needle(v, ctx), ctx), m + len(split))
        if r == m + len(split):
            split.append((v, s))
        carriers.append(r)
    added = [[s * x for x in v] for v, s in split]
    if None in generators:  # solve_columns found A^T g = e_k inconsistent
        k = generators.index(None)
        raise BrokenInvariant(f"realize: multiplier generator {k + 1} failed A^T g = e_{k + 1}")
    shift = y is not None
    vectors, den = _numerators([*generators, y] if shift else generators, ctx)
    rows, a_den = _numerators(P.A.data, ctx)
    # A^T v over a_den * den, column by column of A
    images = [[dot(col, v) for col in zip(*rows)] for v in vectors]
    for k, image in enumerate(images[:P.dim]):
        if not all(ctx.eq(x, int(j == k) * a_den * den) for j, x in enumerate(image)):
            raise BrokenInvariant(f"realize: multiplier generator {k + 1} failed A^T g = e_{k + 1}")
    if shift and (any(ctx.sign(w) <= 0 for w in vectors[-1])
                  or any(not ctx.is_zero(x) for x in images[-1])):
        raise BrokenInvariant("realize: the multiplier shift y failed y > 0, A^T y = 0")
    (b,), b_den = _numerators([P.b], ctx)
    products = [dot(v, b) for v in vectors]
    offsets = []
    for v, sigma in split:  # row sigma v = coeffs / q
        p, q = (sigma.numerator, sigma.denominator) if ctx.is_exact else (sigma, 1)
        coeffs = [p * x for x in v]
        lam, lam_b = [0] * P.nfacets, 0
        for k, c in enumerate(coeffs):
            if c:
                lam = [x + c * g for x, g in zip(lam, vectors[k])]
                lam_b += c * products[k]
        # s = s_num / s_den, compared by cross-multiplying (y's numerators are > 0)
        s_num, s_den = 0, 1
        if shift:
            for x, w in zip(lam, vectors[-1]):
                if -x * s_den > s_num * w:
                    s_num, s_den = -x, w
            lam = [x * s_den + s_num * w for x, w in zip(lam, vectors[-1])]
            lam_b = lam_b * s_den + s_num * products[-1]
        if any(ctx.sign(x) < 0 for x in lam):
            raise BrokenInvariant("realize: a multiplier failed lambda >= 0")
        scale = q * den * b_den * s_den
        offsets.append(_ratio(lam_b - scale, scale, ctx))
    ext_rows = [list(r) for r in P.A.data] + added
    ext_b = list(P.b) + offsets
    padded = P.primitive_rows + tuple(split)
    system = system_from_primitive(padded, ctx)
    t = _padded_weighting(P, eps, family, padded, carriers, system)
    outcome = lp.PositivityOutcome(lp.Verdict.POSITIVE, ctx.backend, witness_t=t)
    if not lp.verify_outcome(system, outcome):
        raise BrokenInvariant("realize: the padded system lost its positive weighting")
    return Embedding(P.dim, len(ext_rows), t, Mat.from_rows(ext_rows, ctx), tuple(ext_b))


def _padded_weighting(P: Polyhedron, eps, family, padded, carriers, system) -> tuple:
    """t > 0 with sum_r t_r a_r a_r^T = I over the padded rows, in closed form.

    The rows a_f of ``_shear_family(n, eps)`` resolve c I, c = 1 + 2(n - 1)
    (1 + eps^2): the four shear rows of a pair {p, q} sum to 2 (1 + eps^2)
    (E_pp + E_qq).  M = sum_P a_i a_i^T is sum_F s_f a_f a_f^T on the
    triangular basis e_p + eps e_q (p < q), e_i: s_pq = M_pq / eps,
    s_i = M_ii - sum_{q > i} s_iq - eps^2 sum_{p < i} s_pi, and s_f = 0 on
    the other rows.  With delta the largest power of two that has
    2 delta c max(s) <= 1, P's rows get delta and family row f gets
    1/c - delta s_f >= 1/(2c), so the weights resolve I.  ``carriers[f]``
    is the padded row r that carries row f's line; when r is not f itself,
    f's weight goes to r times |a_f|^2 / |a_r|^2 (sigma_f^2 / sigma_r^2 on
    primitive rows).

    Exact, all in integers: sigma_i^2 = omega_i / D for P's rows, E = 1/eps,
    C = c E^2, S_f = D E s_f and delta = 2^e; every weight not folded is an
    integer over C D E 2^max(-e, 0).  M's entries are read off W's rows.
    """
    ctx, n, m = P.ctx, P.dim, P.nfacets
    (omega,), D = _numerators([[s * s for _, s in P.primitive_rows]], ctx)
    N = {pair: dot(row[:m], omega) for pair, row in zip(system.pairs, system.W.data)}
    E = eps.denominator if ctx.is_exact else 1 / eps
    E2 = E * E
    C = E2 + 2 * (n - 1) * (E2 + 1)
    pairs = list(combinations(range(n), 2))
    S = [E2 * N[p, q] if sign > 0 and p < q else 0
         for sign in (-1, 1) for i, j in pairs for p, q in ((i, j), (j, i))]
    S += [E * N[i, i] - E2 * sum(N[i, q] for q in range(i + 1, n))
          - sum(N[p, i] for p in range(i)) for i in range(n)]
    # 2 delta c max(s) <= 1 reads x delta <= y; exact x > 0 as trace M > 0
    x, y = 2 * C * max(S), D * E2 * E
    if not (0 < x < inf and y < inf):  # float under- or overflow
        raise BrokenInvariant("realize: the padded system lost its positive weighting")

    def fits(e):
        return x * (1 << e) <= y if e >= 0 else x <= y * (1 << -e)

    e = 0
    while fits(e + 1):
        e += 1
    while not fits(e):
        e -= 1
    delta_num, delta_den = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    num = [C * D * E * delta_num] * m + [0] * (len(padded) - m)
    for (v, sigma), r, s_f in zip(family, carriers, S):
        w = D * E2 * E * delta_den - C * s_f * delta_num
        if padded[r] != (v, sigma):
            u, tau = padded[r]
            w = w * (sigma * sigma * dot(v, v)) / (tau * tau * dot(u, u))
        num[r] += w
    return tuple(_ratio(w, C * D * E * delta_den, ctx) for w in num)


def orthant_embedding(P: Polyhedron) -> Embedding | None:
    """Variant 1: P in R^m when its own weighting system is Positive, else None."""
    system = build(P)
    outcome = lp.decide_positive(system)
    return build_embedding(P, outcome.witness_t, system) if outcome.is_positive else None


def _units(n: int, ctx: Context) -> list:
    """e_1..e_n as backend rows."""
    return [[ctx.one() if k == i else ctx.zero() for k in range(n)] for i in range(n)]


def _shear_family(n: int, eps, ctx: Context) -> list:
    """x_i - eps x_j and x_j - eps x_i for each i < j, the same with + eps,
    then x_i, as rows (v, sigma) of ``_primitive_rows``; at eps = 1 its
    lines are generate_max_rank_orthant(n)'s, in order.  Exact eps is 2^-k,
    so v = 2^k e_p -+ e_q is primitive with sigma = eps."""
    one, lead, tail, sigma = ((1, eps.denominator, 1, eps) if ctx.is_exact
                              else (1.0, 1.0, eps, 1.0))
    unit = [tuple(one * (k == i) for k in range(n)) for i in range(n)]
    return [(tuple(lead * x + s * y for x, y in zip(unit[p], unit[q])), sigma)
            for s in (-tail, tail) for i, j in combinations(range(n), 2)
            for p, q in ((i, j), (j, i))] + [(v, ctx.one()) for v in unit]


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
    for i, e in enumerate(_units(P.dim, ctx)):
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
        eps, y = ctx.one(), bounded.witness_t
        generators = solve_columns(P.A.transpose(), _units(P.dim, ctx))
    elif bounded_only:
        raise UnboundedPolyhedron("use realize_unbounded for unbounded inputs")
    else:
        generators, y = _farkas_witnesses(P), None
        ratio = min(min(col) / max(col) for col in zip(*generators))
        eps = ctx.one() / 2
        while ratio < eps:
            eps /= 2
    return _pad_and_embed(P, eps, generators, y)


def realize_polytope(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron; raises
    UnboundedPolyhedron otherwise."""
    return _realize(P, bounded_only=True)


def realize_unbounded(P: Polyhedron) -> Embedding:
    """Isometric orthant section of a bounded polyhedron, or of an unbounded
    one whose recession rays are strictly positive; refuses the rest."""
    return _realize(P, bounded_only=False)
