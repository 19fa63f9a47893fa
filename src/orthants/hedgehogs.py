"""Canonical facet-direction sets (hedgehogs).

Two systems that differ only by offsets, row rescaling, rotations, or
duplicated directions have the same orthantness verdict, so the object
that actually matters is the set of facet-normal directions modulo sign:
the hedgehog, drawn as needles on the upper half-sphere.

Exact backend storage never takes square roots: a needle is a row's
primitive integer vector (``Polyhedron.primitive_rows``), only sign-fixed
here so that its last nonzero coordinate is positive, and every angular
comparison is a sign test on inner products.  Needles stay in the input's
coordinates and in the order of their first occurrence: the weighting
system is invariant under rigid motions, so no frame needs to be chosen.

The canonical polyhedron of a hedgehog has all offsets equal to -1.  Its
rows are scaled so that each constraint is tight at a point strictly
inside all the others, which certifies minimality of the system without
ever normalizing to irrational unit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt
from operator import mul

from .context import Context
from .errors import BrokenInvariant, DegeneratePolyhedron
from .matrix import Mat, dot, normalize, rank
from .polyhedra import Polyhedron


@dataclass(frozen=True)
class Hedgehog:
    """An ordered, deduplicated, sign-normalized set of needle directions."""

    dim: int
    needles: tuple
    ctx: Context

    @property
    def count(self) -> int:
        return len(self.needles)


# ---------------------------------------------------------------------------
# needle arithmetic


def _needle(v, ctx):
    """Row v of ``_primitive_rows`` with its last nonzero entry > 0; float: unit."""
    for x in reversed(v):
        s = ctx.sign(x)
        if s != 0:
            v = tuple(v) if s > 0 else tuple(-y for y in v)
            return v if ctx.is_exact else normalize(v, ctx)
    raise ValueError("zero needle")


def _distinct(needles, ctx) -> tuple:
    """Needles less later duplicates: equal exact ones, float |u.w| within tol of 1."""
    if ctx.is_exact:
        return tuple(dict.fromkeys(needles))
    out = []
    for v in needles:
        if not any(abs(abs(dot(v, w)) - 1.0) <= ctx.tol for w in out):
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical polyhedron: offsets -1, minimality certified by tangent points


def _tangent_minimal(G, s) -> bool:
    # rows a_i = v_i k / s_i; row j is strictly slack at the tight point of
    # row i  <=>  a_i.a_j < a_i.a_i  <=>  G_ij s_i < G_ii s_j
    m = len(G)
    for i in range(m):
        for j in range(m):
            if i != j and G[i][j] * s[i] >= G[i][i] * s[j]:
                return False
    return True


def _near_unit_scales(G):
    """(k, s) with rows v_i k / s_i close enough to unit length that offsets
    -1 give a provably minimal system, where s_i = isqrt(G_ii k^2); precision
    is a function of the direction set only, so the result is canonical.

    k is the first power of two from 2^10 with k (1 - max cos^2) >= 16.
    Then cos <= 1 - 8/k for every pair, while |a_i| >= 1 and
    |a_j| <= 1 / (1 - 1/k), so |a_j| cos < |a_i| and one try always passes;
    the integer test still runs, and a failure is a broken invariant.
    """
    m = len(G)
    num, den = 0, 1  # max cos^2 = G_ij^2 / (G_ii G_jj) over acute pairs
    for i in range(m):
        for j in range(i + 1, m):
            if G[i][j] > 0 and G[i][j] * G[i][j] * den > num * G[i][i] * G[j][j]:
                num, den = G[i][j] * G[i][j], G[i][i] * G[j][j]
    k = 1 << 10  # den > num: needles deduplicated
    while 16 * den > k * (den - num):
        k <<= 1
    s = [isqrt(G[i][i] * k * k) for i in range(m)]
    if not _tangent_minimal(G, s):
        raise BrokenInvariant("reduce: near-unit scaling did not certify a minimal system")
    return k, s


def canonical_polyhedron(h: Hedgehog) -> Polyhedron:
    """The representative system of a hedgehog: its needles with offsets -1.

    Exact needles are primitive integer vectors v_i with integer Gram
    matrix G, formed once per unordered pair.  They are kept unscaled when
    the integer test G_ij s_i < G_ii s_j holds with every s_i = 1;
    otherwise row i is v_i k / s_i for the scales of ``_near_unit_scales``,
    one Fraction per entry.  Either way the polyhedron keeps its rows as
    (v_i, k / s_i), so none is taken apart again.  Float needles are unit
    vectors, tangent to the unit sphere.
    """
    ctx, needles, m = h.ctx, h.needles, h.count
    scales, rows = [ctx.one()] * m, needles
    if ctx.is_exact:
        G = [[0] * m for _ in range(m)]
        for (i, u), (j, v) in combinations_with_replacement(enumerate(needles), 2):
            G[i][j] = G[j][i] = sum(map(mul, u, v))
        if _tangent_minimal(G, [1] * m):
            rows = [tuple(map(Fraction, v)) for v in needles]
        else:
            k, s = _near_unit_scales(G)
            scales = [Fraction(k, si) for si in s]
            rows = [tuple(Fraction(x * k, si) for x in v) for v, si in zip(needles, s)]
    return Polyhedron.from_rows(rows, [-ctx.one()] * m, ctx, zip(needles, scales))


def reduce(P: Polyhedron):
    """Canonical (hedgehog, representative polyhedron) of a nondegenerate system."""
    ctx = P.ctx
    h = Hedgehog(P.dim, _distinct([_needle(v, ctx) for v, _ in P.primitive_rows], ctx), ctx)
    if rank(Mat(h.needles, ctx) if ctx.is_exact else P.A) != P.dim:
        raise DegeneratePolyhedron("cannot reduce a degenerate system")
    return h, canonical_polyhedron(h)
