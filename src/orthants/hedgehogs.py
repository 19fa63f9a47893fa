"""Canonical facet-direction sets (hedgehogs) and their equivalence.

Two systems that differ only by offsets, row rescaling, rotations, or
duplicated directions have the same orthantness verdict, so the object
that actually matters is the set of facet-normal directions modulo sign:
the hedgehog, drawn as needles on the upper half-sphere.

Exact backend storage never takes square roots: a needle is a row's
primitive integer vector (``Polyhedron.primitive_rows``), only sign-fixed
here so that its last nonzero coordinate is positive, and every angular
comparison is a sign test on inner products.  Needles stay in the input's
coordinates and in the order of their first occurrence: the weighting
system is invariant under rigid motions, and equality of hedgehogs is
decided on normalized Gram matrices, so no frame needs to be chosen.

The canonical polyhedron of a hedgehog has all offsets equal to -1.  Its
rows are scaled so that each constraint is tight at a point strictly
inside all the others, which certifies minimality of the system without
ever normalizing to irrational unit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .context import Context
from .errors import (
    BrokenInvariant,
    DegeneratePolyhedron,
    DimensionMismatch,
    TooManyNeedles,
)
from .matrix import Mat, _primitive_rows, dot, normalize, rank
from .polyhedra import Polyhedron

_NEEDLE_GUARD = 9


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
    matrix G.  They are kept unscaled when the integer test
    G_ij s_i < G_ii s_j holds with every s_i = 1; otherwise row i is
    v_i k / s_i for the scales of ``_near_unit_scales``.  Either way the
    polyhedron keeps its rows as (v_i, k / s_i), so none is taken apart
    again.  Float needles are unit vectors, tangent to the unit sphere.
    """
    ctx = h.ctx
    scales = [ctx.one()] * h.count
    if ctx.is_exact:
        G = [[dot(u, v) for v in h.needles] for u in h.needles]
        if not _tangent_minimal(G, [1] * h.count):
            k, s = _near_unit_scales(G)
            scales = [Fraction(k, si) for si in s]
    rows = [v if f == 1 else [x * f for x in v] for v, f in zip(h.needles, scales)]
    return Polyhedron.from_rows(rows, [-ctx.one()] * h.count, ctx, zip(h.needles, scales))


def reduce(P: Polyhedron):
    """Canonical (hedgehog, representative polyhedron) of a nondegenerate system."""
    ctx = P.ctx
    h = Hedgehog(P.dim, _distinct([_needle(v, ctx) for v, _ in P.primitive_rows], ctx), ctx)
    if rank(Mat(h.needles, ctx) if ctx.is_exact else P.A) != P.dim:
        raise DegeneratePolyhedron("cannot reduce a degenerate system")
    return h, canonical_polyhedron(h)


def from_needles(directions, dim: int, ctx: Context) -> Hedgehog:
    """Hedgehog from raw direction vectors, in the caller's frame and order.

    Each direction is made primitive (``matrix._primitive_rows``) or unit
    and sign-fixed, and later duplicates modulo sign are dropped; nothing is
    rotated, so hedgehogs built this way stay comparable coordinatewise.
    """
    rows = _primitive_rows([[ctx.coerce(x) for x in v] for v in directions], ctx)
    return Hedgehog(dim, _distinct([_needle(v, ctx) for v, _ in rows], ctx), ctx)


def union(h1: Hedgehog, h2: Hedgehog) -> Hedgehog:
    """Union of needle sets; both hedgehogs must share ambient coordinates."""
    if h1.dim != h2.dim:
        raise DimensionMismatch("union needs a common ambient dimension")
    if h1.ctx.backend != h2.ctx.backend:
        raise DimensionMismatch("union needs a common scalar backend")
    return from_needles(h1.needles + h2.needles, h1.dim, h1.ctx)


# ---------------------------------------------------------------------------
# equality, via normalized Gram data


def _norm_entry(G, norms, i, j, ctx):
    """(sign, squared normalized value) of Gram entry; exact rationals or floats."""
    g = G[i][j]
    s = ctx.sign(g)
    if ctx.is_exact:
        return s, Fraction(g * g, norms[i] * norms[j])
    return s, float(g * g / (norms[i] * norms[j]))


def _abs_close(a, b, ctx) -> bool:
    if ctx.is_exact:
        return a == b
    return abs(a - b) <= 4 * ctx.tol


def equal(h1: Hedgehog, h2: Hedgehog) -> bool:
    """Same hedgehog up to relabeling, sign flips and a rigid motion.

    Configurations of needles are congruent exactly when their Gram
    matrices match after a permutation and a diagonal sign change; the
    search is brute force with multiset pruning, which is ample for the
    guarded needle counts.
    """
    for h in (h1, h2):
        if h.count > _NEEDLE_GUARD:
            raise TooManyNeedles(f"equality is guarded to <= {_NEEDLE_GUARD} needles")
    if h1.dim != h2.dim or h1.count != h2.count:
        return False
    ctx = h1.ctx
    m = h1.count
    G1 = [[dot(u, v) for v in h1.needles] for u in h1.needles]
    G2 = [[dot(u, v) for v in h2.needles] for u in h2.needles]
    n1 = [G1[i][i] for i in range(m)]
    n2 = [G2[i][i] for i in range(m)]

    def signature(G, norms, i):
        vals = sorted(
            _norm_entry(G, norms, i, j, ctx)[1] for j in range(m) if j != i
        )
        return vals

    sig1 = [signature(G1, n1, i) for i in range(m)]
    sig2 = [signature(G2, n2, i) for i in range(m)]

    def sig_match(a, b):
        return all(_abs_close(x, y, ctx) for x, y in zip(a, b))

    perm = [None] * m
    used = [False] * m

    def extend(i):
        if i == m:
            return _signs_consistent(G1, G2, n1, n2, perm, ctx)
        for k in range(m):
            if used[k] or not sig_match(sig1[i], sig2[k]):
                continue
            ok = True
            for j in range(i):
                s1, v1 = _norm_entry(G1, n1, i, j, ctx)
                s2, v2 = _norm_entry(G2, n2, k, perm[j], ctx)
                if not _abs_close(v1, v2, ctx) or (s1 == 0) != (s2 == 0):
                    ok = False
                    break
            if ok:
                perm[i] = k
                used[k] = True
                if extend(i + 1):
                    return True
                used[k] = False
                perm[i] = None
        return False

    return extend(0)


def _signs_consistent(G1, G2, n1, n2, perm, ctx) -> bool:
    """Check a sign vector sigma exists with sigma_i sigma_j matching the
    sign discrepancies; two-coloring of the nonzero-Gram graph."""
    m = len(perm)
    color = [0] * m  # 0 unknown, +1 / -1 assigned
    for start in range(m):
        if color[start]:
            continue
        color[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(m):
                if j == i:
                    continue
                s1, _ = _norm_entry(G1, n1, i, j, ctx)
                s2, _ = _norm_entry(G2, n2, perm[i], perm[j], ctx)
                if s1 == 0:
                    continue
                need = s1 * s2  # required sigma_i * sigma_j
                if color[j] == 0:
                    color[j] = color[i] * need
                    stack.append(j)
                elif color[i] * color[j] != need:
                    return False
    return True
