"""Canonical facet-direction sets (hedgehogs) and their equivalence.

Two systems that differ only by offsets, row rescaling, rotations, or
duplicated directions have the same orthantness verdict, so the object
that actually matters is the set of facet-normal directions modulo sign:
the hedgehog, drawn as needles on the upper half-sphere.

Exact backend storage never takes square roots: a needle is kept as its
primitive integer representative (content 1, last nonzero coordinate
positive) together with its squared norm, and every angular comparison is
a sign test on inner products.  Equality of hedgehogs is decided on
normalized Gram matrices, which makes it independent of the ambient frame,
so the staircase rotation is cosmetic; it is applied exactly whenever the
required square roots happen to be rational, and always on the float
backend.

The canonical polyhedron of a hedgehog has all offsets equal to -1.  Its
rows are scaled so that each constraint is tight at a point strictly
inside all the others, which certifies minimality of the system without
ever normalizing to irrational unit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .context import Context
from .errors import (
    BrokenInvariant,
    DegeneratePolyhedron,
    DimensionMismatch,
    TooManyNeedles,
)
from .matrix import Mat, dot, normalize, pivot_columns
from .polyhedra import Polyhedron, is_nondegenerate

_NEEDLE_GUARD = 9


@dataclass(frozen=True)
class Hedgehog:
    """An ordered, deduplicated, sign-normalized set of needle directions."""

    dim: int
    needles: tuple
    ctx: Context
    staircase: bool = False

    @property
    def count(self) -> int:
        return len(self.needles)


# ---------------------------------------------------------------------------
# needle arithmetic


def _sign_fix(v, ctx):
    """Flip so the last coordinate that is nonzero becomes positive."""
    for x in reversed(v):
        s = ctx.sign(x)
        if s != 0:
            return tuple(v) if s > 0 else tuple(-y for y in v)
    raise ValueError("zero needle")


def canonical_needle(v, ctx):
    """Sign-fixed primitive (exact) or unit (float) representative of a direction."""
    return normalize(_sign_fix([ctx.coerce(x) for x in v], ctx), ctx)


def _proportional(u, v, ctx) -> bool:
    if ctx.is_exact:
        return u == v  # canonical representatives are unique
    return abs(abs(dot(u, v)) - 1.0) <= ctx.tol


def _dedup(needles, ctx):
    out = []
    for v in needles:
        if not any(_proportional(v, w, ctx) for w in out):
            out.append(v)
    return out


def _reorder_prefix(needles, n, ctx):
    """Move the first n-1 independent needles (scan order) to the front.

    They are the first n-1 pivot columns of the needles-as-columns matrix.
    """
    chosen = pivot_columns(Mat.from_rows(needles, ctx).transpose())[: n - 1]
    rest = [v for i, v in enumerate(needles) if i not in chosen]
    return [needles[i] for i in chosen] + rest


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _staircase_rotation(needles, n, ctx):
    """Rotate so prefix needle k has support in the first k coordinates.

    Returns rotated needles, or None when the rotation would need
    irrational entries (exact backend only).
    """
    gs = []

    def orthogonalize(v):
        w = [ctx.coerce(x) for x in v]
        for g, gg in gs:
            coef = dot(w, g) / gg
            if ctx.sign(coef) != 0:
                w = [a - coef * b for a, b in zip(w, g)]
        return w

    for v in needles[: n - 1]:
        w = orthogonalize(v)
        gs.append((w, dot(w, w)))
    basis_i = 0
    while len(gs) < n and basis_i < n:
        e = [ctx.one() if k == basis_i else ctx.zero() for k in range(n)]
        w = orthogonalize(e)
        if any(ctx.sign(x) != 0 for x in w):
            gs.append((w, dot(w, w)))
        basis_i += 1
    if len(gs) < n:
        return None

    if ctx.is_exact:
        roots = [_fraction_sqrt(gg) for _, gg in gs]
        if any(r is None for r in roots):
            return None
    else:
        roots = [gg ** 0.5 for _, gg in gs]
    qs = [[x / r for x in g] for (g, _), r in zip(gs, roots)]
    return [tuple(dot(v, q) for q in qs) for v in needles]


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
    worst = Fraction(0)
    for i in range(m):
        for j in range(i + 1, m):
            if G[i][j] > 0:
                worst = max(worst, Fraction(G[i][j] * G[i][j], G[i][i] * G[j][j]))
    spread = 1 - worst  # strictly positive: needles deduplicated
    k = 1 << 10
    while 16 > k * spread:
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
    v_i k / s_i for the scales of ``_near_unit_scales``, and the Fraction
    rows are built only for that k.  Float needles are unit vectors and
    already tangent to the unit sphere.
    """
    ctx = h.ctx
    rows = list(h.needles)
    if ctx.is_exact:
        ints = [[x.numerator for x in v] for v in rows]
        G = [[dot(u, v) for v in ints] for u in ints]
        if not _tangent_minimal(G, [1] * len(G)):
            k, s = _near_unit_scales(G)
            rows = [tuple(x * Fraction(k, si) for x in v) for v, si in zip(rows, s)]
    minus_one = -ctx.one()
    return Polyhedron.from_rows(rows, [minus_one] * len(rows), ctx, minimal=True)


def _canonicalize(directions, n, ctx, rotate: bool) -> Hedgehog:
    needles = _dedup([canonical_needle(v, ctx) for v in directions], ctx)
    needles = _reorder_prefix(needles, n, ctx)
    staircase = False
    if rotate:
        rotated = _staircase_rotation(needles, n, ctx)
        if rotated is not None:
            needles = [canonical_needle(v, ctx) for v in rotated]
            staircase = True
    return Hedgehog(n, tuple(needles), ctx, staircase)


def reduce(P: Polyhedron):
    """Canonical (hedgehog, representative polyhedron) of a nondegenerate system."""
    if not is_nondegenerate(P):
        raise DegeneratePolyhedron("cannot reduce a degenerate system")
    h = _canonicalize([P.A.row(i) for i in range(P.nfacets)], P.dim, P.ctx, rotate=True)
    return h, canonical_polyhedron(h)


def from_needles(directions, dim: int, ctx: Context) -> Hedgehog:
    """Hedgehog from raw direction vectors, keeping the caller's frame.

    Deduplicates and sign-normalizes but does not rotate, so several
    hedgehogs built this way stay comparable coordinatewise.
    """
    return _canonicalize(directions, dim, ctx, rotate=False)


def union(h1: Hedgehog, h2: Hedgehog) -> Hedgehog:
    """Union of needle sets; both hedgehogs must share ambient coordinates."""
    if h1.dim != h2.dim:
        raise DimensionMismatch("union needs a common ambient dimension")
    if h1.ctx.backend != h2.ctx.backend:
        raise DimensionMismatch("union needs a common scalar backend")
    return _canonicalize(
        list(h1.needles) + list(h2.needles), h1.dim, h1.ctx, rotate=False
    )


# ---------------------------------------------------------------------------
# equality and subhedgehogs, via normalized Gram data


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


def is_subhedgehog(h1: Hedgehog, h2: Hedgehog) -> bool:
    """True when some size-matching subset of h2's needles equals h1."""
    from itertools import combinations

    for h in (h1, h2):
        if h.count > _NEEDLE_GUARD:
            raise TooManyNeedles(f"subhedgehog is guarded to <= {_NEEDLE_GUARD} needles")
    if h1.dim != h2.dim or h1.count > h2.count:
        return False
    for subset in combinations(range(h2.count), h1.count):
        sub = Hedgehog(h2.dim, tuple(h2.needles[i] for i in subset), h2.ctx)
        if equal(h1, sub):
            return True
    return False
