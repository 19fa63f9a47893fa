"""H-representation polyhedra and their basic geometry.

A polyhedron is the solution set of ``A x >= b`` with no zero row in A.
Nondegeneracy (full column rank of A, equivalently: the set contains no
line) is the standing assumption of every decision procedure here, since a
degenerate set can never sit inside a nonnegative orthant.

Emptiness and full-dimensionality are detected with one interior-point
linear program instead of any vertex enumeration.  Redundancy removal
shoots one ray per inequality from that interior point and runs an n-row
dual LP only for the rows that no shot certifies as facets.  Both LPs are
solved as their duals, which have one row per coordinate and one
nonnegative column per inequality: n rows instead of m, and no free
variables to split.
Boundedness is one certified LP as well, the case u = 0 of the strict
multiplier LP u = A^T lambda, lambda > 0, which also gives realize its
Farkas witnesses.  Recession rays and vertices are still found by
enumerating row subsets, and ``functional_min`` by its own LP, but no
library code calls any of the three (``remove_redundant`` uses the
row-level ``_functional_min_rows``); they stay as public API and because
the benchmark tracer wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .context import Context, Scalar
from .errors import (
    BrokenInvariant,
    DegeneratePolyhedron,
    DimensionTooLarge,
    EmptyOrLowerDimensional,
    EmptyPolyhedron,
    ShapeMismatch,
)
from .matrix import Mat, _tol_key, dot, kernel_basis, normalize, rank, solve_linear
from . import lp

_RAY_DIM_GUARD = 6


@dataclass(frozen=True)
class Polyhedron:
    """A x >= b in R^n; rows of A are inward facet normals."""

    A: Mat
    b: tuple

    @classmethod
    def from_rows(cls, normals, offsets, ctx: Context):
        A = Mat.from_rows(normals, ctx)
        b = tuple(ctx.coerce(x) for x in offsets)
        if A.rows < 1 or A.cols < 1:
            raise ShapeMismatch("need at least one row and one dimension")
        if len(b) != A.rows:
            raise ShapeMismatch("offset count vs row count")
        for row in A.data:
            if all(ctx.sign(x) == 0 for x in row):
                raise ShapeMismatch("zero row in facet matrix")
        return cls(A, b)

    @property
    def ctx(self) -> Context:
        return self.A.ctx

    @property
    def dim(self) -> int:
        return self.A.cols

    @property
    def nfacets(self) -> int:
        return self.A.rows

    def contains(self, point: Sequence[Scalar]) -> bool:
        ctx = self.ctx
        return all(
            ctx.sign(dot(self.A.row(i), point) - self.b[i]) >= 0
            for i in range(self.nfacets)
        )


@dataclass(frozen=True)
class Cone:
    """Finitely generated cone, stored by its extreme rays."""

    dim: int
    rays: tuple
    ctx: Context

    @property
    def is_trivial(self) -> bool:
        return not self.rays


def is_nondegenerate(P: Polyhedron) -> bool:
    return rank(P.A) == P.dim


def require_nondegenerate(P: Polyhedron) -> None:
    if not is_nondegenerate(P):
        raise DegeneratePolyhedron(
            f"facet matrix has rank < {P.dim}; the set contains a line"
        )


# ---------------------------------------------------------------------------
# interior detection and redundancy removal


def interior_point(P: Polyhedron):
    """A point with A x > b strictly, or None if none exists.

    The primal max eps : A x >= b + eps 1, eps <= 1 is solved as its dual
    max b.y - z : A^T y = 0, 1.y + z = 1, (y, z) >= 0, which has n + 1 rows
    and is always optimal (y = 0, z = 1 is feasible and y lies in a
    simplex).  Then eps = -value, and the point x is the dual of that LP
    read off its final tableau: y.A_j >= c_j on the column of row j says
    exactly a_j.x >= b_j + eps.  A positive eps certifies full-dimensional
    nonemptiness; otherwise the system is empty or lies in a hyperplane.
    """
    ctx = P.ctx
    n, m = P.dim, P.nfacets
    rows = [list(P.A.column(k)) + [ctx.zero()] for k in range(n)]
    rows.append([ctx.one()] * (m + 1))
    rhs = [ctx.zero()] * n + [ctx.one()]
    res = lp.simplex_standard(rows, rhs, list(P.b) + [-ctx.one()], ctx)
    if not isinstance(res, lp.Optimal):
        raise BrokenInvariant("interior_point: the dual of max eps is always optimal")
    if ctx.sign(res.value) >= 0:
        return None
    x = tuple(res.dual[:n])
    if not all(ctx.sign(dot(P.A.row(i), x) - P.b[i]) > 0 for i in range(m)):
        raise BrokenInvariant("interior_point: the dual point fails A x > b")
    return x


def _functional_min_rows(normals, offsets, f, ctx):
    """Minimum of f.x over {A x >= b} through the dual LP, or None.

    Solves max b.y : A^T y = f, y >= 0 (n rows, one column per row of A).
    Optimal gives the exact minimum; Unbounded proves the system empty and
    raises EmptyPolyhedron; Infeasible (None) means that the system is
    empty or that f is unbounded below on it.
    """
    n = len(f)
    cols = [[normals[i][k] for i in range(len(normals))] for k in range(n)]
    res = lp.simplex_standard(cols, f, offsets, ctx)
    if isinstance(res, lp.Unbounded):
        raise EmptyPolyhedron("no point satisfies the system")
    if isinstance(res, lp.Infeasible):
        return None
    return res.value


def functional_min(P: Polyhedron, f: Sequence[Scalar]):
    """Exact minimum of f.x over P, or None when the functional is unbounded below.

    Raises EmptyPolyhedron when P is empty.  When the dual of the minimum
    is infeasible, the dual for f = 0 tells the two cases apart: it is
    unbounded exactly when P is empty.
    """
    ctx = P.ctx
    normals = [P.A.row(i) for i in range(P.nfacets)]
    low = _functional_min_rows(normals, list(P.b), [ctx.coerce(v) for v in f], ctx)
    if low is None:
        _functional_min_rows(normals, list(P.b), [ctx.zero()] * P.dim, ctx)
    return low


def remove_redundant(P: Polyhedron) -> Polyhedron:
    """The minimal subsystem defining the same full-dimensional set.

    Duplicated directions are collapsed to their tightest offset first (one
    dict keyed by the normalized row), so no test below sees the classic
    twin-row blind spot (two copies of one inequality shadowing each other).
    Then each row j shoots a ray from the interior point x0 along -a_j
    (Clarkson 1994).  Row k is crossed at t = s_k / (a_k.a_j), its slack
    s_k = a_k.x0 - b_k over its speed, whenever a_k.a_j > 0 (row j itself
    always is).  If exactly one row k is crossed first, the crossing point
    lies on k's hyperplane and strictly inside every other row, so a point
    just past it violates k alone: without k the set would grow, k is a
    facet, and it is kept with no LP.  On a tie (within ``tol`` on the float
    backend) the shot certifies nothing.  Every row that no shot certifies
    gets the LP test: it is kept exactly when minimizing its normal over the
    remaining rows dips below b_j, or is unbounded (the dual LP is
    infeasible; x0 has already shown that the rows are not empty).  That LP
    is the only way a row is dropped.
    """
    ctx = P.ctx
    x0 = interior_point(P)
    if x0 is None:
        raise EmptyOrLowerDimensional(
            "system has no interior point; cannot normalize to a minimal form"
        )
    kept, slot = [], {}
    for row, off in zip(P.A.data, P.b):
        key = _tol_key(normalize(row, ctx), ctx)
        if key not in slot:
            slot[key] = len(kept)
            kept.append([row, off])
            continue
        # same halfspace direction, row = lam * first; keep the tighter offset
        first = kept[slot[key]]
        off = off * dot(first[0], first[0]) / dot(row, first[0])
        if ctx.lt(first[1], off):
            first[1] = off

    m = len(kept)
    slack = [dot(a, x0) - b for a, b in kept]
    gram = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(j + 1):
            gram[j][k] = gram[k][j] = dot(kept[j][0], kept[k][0])
    facets = set()
    for speed in gram:
        hit, tie = None, False
        for k, v in enumerate(speed):
            if ctx.sign(v) <= 0:
                continue
            # compare the crossing times s_k / v and s_hit / speed[hit] undivided
            c = -1 if hit is None else ctx.sign(slack[k] * speed[hit] - slack[hit] * v)
            if c < 0:
                hit, tie = k, False
            elif c == 0:
                tie = True
        if hit is not None and not tie:
            facets.add(hit)

    result = []
    for j, (row_j, b_j) in enumerate(kept):
        if j not in facets:
            others = kept[:j] + kept[j + 1:]
            val = _functional_min_rows(
                [r for r, _ in others], [o for _, o in others], list(row_j), ctx
            )
            if val is not None and not ctx.lt(val, b_j):
                continue
        result.append((row_j, b_j))
    if not result:
        raise EmptyOrLowerDimensional("every inequality turned out removable")
    return Polyhedron.from_rows([r for r, _ in result], [o for _, o in result], ctx)


# ---------------------------------------------------------------------------
# recession cone


def recession_rays(P: Polyhedron) -> Cone:
    """Extreme rays of {v : A v >= 0}; empty for bounded polyhedra."""
    require_nondegenerate(P)
    n, m = P.dim, P.nfacets
    if n > _RAY_DIM_GUARD:
        raise DimensionTooLarge(f"ray enumeration is guarded to n <= {_RAY_DIM_GUARD}")
    ctx = P.ctx
    candidates = []
    if n == 1:
        candidates = [(ctx.one(),), (-ctx.one(),)]
    else:
        for subset in combinations(range(m), n - 1):
            sub = Mat.from_rows([P.A.row(i) for i in subset], ctx)
            basis = kernel_basis(sub)
            if len(basis) != 1:
                continue
            candidates.append(tuple(basis[0]))
            candidates.append(tuple(-x for x in basis[0]))
    rays = []
    seen = set()
    for d in candidates:
        if all(ctx.sign(v) == 0 for v in d):
            continue
        if all(ctx.sign(dot(P.A.row(i), d)) >= 0 for i in range(m)):
            prim = normalize(d, ctx)
            key = _tol_key(prim, ctx)
            if key not in seen:
                seen.add(key)
                rays.append(prim)
    return Cone(n, tuple(rays), ctx)


def _strict_multiplier(P: Polyhedron, u) -> lp.PositivityOutcome:
    """u = A^T lambda with lambda > 0 (Schrijver 1986, sec. 7.8), re-checked.
    Positive carries lambda, NotPositive a v with A v >= 0 and u.v <= 0, not
    both zero; never Inconsistent, as A has full column rank (callers check)."""
    from .frames import BangSystem  # frames imports this module
    system = BangSystem((), P.A.transpose(), tuple(u))
    outcome = lp.decide_positive(system)
    if outcome.verdict == lp.Verdict.INCONSISTENT or not lp.verify_outcome(system, outcome):
        raise BrokenInvariant("a multiplier LP u = A^T lambda, lambda > 0 failed its re-check")
    return outcome


def boundedness(P: Polyhedron) -> lp.PositivityOutcome:
    """Stiemke's alternative: the strict multiplier LP for u = 0.

    With A of full column rank, P is bounded exactly when some y > 0 has
    A^T y = 0: a Positive witness y proves it, and a NotPositive certificate
    v has A v >= 0, A v != 0, so v is a recession direction.
    """
    require_nondegenerate(P)
    return _strict_multiplier(P, [P.ctx.zero()] * P.dim)


def is_bounded(P: Polyhedron) -> bool:
    return boundedness(P).is_positive


# ---------------------------------------------------------------------------
# vertex enumeration (bounded, desk-scale)


def vertices(P: Polyhedron) -> list:
    """All vertices, by solving every full-rank n-subset of tight rows."""
    ctx = P.ctx
    n, m = P.dim, P.nfacets
    out = []
    seen = set()
    for subset in combinations(range(m), n):
        sub = Mat.from_rows([P.A.row(i) for i in subset], ctx)
        x = None
        if rank(sub) == n:
            x = solve_linear(sub, [P.b[i] for i in subset])
        if x is None:
            continue
        if P.contains(x):
            key = _tol_key(x, ctx)
            if key not in seen:
                seen.add(key)
                out.append(tuple(x))
    return out
