"""H-representation polyhedra and their basic geometry.

A polyhedron is the solution set of ``A x >= b`` with no zero row in A.
Nondegeneracy (full column rank of A, equivalently: the set contains no
line) is the standing assumption of every decision procedure here, since a
degenerate set can never sit inside a nonnegative orthant.

Emptiness and full-dimensionality are detected with one interior-point
linear program instead of any vertex enumeration; redundancy removal runs
one n-row dual LP per inequality.  Both LPs are solved as their duals,
which have one row per coordinate and one nonnegative column per
inequality: n rows instead of m, and no free variables to split.
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
from typing import NamedTuple, Sequence

from .context import Context, Scalar
from .errors import (
    BrokenInvariant,
    DegeneratePolyhedron,
    DimensionTooLarge,
    EmptyOrLowerDimensional,
    EmptyPolyhedron,
    ShapeMismatch,
)
from .matrix import Mat, dot, kernel_basis, normalize, proportional, rank, solve_linear
from . import lp

_RAY_DIM_GUARD = 6


@dataclass(frozen=True)
class Polyhedron:
    """A x >= b in R^n; rows of A are inward facet normals."""

    A: Mat
    b: tuple
    minimal: bool = False

    @classmethod
    def from_rows(cls, normals, offsets, ctx: Context, minimal: bool = False):
        A = Mat.from_rows(normals, ctx)
        b = tuple(ctx.coerce(x) for x in offsets)
        if A.rows < 1 or A.cols < 1:
            raise ShapeMismatch("need at least one row and one dimension")
        if len(b) != A.rows:
            raise ShapeMismatch("offset count vs row count")
        for row in A.data:
            if all(ctx.sign(x) == 0 for x in row):
                raise ShapeMismatch("zero row in facet matrix")
        return cls(A, b, minimal)

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

    def subsystem(self, row_idx: Sequence[int]) -> "Polyhedron":
        rows = [self.A.row(i) for i in row_idx]
        offs = [self.b[i] for i in row_idx]
        return Polyhedron.from_rows(rows, offs, self.ctx)


class _System(NamedTuple):
    """Q t = c, the two fields that lp.decide_positive and lp.verify_outcome read."""

    Q: Mat
    c: tuple


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

    Duplicated directions are collapsed to their tightest offset first, so
    the per-row LP test never sees the classic twin-row blind spot (two
    copies of one inequality shadowing each other).  Then row i is kept
    exactly when minimizing its normal over the remaining rows dips below
    b_i, or is unbounded (the dual LP is infeasible; the interior point
    has already shown that the rows are not empty).
    """
    ctx = P.ctx
    if interior_point(P) is None:
        raise EmptyOrLowerDimensional(
            "system has no interior point; cannot normalize to a minimal form"
        )
    kept = []
    for i in range(P.nfacets):
        row_i, b_i = P.A.row(i), P.b[i]
        merged = False
        for pos, (row_k, b_k, _) in enumerate(kept):
            lam = proportional(row_k, row_i, ctx)
            if lam is not None and ctx.sign(lam) > 0:
                # same halfspace direction; keep the tighter offset
                if ctx.lt(b_k, b_i / lam):
                    kept[pos] = (row_k, b_i / lam, kept[pos][2])
                merged = True
                break
        if not merged:
            kept.append((row_i, b_i, i))

    result = []
    for j, (row_j, b_j, orig) in enumerate(kept):
        others = [kept[k] for k in range(len(kept)) if k != j]
        val = _functional_min_rows(
            [r for r, _, _ in others], [o for _, o, _ in others], list(row_j), ctx
        )
        if val is None or ctx.lt(val, b_j):
            result.append((row_j, b_j))
    if not result:
        raise EmptyOrLowerDimensional("every inequality turned out removable")
    return Polyhedron.from_rows(
        [r for r, _ in result], [o for _, o in result], ctx, minimal=True
    )


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
            key = tuple(prim) if ctx.is_exact else tuple(round(v / ctx.tol) for v in prim)
            if key not in seen:
                seen.add(key)
                rays.append(prim)
    return Cone(n, tuple(rays), ctx)


def _strict_multiplier(P: Polyhedron, u) -> lp.PositivityOutcome:
    """u = A^T lambda with lambda > 0 (Schrijver 1986, sec. 7.8), re-checked.
    Positive carries lambda, NotPositive a v with A v >= 0 and u.v <= 0, not
    both zero; never Inconsistent, as A has full column rank (callers check)."""
    system = _System(P.A.transpose(), tuple(u))
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
            key = (
                tuple(x)
                if ctx.is_exact
                else tuple(round(float(v) / ctx.tol) for v in x)
            )
            if key not in seen:
                seen.add(key)
                out.append(tuple(x))
    return out
