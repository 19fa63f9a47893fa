"""H-representation polyhedra and their basic geometry.

A polyhedron is the solution set of ``A x >= b`` with no zero row in A.
Nondegeneracy (full column rank of A, equivalently: the set contains no
line) is the standing assumption of every decision procedure here, since a
degenerate set can never sit inside a nonnegative orthant.

Rows are made primitive once, in the cached view ``primitive_rows``:
a_i = sigma_i v_i, sigma_i > 0, v_i a primitive integer vector (exact).
What depends on a row only up to a positive factor reads it: the LPs and
sign tests here (as v_i x >= beta_i = b_i / sigma_i), the strict
multiplier LP (as the columns v_i with scales sigma_i), hedgehogs and
frames.

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
from functools import cached_property
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
from .matrix import Mat, _numerators, _primitive_rows, _tol_key, dot, kernel_basis, normalize
from .matrix import rank, solve_linear
from . import lp

_RAY_DIM_GUARD = 6


@dataclass(frozen=True)
class Polyhedron:
    """A x >= b in R^n; rows of A are inward facet normals."""

    A: Mat
    b: tuple

    @classmethod
    def from_rows(cls, normals, offsets, ctx: Context, primitive_rows=None):
        A = Mat.from_rows(normals, ctx)
        b = tuple(ctx.coerce(x) for x in offsets)
        if A.rows < 1 or A.cols < 1:
            raise ShapeMismatch("need at least one row and one dimension")
        if len(b) != A.rows:
            raise ShapeMismatch("offset count vs row count")
        for row in A.data:
            if all(ctx.sign(x) == 0 for x in row):
                raise ShapeMismatch("zero row in facet matrix")
        P = cls(A, b)
        if primitive_rows is not None:
            P.__dict__["primitive_rows"] = tuple(primitive_rows)
        return P

    @cached_property
    def primitive_rows(self) -> tuple:
        """(v_i, sigma_i) per row, a_i = sigma_i v_i; from_rows may be given them."""
        return _primitive_rows(self.A.data, self.ctx)

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

    The primal max eps : V x >= beta + eps 1, eps <= 1 is solved as its dual
    max beta.y - z : V^T y = 0, 1.y + z = 1, (y, z) >= 0, which has n + 1 rows
    and is always optimal (y = 0, z = 1 is feasible and y lies in a
    simplex).  Then eps = -value, and the point x is the dual of that LP
    read off its final tableau: y.A_j >= c_j on the column of row j says
    exactly v_j.x >= beta_j + eps.  A positive eps certifies full-dimensional
    nonemptiness; otherwise the system is empty or lies in a hyperplane.
    """
    ctx = P.ctx
    n, m = P.dim, P.nfacets
    V, beta = [v for v, _ in P.primitive_rows], [b / s for (_, s), b in zip(P.primitive_rows, P.b)]
    rows = [[v[k] for v in V] + [ctx.zero()] for k in range(n)]
    rows.append([ctx.one()] * (m + 1))
    rhs = [ctx.zero()] * n + [ctx.one()]
    res = lp.simplex_standard(rows, rhs, beta + [-ctx.one()], ctx)
    if not isinstance(res, lp.Optimal):
        raise BrokenInvariant("interior_point: the dual of max eps is always optimal")
    if ctx.sign(res.value) >= 0:
        return None
    x = tuple(res.dual[:n])
    (X, B), _ = _numerators([x, beta], ctx)  # exact: in integers, over one denominator
    if not all(ctx.sign(dot(v, X) - bi) > 0 for v, bi in zip(V, B)):
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
    dict keyed by v_i; float rows by their unit vector), keeping the first
    row's own normal, so no test below sees the classic twin-row blind spot
    (two copies of one inequality shadowing each other).
    Then each row j shoots a ray from the interior point x0 along -v_j
    (Clarkson 1994).  Row k is crossed at t = s_k / (v_k.v_j), its slack
    s_k = v_k.x0 - beta_k over its speed, whenever v_k.v_j > 0 (row j itself
    always is).  If exactly one row k is crossed first, the crossing point
    lies on k's hyperplane and strictly inside every other row, so a point
    just past it violates k alone: without k the set would grow, k is a
    facet, and it is kept with no LP.  On a tie (within ``tol`` on the float
    backend) the shot certifies nothing; exact shots compare Python ints.
    Every row that no shot certifies gets the LP test: it is kept exactly
    when minimizing v_j over the remaining rows dips below beta_j, or is
    unbounded (the dual LP is infeasible; x0 has already shown that the rows
    are not empty).  That LP is the only way a row is dropped.
    """
    ctx = P.ctx
    x0 = interior_point(P)
    if x0 is None:
        raise EmptyOrLowerDimensional(
            "system has no interior point; cannot normalize to a minimal form"
        )
    kept, slot = [], {}  # [first row's index, v, tightest beta] per direction
    for i, ((v, s), b) in enumerate(zip(P.primitive_rows, P.b)):
        key, beta = (v if ctx.is_exact else _tol_key(normalize(v, ctx), ctx)), b / s
        if key not in slot:
            slot[key] = len(kept)
            kept.append([i, v, beta])
            continue
        first = kept[slot[key]]  # a float twin is lam * first: its offset over lam
        beta = beta if ctx.is_exact else beta * dot(first[1], first[1]) / dot(v, first[1])
        if ctx.lt(first[2], beta):
            first[2] = beta

    V, beta = [v for _, v, _ in kept], [b for _, _, b in kept]
    (X, B), _ = _numerators([x0, beta], ctx)
    slack = [dot(v, X) - bi for v, bi in zip(V, B)]
    gram = [[dot(u, v) for v in V] for u in V]
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
    for j, (i, v, b) in enumerate(kept):
        if j not in facets:
            val = _functional_min_rows(V[:j] + V[j + 1:], beta[:j] + beta[j + 1:], list(v), ctx)
            if val is not None and not ctx.lt(val, b):
                continue
        result.append((P.A.data[i], P.primitive_rows[i][1] * b))
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
    The system reads P's primitive rows, W = V^T with the scales sigma_i:
    column i of A^T is a_i = sigma_i v_i.  Positive carries lambda,
    NotPositive a v with A v >= 0 and u.v <= 0, not both zero; never
    Inconsistent, as A has full column rank (callers check)."""
    from .frames import BangSystem  # frames imports this module
    V, sigma = zip(*P.primitive_rows)
    system = BangSystem((), Mat(tuple(zip(*V)), P.ctx), sigma, tuple(u))
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
