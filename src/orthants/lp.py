"""Exact linear programming with certificates.

The engine is a dense two-phase simplex over the scalar backend, pivoting
by Bland's rule (smallest eligible index enters, ratio ties broken by the
smallest basic index), which guarantees termination in exact arithmetic.
Every outcome carries an exactly checkable object: an optimal point with
its dual vector, a Farkas ray proving infeasibility, or an improving ray
proving unboundedness.

On top of the engine sits the strict-positivity decision for the facet
weighting system Q t = c: verdict Positive comes with a witness t > 0,
verdicts NotPositive/Inconsistent come with a refutation vector y such
that yQ >= 0, y.c <= 0 and (yQ, y.c) != 0.  No strictly positive t can
then satisfy Q t = c, since 0 >= y.c = (yQ).t would be a sum of
nonnegative terms, positive unless yQ = 0, in which case y.c = 0 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .context import Context, Scalar
from .errors import OrthantsError, ShapeMismatch
from .matrix import Mat, dot, primitive

_MAX_PIVOTS = 200_000


# ---------------------------------------------------------------------------
# problem and outcome containers


@dataclass(frozen=True)
class LpProblem:
    """Maximize objective . x  subject to  eq_lhs x = eq_rhs  and bounds.

    ``lower_bounds[j]`` is a scalar lower bound for variable j, or None for
    a free variable.  There are no upper bounds; encode them with extra
    variables.
    """

    objective: tuple
    eq_lhs: Mat
    eq_rhs: tuple
    lower_bounds: tuple

    def __post_init__(self):
        n = self.eq_lhs.cols
        if len(self.objective) != n or len(self.lower_bounds) != n:
            raise ShapeMismatch("objective/bounds length vs column count")
        if len(self.eq_rhs) != self.eq_lhs.rows:
            raise ShapeMismatch("rhs length vs row count")


@dataclass(frozen=True)
class Optimal:
    x: tuple
    value: Scalar
    dual: tuple


@dataclass(frozen=True)
class Infeasible:
    dual_ray: tuple


@dataclass(frozen=True)
class Unbounded:
    primal_ray: tuple


class Verdict:
    POSITIVE = "Positive"
    NOT_POSITIVE = "NotPositive"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class PositivityOutcome:
    """Result of the strict-positivity decision for Q t = c."""

    verdict: str
    backend: str
    witness_t: Optional[tuple] = None
    certificate_y: Optional[tuple] = None
    numeric_marginal: bool = False
    eps_star: Optional[Scalar] = None

    @property
    def is_positive(self) -> bool:
        return self.verdict == Verdict.POSITIVE

    @property
    def certified(self) -> bool:
        return self.backend == "exact"


# ---------------------------------------------------------------------------
# the simplex engine (standard form: maximize c.x, A x = b, x >= 0)


class _Tableau:
    """Dense tableau [A' | I | b'], where A', b' are A, b with each row
    flipped so that b' >= 0, and the identity block holds the artificials.

    Rows are never dropped.  An artificial that phase 1 cannot drive out
    stays basic at 0 on a row whose structural entries are all zero; no
    later pivot touches that row, so the basis B stays square and
    nonsingular.  The identity block therefore always holds B^-1, and the
    dual y = c_B B^-1 is read off the z-line on the artificial columns
    instead of by a second elimination.
    """

    def __init__(self, A_rows, b, n, ctx: Context):
        self.ctx = ctx
        self.m = len(A_rows)
        self.n = n
        self.flip = []
        self.T = []
        for i in range(self.m):
            unit = [ctx.one() if k == i else ctx.zero() for k in range(self.m)]
            if ctx.sign(b[i]) < 0:
                self.T.append([-x for x in A_rows[i]] + unit + [-b[i]])
                self.flip.append(-1)
            else:
                self.T.append(list(A_rows[i]) + unit + [b[i]])
                self.flip.append(1)
        self.basis = [n + i for i in range(self.m)]

    @property
    def width(self):
        return self.n + self.m

    def zline(self, costs):
        """Reduced-cost row plus negated objective value for the current basis."""
        ctx = self.ctx
        z = list(costs) + [ctx.zero()]
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if ctx.sign(cb) != 0:
                trow = self.T[i]
                for j in range(self.width + 1):
                    z[j] -= cb * trow[j]
        return z

    def pivot(self, r, e, z):
        ctx = self.ctx
        trow = self.T[r]
        p = trow[e]
        inv = ctx.one() / p
        self.T[r] = trow = [x * inv for x in trow]
        for i in range(len(self.T)):
            if i == r:
                continue
            f = self.T[i][e]
            if ctx.sign(f) != 0:
                row = self.T[i]
                self.T[i] = [x - f * y for x, y in zip(row, trow)]
        f = z[e]
        if ctx.sign(f) != 0:
            for j in range(self.width + 1):
                z[j] -= f * trow[j]
        self.basis[r] = e

    def bland(self, costs, allowed_width):
        """Run Bland pivoting; return the final z-line, or an entering column
        index (as ('unbounded', e, z)) when no ratio limits the step."""
        ctx = self.ctx
        z = self.zline(costs)
        for _ in range(_MAX_PIVOTS):
            enter = None
            for j in range(allowed_width):
                if ctx.sign(z[j]) > 0:
                    enter = j
                    break
            if enter is None:
                return ("optimal", z)
            leave = None
            best = None
            for i in range(len(self.T)):
                a = self.T[i][enter]
                if ctx.sign(a) > 0:
                    ratio = self.T[i][-1] / a
                    if best is None or ctx.lt(ratio, best) or (
                        ctx.eq(ratio, best) and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return ("unbounded", enter, z)
            self.pivot(leave, enter, z)
        raise OrthantsError("simplex pivot limit exceeded")

    def dual(self, costs, z):
        """y = c_B B^-1 in the original row signs: on artificial column n+k
        the z-line holds costs[n+k] - (c_B B^-1)_k."""
        n = self.n
        return [f * (costs[n + k] - z[n + k]) for k, f in enumerate(self.flip)]


def simplex_standard(A_rows: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
                     c: Sequence[Scalar], ctx: Context):
    """Maximize c.x over {x >= 0 : A x = b}; returns Optimal/Infeasible/Unbounded.

    Certificates come from the final basis alone: an Optimal carries the
    dual y with y.b = value and y.A_j >= c_j for every column j, and an
    Infeasible carries the negated phase-1 dual r with r.A <= 0, r.b > 0.
    """
    m = len(A_rows)
    n = len(c)
    tab = _Tableau(A_rows, b, n, ctx)

    if m:
        phase1 = [ctx.zero()] * n + [-ctx.one()] * m
        res = tab.bland(phase1, tab.width)
        if res[0] != "optimal":
            raise OrthantsError("phase-1 objective cannot be unbounded")
        z = res[1]
        if ctx.sign(-z[-1]) < 0:
            return Infeasible(tuple(-v for v in tab.dual(phase1, z)))
        # drive leftover artificials out of the basis where a structural
        # column allows it; the rest sit on redundant rows and stay basic
        for i in range(m):
            if tab.basis[i] >= n:
                enter = next(
                    (j for j in range(n) if ctx.sign(tab.T[i][j]) != 0), None
                )
                if enter is not None:
                    tab.pivot(i, enter, z)

    phase2 = list(c) + [ctx.zero()] * m
    res = tab.bland(phase2, n)
    if res[0] == "unbounded":
        enter = res[1]
        ray = [ctx.zero()] * n
        ray[enter] = ctx.one()
        for i, bi in enumerate(tab.basis):
            if bi < n:
                ray[bi] = -tab.T[i][enter]
        return Unbounded(tuple(ray))
    z = res[1]
    x = [ctx.zero()] * n
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = tab.T[i][-1]
    if ctx.is_exact:
        _check_exact(A_rows, b, x)
    return Optimal(tuple(x), -z[-1], tuple(tab.dual(phase2, z)))


def _check_exact(A_rows, b, x):
    for row, bi in zip(A_rows, b):
        if dot(row, x) != bi:
            raise OrthantsError("simplex returned an inexact point")
    if any(v < 0 for v in x):
        raise OrthantsError("simplex returned an infeasible point")


# ---------------------------------------------------------------------------
# general problems with free variables and lower bounds


def solve(prob: LpProblem):
    """Solve a general LpProblem by shifting bounds and splitting free variables."""
    ctx = prob.eq_lhs.ctx
    n = prob.eq_lhs.cols
    shift = [lb if lb is not None else ctx.zero() for lb in prob.lower_bounds]

    cols = []  # (var_index, sign) per standard-form column
    for j in range(n):
        cols.append((j, 1))
        if prob.lower_bounds[j] is None:
            cols.append((j, -1))

    A_rows = []
    for i in range(prob.eq_lhs.rows):
        row = prob.eq_lhs.row(i)
        A_rows.append([row[j] * s for j, s in cols])
    b = [
        prob.eq_rhs[i] - dot(prob.eq_lhs.row(i), shift)
        for i in range(prob.eq_lhs.rows)
    ]
    c = [prob.objective[j] * s for j, s in cols]
    offset = dot(prob.objective, shift)

    res = simplex_standard(A_rows, b, c, ctx)
    if isinstance(res, Infeasible):
        return res
    if isinstance(res, Unbounded):
        ray = [ctx.zero()] * n
        for (j, s), v in zip(cols, res.primal_ray):
            ray[j] += s * v
        return Unbounded(tuple(ray))
    x = list(shift)
    for (j, s), v in zip(cols, res.x):
        x[j] += s * v
    return Optimal(tuple(x), res.value + offset, res.dual)


# ---------------------------------------------------------------------------
# strict positivity of Q t = c


def decide_positive(system) -> PositivityOutcome:
    """Decide whether Q t = c admits a strictly positive solution.

    Auxiliary program: maximize eps subject to Q t = c, t_i >= eps, eps <= 1.
    Substituting t = eps . 1 + s and eps = 1 - w turns it into the standard
    form  max -w : Q s - (Q 1) w = c - Q 1, (s, w) >= 0.  The optimum eps*
    is positive exactly when a positive solution exists; the dual vector at
    the optimum is the refutation certificate otherwise.
    """
    Q: Mat = system.Q
    c = list(system.c)
    ctx = Q.ctx
    m = Q.cols
    q1 = [sum(row) for row in Q.data]
    A_rows = [list(Q.row(i)) + [-q1[i]] for i in range(Q.rows)]
    b = [c[i] - q1[i] for i in range(Q.rows)]
    obj = [ctx.zero()] * m + [-ctx.one()]

    res = simplex_standard(A_rows, b, obj, ctx)
    if isinstance(res, Unbounded):
        raise OrthantsError("auxiliary program is bounded by construction")
    if isinstance(res, Infeasible):
        y = [-v for v in res.dual_ray]
        return PositivityOutcome(
            Verdict.INCONSISTENT, ctx.backend, certificate_y=_certificate(y, ctx)
        )
    eps = ctx.one() + res.value
    s = ctx.sign(eps)
    if s > 0:
        t = [res.x[i] + eps for i in range(m)]
        return PositivityOutcome(
            Verdict.POSITIVE, ctx.backend, witness_t=tuple(t), eps_star=eps
        )
    marginal = (not ctx.is_exact) and s == 0
    return PositivityOutcome(
        Verdict.NOT_POSITIVE,
        ctx.backend,
        certificate_y=_certificate(res.dual, ctx),
        numeric_marginal=marginal,
        eps_star=eps,
    )


def verify_outcome(system, outcome: PositivityOutcome) -> bool:
    """Re-check an outcome by direct arithmetic, trusting nothing from the solver."""
    Q: Mat = system.Q
    c = list(system.c)
    ctx = Q.ctx
    if outcome.verdict == Verdict.POSITIVE:
        t = outcome.witness_t
        if t is None or len(t) != Q.cols:
            return False
        if any(ctx.sign(v) <= 0 for v in t):
            return False
        residual = [dot(Q.row(i), t) - c[i] for i in range(Q.rows)]
        return all(ctx.is_zero(r) for r in residual)
    y = outcome.certificate_y
    if y is None or len(y) != Q.rows:
        return False
    yq = [dot(y, Q.column(j)) for j in range(Q.cols)]
    yc = dot(y, c)
    if any(ctx.sign(v) < 0 for v in yq) or ctx.sign(yc) > 0:
        return False
    return any(ctx.sign(v) > 0 for v in yq) or ctx.sign(yc) < 0


def _certificate(vec, ctx: Context) -> tuple:
    """Exact certificates are scaled to integers with content 1."""
    return primitive(vec) if ctx.is_exact else tuple(vec)
