"""Exact linear programming with certificates.

The engine is a dense two-phase simplex.  On the exact backend floats
choose the basis and exact arithmetic proves it (Applegate, Cook, Dash &
Espinoza 2007; Gleixner, Steffy & Wolter 2016): the simplex first runs on
float copies of the data, and only its final basis is kept.  Exact data is
integer columns over one denominator each, and the float copy is their
int/int quotients.  A basic artificial column is a unit vector e_k, so it
touches row k alone: two exact integer solves on the k x k block of the k
structural basic columns give the primal point and the dual vector, each
over its least common denominator (``matrix._solve_integers``).  The
answer is accepted only when they pass the integer optimality or Farkas
checks, which run on every row and column of the LP; Fractions are built
only for the answer.  As the proof judges any basis, the float run prices
by Dantzig's rule (largest reduced cost), and hands a phase to Bland's rule
after a run of degenerate pivots.  Whenever the float run or a check fails,
the same LP runs through the exact simplex by Bland's rule (smallest
eligible index enters, ratio ties to the smallest basic index), which
terminates in exact arithmetic and is the reference route.  No float number
reaches an exact answer.  The float backend runs that simplex once, in floats.

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

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .context import FLOAT, Context, Scalar
from .errors import OrthantsError, ShapeMismatch
from .matrix import Mat, _numerators, _solve_integers, dot, primitive

_MAX_PIVOTS = 200_000
_MAX_DEGENERATE = 50  # degenerate Dantzig pivots in a row before Bland's rule


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
    A guess tableau (the float run that only picks a basis to prove) stores
    [A' | b'], with artificial k still named n + k; only structural columns enter.

    Rows are never dropped.  An artificial that phase 1 cannot drive out
    stays basic at 0 on a row whose structural entries are all zero; no
    later pivot touches that row, so the basis B stays square and
    nonsingular.  The identity block therefore always holds B^-1, and the
    dual y = c_B B^-1 is read off the z-line on the artificial columns
    instead of by a second elimination; a guess tableau has no dual.

    Sign tests compare against ``tol``: 0 on the exact backend, ``ctx.tol``
    on the float one.  An entry x is positive when x > tol, negative when
    x < -tol and zero when |x| <= tol, the rule of ``Context.sign``.
    """

    def __init__(self, A_rows, b, n, ctx: Context, guess=False):
        self.ctx = ctx
        self.tol = tol = 0 if ctx.is_exact else ctx.tol
        self.m = len(A_rows)
        self.n = n
        self.guess = guess
        self.flip = []
        self.T = []
        for i in range(self.m):
            unit = [] if guess else [ctx.one() if k == i else ctx.zero() for k in range(self.m)]
            if b[i] < -tol:
                self.T.append([-x for x in A_rows[i]] + unit + [-b[i]])
                self.flip.append(-1)
            else:
                self.T.append(list(A_rows[i]) + unit + [b[i]])
                self.flip.append(1)
        self.basis = [n + i for i in range(self.m)]

    @property
    def width(self):
        return self.n if self.guess else self.n + self.m

    def zline(self, costs):
        """Reduced-cost row plus negated objective value for the current basis."""
        z = list(costs[:self.width]) + [self.ctx.zero()]
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if abs(cb) > self.tol:
                z = [x - cb * y for x, y in zip(z, self.T[i])]
        return z

    def pivot(self, r, e, z):
        tol = self.tol
        trow = self.T[r]
        inv = self.ctx.one() / trow[e]
        self.T[r] = trow = [x * inv for x in trow]
        for i, row in enumerate(self.T):
            f = row[e]
            if i != r and abs(f) > tol:
                self.T[i] = [x - f * y for x, y in zip(row, trow)]
        f = z[e]
        if abs(f) > tol:
            z[:] = [x - f * y for x, y in zip(z, trow)]
        self.basis[r] = e

    def bland(self, costs, allowed_width):
        """Run one phase by Bland's rule; return (z-line, None) at an optimum,
        or (z-line, e) when no ratio limits the step of entering column e.
        A guess tableau prices by Dantzig's rule until ``_MAX_DEGENERATE``
        degenerate pivots in a row hand the phase to Bland's, which cannot cycle."""
        tol = self.tol
        z = self.zline(costs)
        stalled = 0 if self.guess else _MAX_DEGENERATE
        for _ in range(_MAX_PIVOTS):
            if stalled < _MAX_DEGENERATE:  # Dantzig: the largest reduced cost
                top = max(z[:allowed_width], default=tol)
                enter = z.index(top) if top > tol else None
            else:  # Bland: the smallest eligible column
                enter = next((j for j in range(allowed_width) if z[j] > tol), None)
            if enter is None:
                return z, None
            leave = None
            best = None
            for i, row in enumerate(self.T):
                a = row[enter]
                if a > tol:
                    ratio = row[-1] / a
                    if best is None or (d := ratio - best) < -tol or (
                        d <= tol and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return z, enter
            if stalled < _MAX_DEGENERATE:
                stalled = stalled + 1 if best <= tol else 0
            self.pivot(leave, enter, z)
        raise OrthantsError("simplex pivot limit exceeded")

    def two_phase(self, c):
        """Phase 1 from the artificial basis, then phase 2 for objective c.

        Returns (status, costs, z, enter).  status is "infeasible" (phase 1
        ends below 0), "stopped" (phase 1 finds no optimum, which only
        rounding can cause), "unbounded" (entering column ``enter`` has no
        ratio limit in phase 2) or "optimal"; costs and z are the objective
        and the z-line of the phase that ended.
        """
        ctx, m, n, tol = self.ctx, self.m, self.n, self.tol
        if m:
            phase1 = [ctx.zero()] * n + [-ctx.one()] * m
            z, enter = self.bland(phase1, self.width)
            if enter is not None:
                return "stopped", phase1, z, enter
            if z[-1] > tol:
                return "infeasible", phase1, z, None
            # drive leftover artificials out of the basis where a structural
            # column allows it; the rest sit on redundant rows and stay basic
            for i in range(m):
                if self.basis[i] >= n:
                    enter = next(
                        (j for j in range(n) if abs(self.T[i][j]) > tol), None
                    )
                    if enter is not None:
                        self.pivot(i, enter, z)
        phase2 = list(c) + [ctx.zero()] * m
        z, enter = self.bland(phase2, n)
        return ("optimal" if enter is None else "unbounded"), phase2, z, enter

    def dual(self, costs, z):
        """y = c_B B^-1 in the original row signs: on artificial column n+k
        the z-line holds costs[n+k] - (c_B B^-1)_k."""
        n = self.n
        return [f * (costs[n + k] - z[n + k]) for k, f in enumerate(self.flip)]


class _IntegerColumns(Sequence):
    """The m rows of an exact LP matrix, kept as integer columns over one
    denominator each: A_ij = cols[j][i] / sigma[j], sigma[j] > 0.  A row
    is built in Fractions only when indexed, as the exact Bland route does."""

    def __init__(self, cols, sigma, m):
        self.cols, self.sigma, self.m = cols, sigma, m

    @classmethod
    def of(cls, A_rows, n):
        """A_rows, or its n columns each scaled by the lcm of its denominators."""
        if isinstance(A_rows, cls):
            return A_rows
        sigma = [lcm(*(row[j].denominator for row in A_rows)) for j in range(n)]
        cols = [[row[j].numerator * (s // row[j].denominator) for row in A_rows]
                for j, s in enumerate(sigma)]
        return cls(cols, sigma, len(A_rows))

    def __len__(self):
        return self.m

    def __getitem__(self, i):
        if not 0 <= i < self.m:
            raise IndexError(i)
        return tuple(Fraction(col[i], s) for col, s in zip(self.cols, self.sigma))

    def floats(self):
        """int/int true divisions: correctly rounded, so float() of the Fractions."""
        return [[col[i] / s for col, s in zip(self.cols, self.sigma)] for i in range(self.m)]


def simplex_standard(A_rows: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
                     c: Sequence[Scalar], ctx: Context):
    """Maximize c.x over {x >= 0 : A x = b}; returns Optimal/Infeasible/Unbounded.

    An Optimal carries the dual y with y.b = value and y.A_j >= c_j for
    every column j, and an Infeasible carries a Farkas ray r with r.A <= 0,
    r.b > 0.  On the exact backend both are proved from the float run's
    basis when it passes the exact checks, and otherwise read off the final
    tableau of the exact Bland run.  Exact rows may be ``_IntegerColumns``.
    """
    if ctx.is_exact:
        A = _IntegerColumns.of(A_rows, len(c))
        try:
            return _prove_basis(A, b, c, *_float_guess(A, b, c))
        except (OverflowError, OrthantsError):
            pass  # the exact Bland run below decides the LP
    return _bland_simplex(A_rows, b, c, ctx)


def _bland_simplex(A_rows, b, c, ctx: Context):
    """The two-phase Bland simplex in the backend's own arithmetic.

    Certificates come from the final basis alone: the dual of the phase
    that ended, read off the z-line, is the Optimal dual, and its negation
    in phase 1 is the Farkas ray.
    """
    n = len(c)
    tab = _Tableau(A_rows, b, n, ctx)
    status, costs, z, enter = tab.two_phase(c)
    if status == "stopped":
        raise OrthantsError("phase-1 objective cannot be unbounded")
    if status == "infeasible":
        return Infeasible(tuple(-v for v in tab.dual(costs, z)))
    if status == "unbounded":
        ray = [ctx.zero()] * n
        ray[enter] = ctx.one()
        for i, bi in enumerate(tab.basis):
            if bi < n:
                ray[bi] = -tab.T[i][enter]
        return Unbounded(tuple(ray))
    x = [ctx.zero()] * n
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = tab.T[i][-1]
    if ctx.is_exact:
        _check_exact(A_rows, b, x)
    return Optimal(tuple(x), -z[-1], tuple(tab.dual(costs, z)))


def _float_guess(A_rows, b, c):
    """(status, basis, row flips) of the simplex run on float copies, in a
    guess tableau: Dantzig pricing, as ``_prove_basis`` judges the basis.

    Raises OverflowError when an entry is beyond float range and
    OrthantsError at the pivot limit.
    """
    A = _IntegerColumns.of(A_rows, len(c))
    tab = _Tableau(A.floats(), [float(v) for v in b], len(c), FLOAT, guess=True)
    status = tab.two_phase([float(v) for v in c])[0]
    return status, tab.basis, tab.flip


def _prove_basis(A_rows, b, c, status, basis, flip):
    """The exact outcome that a guessed basis proves; raises OrthantsError
    when the guess proves nothing.

    The proof runs on the integer columns A~ = A diag(sigma) of
    ``_IntegerColumns`` (a weighting LP arrives so, sigma_j the denominator
    of column j's scale), b~ = beta b and c~_j = gamma c_j sigma_j.
    Column n+k of the basis is the artificial flip[k] e_k, which touches row
    k alone.  So with S the k structural basic columns and R the k rows that
    no basic artificial covers, both solves run on the k x k block A~_RS
    by ``_solve_integers``: forward elimination on primitive integer rows,
    then integer back substitution over the least common denominator, with
    free variables at zero as before scaling.

    Primal: A~_RS z = b~_R gives z_S = Z / D.  The basic artificials then
    hold b~_k - A~_kS z_S on their rows, so the check A~ Z = b~ D over all
    rows, not only R, is what proves them 0.
    Dual: y B~ = c~_B fixes y_k on every covered row, 0 in phase 2 and
    -flip[k] in phase 1, where an artificial costs -1.  The rest of y solves
    y_R A~_RS = c~_S in phase 2 and y_R A~_RS = sum_k flip[k] A~_kS in
    phase 1, as Y / E.
    An "infeasible" guess gives the Farkas ray -Y / E if Y.A~_j >= 0 for
    every j and Y.b~ < 0.  An "optimal" guess needs A~ Z = b~ D, Z >= 0,
    Y.A~_j >= c~_j E for every j and (Y.b~) D = (c~.Z) E; then
    x_j = sigma_j Z_j / (D beta) is optimal and Y / (E gamma) dual optimal.
    A singular basis whose solutions pass every check proves all the same.
    """
    n = len(c)
    A = _IntegerColumns.of(A_rows, n)
    m, cols, sigma = A.m, A.cols, A.sigma
    beta = lcm(*(v.denominator for v in b))
    bt = [v.numerator * (beta // v.denominator) for v in b]
    structural = [j for j in basis if j < n]
    covered = [j - n for j in basis if j >= n]
    free_rows = sorted(set(range(m)).difference(covered))
    block = [[cols[j][i] for i in free_rows] for j in structural]
    if status == "infeasible":
        rhs = [sum(flip[k] * cols[j][k] for k in covered) for j in structural]
    elif status == "optimal":
        gamma = lcm(*(v.denominator for v in c))
        ct = [v.numerator * (gamma // v.denominator) * s for v, s in zip(c, sigma)]
        primal = _solve_integers(list(zip(*block)), [bt[i] for i in free_rows])
        rhs = [ct[j] for j in structural]
    else:
        raise OrthantsError(f"float simplex ended {status}")
    dual = _solve_integers(block, rhs)
    if dual is None or (status == "optimal" and primal is None):
        raise OrthantsError("guessed basis is singular")
    Yr, E = dual
    Y = [0] * m
    for i, v in zip(free_rows, Yr):
        Y[i] = v
    if status == "infeasible":
        for k in covered:
            Y[k] = -flip[k] * E
        if any(dot(Y, col) < 0 for col in cols) or dot(Y, bt) >= 0:
            raise OrthantsError("guessed basis gives no Farkas ray")
        return Infeasible(tuple(Fraction(-v, E) for v in Y))
    Z, D = primal
    support = [(j, v) for j, v in zip(structural, Z) if v]
    if any(sum(cols[j][i] * v for j, v in support) != bi * D for i, bi in enumerate(bt)):
        raise OrthantsError("simplex returned an inexact point")
    if any(v < 0 for _, v in support):
        raise OrthantsError("simplex returned an infeasible point")
    value = sum(ct[j] * v for j, v in support)
    if any(dot(Y, col) < cj * E for col, cj in zip(cols, ct)) or dot(Y, bt) * D != value * E:
        raise OrthantsError("guessed basis is not optimal")
    x = [Fraction(0)] * n
    for j, v in support:
        x[j] = Fraction(sigma[j] * v, D * beta)
    y = tuple(Fraction(v, E * gamma) for v in Y)
    return Optimal(tuple(x), Fraction(value, gamma * D * beta), y)


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


def _lp_rows(system):
    """Q as LP rows, read off W: W's own rows on the float backend, where
    every scale is 1; on the exact one integer columns, p_j W_j over q_j for
    the scale p_j / q_j, with no Fraction."""
    W, scales = system.W, system.scales
    if not W.ctx.is_exact:
        return W.data
    cols = [[w * s.numerator for w in col] for col, s in zip(zip(*W.data), scales)]
    return _IntegerColumns(cols, [s.denominator for s in scales], W.rows)


def decide_positive(system) -> PositivityOutcome:
    """Decide whether Q t = c admits a strictly positive solution.

    Auxiliary program: maximize eps subject to Q t = c, t_i >= eps, eps <= 1.
    Substituting t = eps . 1 + s and eps = 1 - w turns it into the standard
    form  max -w : Q s - (Q 1) w = c - Q 1, (s, w) >= 0.  The optimum eps*
    is positive exactly when a positive solution exists; the dual vector at
    the optimum is the refutation certificate otherwise.  Exact [Q | -Q 1]
    stays integer columns (-Q 1 over L, the lcm of Q's column denominators),
    whose floats are the Fraction LP's.
    """
    ctx, c, m = system.W.ctx, system.c, system.W.cols
    A = _lp_rows(system)
    if ctx.is_exact:
        L = lcm(*A.sigma)
        q1 = [sum(col[i] * (L // s) for col, s in zip(A.cols, A.sigma)) for i in range(A.m)]
        A_rows = _IntegerColumns(A.cols + [[-v for v in q1]], A.sigma + [L], A.m)
        b = [ci - Fraction(v, L) for ci, v in zip(c, q1)]
    else:
        q1 = [sum(row) for row in A]
        A_rows = [list(row) + [-v] for row, v in zip(A, q1)]
        b = [ci - v for ci, v in zip(c, q1)]
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
        return PositivityOutcome(Verdict.POSITIVE, ctx.backend, witness_t=tuple(t))
    marginal = (not ctx.is_exact) and s == 0
    return PositivityOutcome(
        Verdict.NOT_POSITIVE,
        ctx.backend,
        certificate_y=_certificate(res.dual, ctx),
        numeric_marginal=marginal,
    )


def verify_outcome(system, outcome: PositivityOutcome) -> bool:
    """Re-check an outcome by direct arithmetic, trusting nothing from the solver.

    The checks run on W: with t_j s_j = U_j / D (s the scales) and c = C / g
    over integers, Q t = c exactly when g W U = C D; as s_j > 0, y.Q_j has
    the sign of y.W_j, which scaling y to integers keeps.  Exact U_j are
    numerator products over D, the lcm of the denominator products."""
    W, ctx = system.W, system.W.ctx
    (C,), g = _numerators([system.c], ctx)
    if outcome.verdict == Verdict.POSITIVE:
        t = outcome.witness_t
        if t is None or len(t) != W.cols or any(ctx.sign(v) <= 0 for v in t):
            return False
        if ctx.is_exact:
            d = [v.denominator * s.denominator for v, s in zip(t, system.scales)]
            D = lcm(*d)
            U = [v.numerator * s.numerator * (D // dj) for v, s, dj in zip(t, system.scales, d)]
        else:
            U, D = [v * s for v, s in zip(t, system.scales)], 1
        return all(ctx.is_zero(g * dot(row, U) - ci * D) for row, ci in zip(W.data, C))
    y = outcome.certificate_y
    if y is None or len(y) != W.rows:
        return False
    (Y,), _ = _numerators([y], ctx)
    yw = [dot(Y, W.column(j)) for j in range(W.cols)]
    yc = dot(Y, C)
    if any(ctx.sign(v) < 0 for v in yw) or ctx.sign(yc) > 0:
        return False
    return any(ctx.sign(v) > 0 for v in yw) or ctx.sign(yc) < 0


def _certificate(vec, ctx: Context) -> tuple:
    """Exact certificates are scaled to integers with content 1."""
    return primitive(vec) if ctx.is_exact else tuple(vec)
