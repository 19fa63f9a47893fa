"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately self-contained (fractions, itertools and
math only), so agreement with the library is a genuine two-route
check: plain rational row reduction for ranks, solutions and kernels,
fraction-free Gauss-Jordan (Bareiss) for the pivots, row sizes and final
pivot that the exact elimination must not exceed, the split tree of a positive weighting for basic decompositions, the
permutation expansion for determinants, Sylvester's principal minors for
semidefiniteness, the signs of Cayley-Menger determinants for simplex
metrics, the Fraction definition of the canonical rows of a
hedgehog, the weighting matrix Q and the re-check of a positivity
outcome by their Fraction definitions, and Fourier-Motzkin
elimination for three questions: does Q t = c have a strictly positive
solution (after Gaussian substitution), does A x > b have a solution, and
what is the minimum of f.x over A x >= b.  Hedgehogs are built from raw
directions here too, and their congruence is decided by brute force on
normalized Gram data, the package itself needing neither.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, lcm


def _rref(a, ncols):
    """Textbook Gauss-Jordan on the Fraction rows a, in place, over their
    first ncols columns; returns the pivot columns in order."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return pivots


def rref_rank(rows):
    """Rank by textbook rational row reduction."""
    a = [[Fraction(x) for x in row] for row in rows]
    return len(_rref(a, len(a[0]))) if a else 0


def solve_any(rows, rhs):
    """Some rational solution of rows . x = rhs, or None."""
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(a[0]) - 1
    piv_cols = _rref(a, n)
    if any(row[n] != 0 for row in a[len(piv_cols):]):
        return None
    x = [Fraction(0)] * n
    for row_i, col in enumerate(piv_cols):
        x[col] = a[row_i][n]
    return x


def kernel_vector(rows):
    """A nonzero x with rows . x = 0, read off the rref at the first free
    column, or None when the columns are independent."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a[0])
    piv_cols = _rref(a, n)
    free = next((j for j in range(n) if j not in piv_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for row_i, col in enumerate(piv_cols):
        x[col] = -a[row_i][free]
    return x


def bareiss_echelon(rows, width=None):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows, over their
    first ``width`` columns (all by default): (rows, pivots, forward).

    The pivot is the first nonzero entry of its column, every pivot column
    is cleared above and below it, and each division is exact, so at the end
    every pivot entry is the same integer, the final pivot.  forward[k] is
    row k as it stood when it became the k-th pivot row, and the final row
    k at or past the rank: the rows of forward-only Bareiss elimination.
    """
    a = [list(row) for row in rows]
    m = len(a)
    n = (len(a[0]) if m else 0) if width is None else width
    pivots, forward = [], []
    prev = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        p = ar[col]
        forward.append(list(ar))
        for i in range(m):
            if i != r:
                f = a[i][col]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], ar)]
        prev = p
        pivots.append(col)
    return a, pivots, forward + a[len(pivots):]


def permutation_det(rows):
    """Determinant as the signed sum over permutations (Leibniz); small n only."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += term
    return total


def _fm_eliminate(rows, var, step):
    """One Fourier-Motzkin step on rows (coeffs, const, origins), each read as
    coeffs.x + const > 0 (or >= 0: the step is the same for both).

    ``origins`` is the set of input rows that a row combines.  After
    ``step`` eliminations, a combination of more than step + 1 input rows
    is implied by the others (Chernikov's rule) and is dropped, which keeps
    the row count polynomial without changing the solution set.
    """
    out, pos, neg = [], [], []
    for row in rows:
        c = row[0][var]
        (out if c == 0 else pos if c > 0 else neg).append(row)
    for pc, pconst, porig in pos:
        a = pc[var]
        for nc, nconst, norig in neg:
            origins = porig | norig
            if len(origins) > step + 1:
                continue
            b = -nc[var]
            coeffs = [b * x + a * y for x, y in zip(pc, nc)]
            out.append((coeffs, b * pconst + a * nconst, origins))
    return out


def _eliminate(rows, nvars):
    """Eliminate variables 0 .. nvars-1 from rows (coeffs, const)."""
    rows = [(list(coeffs), const, frozenset([i])) for i, (coeffs, const) in enumerate(rows)]
    for var in range(nvars):
        rows = _fm_eliminate(rows, var, var + 1)
    return rows


def strictly_positive_solvable(q_rows, c):
    """Does Q t = c admit t with every coordinate strictly positive?

    Equalities are removed by exact substitution; the strict positivity
    constraints become strict inequalities over the free variables, which
    Fourier-Motzkin eliminates one by one.  Feasible exactly when every
    variable-free consequence 0 + const > 0 holds.
    """
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(q_rows, c)]
    n = len(a[0]) - 1
    piv_cols = _rref(a, n)
    if any(row[n] != 0 for row in a[len(piv_cols):]):
        return False  # no solution at all
    free_cols = [j for j in range(n) if j not in piv_cols]
    pos_of_free = {col: k for k, col in enumerate(free_cols)}

    # express t_j > 0 in free variables: pivot t_p = const - sum coeff * t_free
    strict_rows = []
    for j in range(n):
        coeffs = [Fraction(0)] * len(free_cols)
        const = Fraction(0)
        if j in piv_cols:
            row_i = piv_cols.index(j)
            const = a[row_i][n]
            for col in free_cols:
                coeffs[pos_of_free[col]] = -a[row_i][col]
        else:
            coeffs[pos_of_free[j]] = Fraction(1)
        strict_rows.append((coeffs, const))

    return all(const > 0 for _, const, _ in _eliminate(strict_rows, len(free_cols)))


def weighting_matrix(normals):
    """Q of the weighting system by its Fraction definition: row (p, q),
    diagonal pairs first and then p < q lexicographically, holds a_p a_q
    in the column of each normal a."""
    n = len(normals[0])
    pairs = [(p, p) for p in range(n)] + [(p, q) for p in range(n) for q in range(p + 1, n)]
    return [[Fraction(a[p]) * Fraction(a[q]) for a in normals] for p, q in pairs]


def verify_positivity(q_rows, c, verdict, t, y):
    """The Fraction re-check of a positivity outcome: a Positive witness t
    is strictly positive and solves Q t = c exactly; any other verdict's
    certificate y has y.Q_j >= 0 for every column j and y.c <= 0, not all
    of them zero."""
    if verdict == "Positive":
        if t is None or len(t) != len(q_rows[0]):
            return False
        t = [Fraction(x) for x in t]
        return all(x > 0 for x in t) and all(_dot(row, t) == b for row, b in zip(q_rows, c))
    if y is None or len(y) != len(q_rows):
        return False
    y = [Fraction(x) for x in y]
    yq = [_dot(y, col) for col in zip(*q_rows)]
    yc = _dot(y, c)
    return all(v >= 0 for v in yq) and yc <= 0 and (any(v > 0 for v in yq) or yc < 0)


def split_walk(q_rows, c, t):
    """Walk a positive solution t of Q t = c both ways along Q's first
    kernel direction, to where it leaves the closed positive orthant.

    Returns (u, v, I, J): the two wall points and their zero sets, which
    are nonempty and disjoint since t lies strictly between u and v.
    Raises ValueError when t is not an exact positive solution, or when Q
    has independent columns, so that t is the only solution.
    """
    t = [Fraction(x) for x in t]
    if any(x <= 0 for x in t) or any(_dot(row, t) != b for row, b in zip(q_rows, c)):
        raise ValueError("t is not an exact positive solution of Q t = c")
    d = kernel_vector(q_rows)
    if d is None:
        raise ValueError("Q has independent columns; the weighting is unique")
    # the trace row sum_i t_i |a_i|^2 = n rules out a one-signed d
    up = min(x / -y for x, y in zip(t, d) if y < 0)
    down = min(x / y for x, y in zip(t, d) if y > 0)
    u = [x + up * y for x, y in zip(t, d)]
    v = [x - down * y for x, y in zip(t, d)]
    return u, v, {i for i, x in enumerate(u) if x == 0}, {i for i, x in enumerate(v) if x == 0}


def split_leaves(q_rows, c, t):
    """The split tree of a positive solution t: the second route to a basic
    decomposition.

    Each node's solution is split by split_walk on its columns, and each
    wall, with its zeros dropped, is a child; a node whose columns are
    independent is a basic leaf, kept when it raises the rank of the union.
    Every facet stays positive at one of the two walls, so the leaves cover
    every column.  Returns (columns, weighting) pairs reaching rank Q.  A
    visited set skips repeated column sets, whose leaves are already kept.
    """
    full = rref_rank(q_rows)
    leaves, union, union_rank, seen = [], set(), 0, set()
    stack = [(tuple(range(len(t))), t)]
    while union_rank < full:
        cols, w = stack.pop()
        if cols in seen:
            continue
        seen.add(cols)
        sub = [[row[j] for j in cols] for row in q_rows]
        if rref_rank(sub) < len(cols):
            u, v, I, J = split_walk(sub, c, w)
            for point, zeros in ((v, J), (u, I)):
                keep = [k for k in range(len(cols)) if k not in zeros]
                stack.append((tuple(cols[k] for k in keep), tuple(point[k] for k in keep)))
            continue
        trial = union | set(cols)
        trial_rank = rref_rank([[row[j] for j in sorted(trial)] for row in q_rows])
        if trial_rank > union_rank:
            leaves.append((cols, w))
            union, union_rank = trial, trial_rank
    return leaves


def strictly_feasible(rows, offsets):
    """Does A x > b hold for some x?  Strict Fourier-Motzkin on every variable."""
    strict_rows = [
        ([Fraction(x) for x in a], -Fraction(b)) for a, b in zip(rows, offsets)
    ]
    return all(const > 0 for _, const, _ in _eliminate(strict_rows, len(rows[0])))


def functional_minimum(rows, offsets, f):
    """Minimum of f.x over {x : A x >= b}: "empty", "unbounded" or a Fraction.

    Non-strict Fourier-Motzkin projection of {A x >= b, z = f.x} onto z.
    The variable z comes last and is never eliminated, so every row left
    reads cz z + const >= 0: a lower bound, an upper bound, or a constant
    that must be nonnegative.
    """
    n = len(f)
    fz = [Fraction(x) for x in f]
    lifted = [
        ([Fraction(x) for x in a] + [Fraction(0)], -Fraction(b))
        for a, b in zip(rows, offsets)
    ]
    lifted.append((fz + [Fraction(-1)], Fraction(0)))
    lifted.append(([-x for x in fz] + [Fraction(1)], Fraction(0)))
    lows, highs = [], []
    for coeffs, const, _ in _eliminate(lifted, n):
        cz = coeffs[n]
        if cz == 0 and const < 0:
            return "empty"
        if cz > 0:
            lows.append(-const / cz)
        elif cz < 0:
            highs.append(const / -cz)
    if lows and highs and max(lows) > min(highs):
        return "empty"
    return max(lows) if lows else "unbounded"


def squared_distance(u, v):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v))


def positive_semidefinite(rows):
    """Sylvester's test: every principal minor >= 0, each by the
    permutation expansion."""
    m = len(rows)
    return all(
        permutation_det([[rows[i][j] for j in subset] for i in subset]) >= 0
        for size in range(1, m + 1)
        for subset in combinations(range(m), size)
    )


def cayley_menger_realizable(d2):
    """d2 is the squared-distance matrix of a nondegenerate simplex: for
    every vertex prefix of k >= 2 points the bordered determinant
    [[0, 1^T], [1, d2_prefix]] carries the sign (-1)^k, each by the
    permutation expansion."""
    for k in range(2, len(d2) + 1):
        bordered = [[0] + [1] * k] + [[1] + list(d2[i][:k]) for i in range(k)]
        if permutation_det(bordered) * (-1) ** k <= 0:
            return False
    return True


def doubly_nonnegative(rows):
    """Every entry >= 0, and positive semidefinite by Sylvester's test."""
    return all(Fraction(x) >= 0 for row in rows for x in row) and positive_semidefinite(rows)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _tangent_minimal(rows):
    """Row j is strictly slack at the point where row i is tight, for every
    ordered pair: a_i.a_j < a_i.a_i."""
    norms = [_dot(r, r) for r in rows]
    return all(
        _dot(u, v) < norms[i]
        for i, u in enumerate(rows)
        for j, v in enumerate(rows)
        if i != j
    )


def canonical_rows(needles):
    """(rows, k) of the canonical system of primitive integer needles v_i.

    The Fraction definition: the needles themselves (k None) when they
    pass the tangent test; otherwise rows v_i k / isqrt(|v_i|^2 k^2), with
    k doubled from 2^10 until k (1 - max cos^2) >= 16 and then doubled
    again until the scaled rows pass the test.
    """
    rows = [tuple(Fraction(x) for x in v) for v in needles]
    if _tangent_minimal(rows):
        return rows, None
    norms = [_dot(v, v) for v in rows]
    worst = Fraction(0)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = _dot(rows[i], rows[j])
            if d > 0:
                worst = max(worst, d * d / (norms[i] * norms[j]))
    k = 1 << 10
    while 16 > k * (1 - worst):
        k <<= 1
    for _ in range(64):
        scaled = [
            tuple(x * Fraction(k, isqrt(int(n) * k * k)) for x in v)
            for v, n in zip(rows, norms)
        ]
        if _tangent_minimal(scaled):
            return scaled, k
        k <<= 1
    raise AssertionError("no scale certified the canonical rows")


# ---------------------------------------------------------------------------
# hedgehogs by definition: needle sets, and congruence by Gram data

NEEDLE_GUARD = 9


class Needles:
    """A hedgehog as the helpers below read one (the package's Hedgehog has
    the same fields): dim, the needle tuple, its count, and the backend ctx,
    of which only ``is_exact`` and ``tol`` are read."""

    def __init__(self, dim, needles, ctx):
        self.dim, self.needles, self.ctx = dim, tuple(needles), ctx

    @property
    def count(self):
        return len(self.needles)


def _sign(x, ctx):
    """-1, 0 or +1; float magnitudes at or below ctx.tol count as zero."""
    if not ctx.is_exact and abs(x) <= ctx.tol:
        return 0
    return (x > 0) - (x < 0)


def _needle(v, ctx):
    """Exact: the primitive integer multiple of v; float: v over its length;
    either way with its last nonzero entry > 0."""
    if ctx.is_exact:
        v = [Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        v = [x // g for x in ints]
    else:
        v = [float(x) for x in v]
        norm = sum(x * x for x in v) ** 0.5
        v = [x / norm for x in v]
    last = next(_sign(x, ctx) for x in reversed(v) if _sign(x, ctx))
    return tuple(last * x for x in v)


def from_needles(directions, dim, ctx):
    """Needles of raw directions in the caller's frame and order, later
    duplicates modulo sign dropped (float: |u.w| within tol of 1)."""
    out = []
    for v in (_needle(d, ctx) for d in directions):
        if ctx.is_exact and v not in out or not ctx.is_exact and all(
            abs(abs(_dot(v, w)) - 1.0) > ctx.tol for w in out
        ):
            out.append(v)
    return Needles(dim, out, ctx)


def union(h1, h2):
    """The needles of both, in order; both must share dimension and backend."""
    if h1.dim != h2.dim or h1.ctx.is_exact != h2.ctx.is_exact:
        raise ValueError("union needs a common ambient dimension and backend")
    return from_needles(h1.needles + h2.needles, h1.dim, h1.ctx)


def _norm_entry(G, norms, i, j, ctx):
    """(sign, squared normalized value) of a Gram entry: G_ij^2 / (G_ii G_jj)."""
    g = G[i][j]
    if ctx.is_exact:
        return _sign(g, ctx), Fraction(g * g, norms[i] * norms[j])
    return _sign(g, ctx), float(g * g / (norms[i] * norms[j]))


def _abs_close(a, b, ctx):
    return a == b if ctx.is_exact else abs(a - b) <= 4 * ctx.tol


def equal(h1, h2):
    """Same hedgehog up to relabeling, sign flips and a rigid motion.

    Configurations of needles are congruent exactly when their Gram
    matrices match after a permutation and a diagonal sign change; the
    search is brute force with multiset pruning, guarded to NEEDLE_GUARD
    needles.
    """
    for h in (h1, h2):
        if h.count > NEEDLE_GUARD:
            raise ValueError(f"equality is guarded to <= {NEEDLE_GUARD} needles")
    if h1.dim != h2.dim or h1.count != h2.count:
        return False
    ctx, m = h1.ctx, h1.count
    G1 = [[_dot(u, v) for v in h1.needles] for u in h1.needles]
    G2 = [[_dot(u, v) for v in h2.needles] for u in h2.needles]
    n1 = [G1[i][i] for i in range(m)]
    n2 = [G2[i][i] for i in range(m)]

    def signature(G, norms, i):
        return sorted(_norm_entry(G, norms, i, j, ctx)[1] for j in range(m) if j != i)

    sig1 = [signature(G1, n1, i) for i in range(m)]
    sig2 = [signature(G2, n2, i) for i in range(m)]
    perm, used = [None] * m, [False] * m

    def fits(i, k):
        if used[k] or not all(_abs_close(x, y, ctx) for x, y in zip(sig1[i], sig2[k])):
            return False
        for j in range(i):
            s1, v1 = _norm_entry(G1, n1, i, j, ctx)
            s2, v2 = _norm_entry(G2, n2, k, perm[j], ctx)
            if not _abs_close(v1, v2, ctx) or (s1 == 0) != (s2 == 0):
                return False
        return True

    def extend(i):
        if i == m:
            return _signs_consistent(G1, G2, n1, n2, perm, ctx)
        for k in range(m):
            if fits(i, k):
                perm[i], used[k] = k, True
                if extend(i + 1):
                    return True
                perm[i], used[k] = None, False
        return False

    return extend(0)


def _signs_consistent(G1, G2, n1, n2, perm, ctx):
    """A sign vector sigma with sigma_i sigma_j matching the sign of every
    nonzero Gram entry pair exists: a two-coloring of the nonzero-Gram graph."""
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
