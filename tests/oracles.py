"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately self-contained (fractions, itertools and
math.isqrt only), so agreement with the library is a genuine two-route
check: plain rational row reduction for ranks, solutions and kernels, the
split tree of a positive weighting for basic decompositions, the
permutation expansion for determinants, Sylvester's principal minors for
semidefiniteness, the signs of Cayley-Menger determinants for simplex
metrics, the Fraction definition of the canonical rows of a
hedgehog, the weighting matrix Q and the re-check of a positivity
outcome by their Fraction definitions, and Fourier-Motzkin
elimination for three questions: does Q t = c have a strictly positive
solution (after Gaussian substitution), does A x > b have a solution, and
what is the minimum of f.x over A x >= b.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt


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
