"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately self-contained (fractions, itertools and
math.isqrt only), so agreement with the library is a genuine two-route
check: plain rational row reduction for ranks and solutions, the
permutation expansion for determinants, Sylvester's principal minors for
semidefiniteness, the Fraction definition of the canonical rows of a
hedgehog, and Fourier-Motzkin
elimination for three questions: does Q t = c have a strictly positive
solution (after Gaussian substitution), does A x > b have a solution, and
what is the minimum of f.x over A x >= b.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt


def rref_rank(rows):
    """Rank by textbook rational row reduction."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def solve_any(rows, rhs):
    """Some rational solution of rows . x = rhs, or None."""
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    m = len(a)
    n = len(a[0]) - 1
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_i, col in enumerate(piv_cols):
        x[col] = a[row_i][n]
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
    m = len(a)
    n = len(a[0]) - 1
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, m):
        if a[i][n] != 0:
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
