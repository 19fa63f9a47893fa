import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the @given tests need hypothesis; they skip
    class _Absent:
        def __getattr__(self, name):
            return lambda *args, **kwargs: self

    st = _Absent()

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")

    settings = given

from orthants import Mat, det, kernel_basis, rank, solve_linear
from orthants.context import EXACT, FLOAT
from orthants.matrix import pivot_columns, solve_columns
from oracles import permutation_det, rref_rank, solve_any
from conftest import rand_frac

fractions_st = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def greedy_pivot_columns(rows):
    """Columns that raise the rank of the columns kept before them."""
    kept = []
    for j in range(len(rows[0]) if rows else 0):
        if rref_rank([[row[k] for k in kept + [j]] for row in rows]) == len(kept) + 1:
            kept.append(j)
    return kept


def assert_canonical_kernel(rows, basis):
    """M v = 0, and v is 1 on its own free column and 0 on the others."""
    M = Mat.from_rows(rows, EXACT)
    pivots = greedy_pivot_columns(rows)
    free = [j for j in range(M.cols) if j not in pivots]
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        assert all(x == 0 for x in M.matvec(v))
        assert [v[j] for j in free] == [int(j == f) for j in free]


def close(a, b):
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def rank_deficient_rows(rng, m, n):
    """An m x n product of random fractional m x r and r x n factors."""
    r = rng.randint(0, min(m, n))
    left = [[rand_frac(rng, -5, 5, 6) for _ in range(r)] for _ in range(m)]
    right = [[rand_frac(rng, -5, 5, 6) for _ in range(n)] for _ in range(r)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
        for i in range(m)
    ]


def small_matrix_st(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(fractions_st, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestRank:
    def test_empty(self):
        assert rank(Mat.from_rows([], EXACT)) == 0

    def test_identity(self):
        assert rank(Mat.identity(3, EXACT)) == 3

    def test_pair_product_matrix(self):
        # columns (1,1,-1),(1,1,-1),(1,1,1),(1,0,0),(0,1,0)
        rows = [[1, 1, 1, 1, 0], [1, 1, 1, 0, 1], [-1, -1, 1, 0, 0]]
        M = Mat.from_rows(rows, EXACT)
        assert rank(M) == 3
        assert rank(M) == rref_rank(rows)

    @given(small_matrix_st())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_plain_row_reduction(self, rows):
        M = Mat.from_rows(rows, EXACT)
        assert rank(M) == rref_rank(rows)
        assert pivot_columns(M) == greedy_pivot_columns(rows)

    @given(small_matrix_st())
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose_invariant(self, rows):
        M = Mat.from_rows(rows, EXACT)
        assert rank(M) == rank(M.transpose())

    @given(small_matrix_st(), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_rank_row_swap_and_scale_invariant(self, rows, i, j):
        M = Mat.from_rows(rows, EXACT)
        swapped = list(rows)
        i, j = i % len(rows), j % len(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        scaled = [
            [Fraction(3, 2) * x for x in row] if k == i else row
            for k, row in enumerate(swapped)
        ]
        assert rank(Mat.from_rows(scaled, EXACT)) == rank(M)

    def test_float_rank_uses_tolerance(self):
        M = Mat.from_rows([[1.0, 1.0], [1.0, 1.0 + 1e-12]], FLOAT)
        assert rank(M) == 1


class TestSolve:
    def test_identity(self):
        assert solve_linear(Mat.identity(2, EXACT), [1, 1]) == [1, 1]

    def test_single_row_free_variable_convention(self):
        assert solve_linear(Mat.from_rows([[1, 1]], EXACT), [2]) == [2, 0]

    def test_inconsistent(self):
        assert solve_linear(Mat.from_rows([[1], [1]], EXACT), [0, 1]) is None

    @given(small_matrix_st(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_solution_is_exact(self, rows, data):
        M = Mat.from_rows(rows, EXACT)
        rhs = data.draw(
            st.lists(fractions_st, min_size=M.rows, max_size=M.rows)
        )
        x = solve_linear(M, rhs)
        if x is not None:
            assert M.matvec(x) == [Fraction(r) for r in rhs]
        else:
            assert rref_rank(rows) < rref_rank(
                [list(r) + [b] for r, b in zip(rows, rhs)]
            )

    @given(small_matrix_st())
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        M = Mat.from_rows(rows, EXACT)
        assert_canonical_kernel(rows, kernel_basis(M))
        assert len(kernel_basis(M)) == M.cols - rank(M)


class TestDetInverse:
    def test_det_known(self):
        assert det(Mat.from_rows([[1, 2], [3, 4]], EXACT)) == -2
        assert det(Mat.from_rows([[Fraction(1, 2), 0], [7, 4]], EXACT)) == 2

    def test_det_singular(self):
        assert det(Mat.from_rows([[1, 2], [2, 4]], EXACT)) == 0


class TestEchelonKernel:
    """rank, solve_linear, kernel_basis and det share one elimination; each
    is checked against the oracles on rank-deficient fractional matrices."""

    def test_exact_results_match_oracles(self):
        rng = random.Random(2024)
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = rank_deficient_rows(rng, m, n)
            M = Mat.from_rows(rows, EXACT)
            assert rank(M) == rref_rank(rows)
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for rhs in (
                [rand_frac(rng) for _ in range(m)],
                M.matvec(x0),
            ):
                x = solve_linear(M, rhs)
                assert (x is None) == (solve_any(rows, rhs) is None)
                if x is not None:
                    assert M.matvec(x) == rhs
            assert_canonical_kernel(rows, kernel_basis(M))
            k = min(m, n, 6)
            square = [row[:k] for row in rows[:k]]
            if rng.random() < 0.5:
                square = [[rand_frac(rng) for _ in range(k)] for _ in range(k)]
            assert det(Mat.from_rows(square, EXACT)) == permutation_det(square)

    def test_solve_columns_against_the_oracle(self):
        # consistent and inconsistent right-hand sides share one pass and
        # never mix: each answer solves its own rhs with the free variables
        # at zero, and is None exactly when the oracle finds no solution
        rng = random.Random(2030)
        for _ in range(200):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = rank_deficient_rows(rng, m, n)
            M = Mat.from_rows(rows, EXACT)
            free = set(range(n)) - set(greedy_pivot_columns(rows))
            rhss = []
            for _ in range(rng.randint(0, 4)):
                x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                rhss.append(M.matvec(x0) if rng.random() < 0.5 else [rand_frac(rng) for _ in range(m)])
            xs = solve_columns(M, rhss)
            assert len(xs) == len(rhss)
            for rhs, x in zip(rhss, xs):
                assert (x is None) == (solve_any(rows, rhs) is None)
                if x is not None:
                    assert M.matvec(x) == rhs and all(x[j] == 0 for j in free)
            F = Mat.from_rows(rows, FLOAT)
            for x in solve_columns(F, [M.matvec([Fraction(1)] * n)]):
                assert x is not None and all(map(close, F.matvec(x), M.matvec([1] * n)))

    def test_float_matches_exact_on_well_conditioned_inputs(self):
        # [D | E], D a row permutation of a strictly diagonally dominant
        # matrix: rank m, pivots 0..m-1, and row swaps on both backends
        rng = random.Random(2025)
        for _ in range(100):
            m, k = rng.randint(1, 6), rng.randint(0, 3)
            rows = []
            for i in range(m):
                row = [rng.randint(-3, 3) for _ in range(m + k)]
                row[i] = rng.choice((-1, 1)) * (sum(map(abs, row[:m])) + rng.randint(1, 5))
                rows.append(row)
            rng.shuffle(rows)
            rhs = [rng.randint(-9, 9) for _ in range(m)]
            E, F = Mat.from_rows(rows, EXACT), Mat.from_rows(rows, FLOAT)
            assert rank(F) == rank(E) == m
            assert all(map(close, solve_linear(F, rhs), solve_linear(E, rhs)))
            for u, v in zip(kernel_basis(F), kernel_basis(E), strict=True):
                assert all(map(close, u, v))
            D = [row[:m] for row in rows]
            assert close(det(Mat.from_rows(D, FLOAT)), det(Mat.from_rows(D, EXACT)))
