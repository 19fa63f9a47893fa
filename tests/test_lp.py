import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orthants import (
    Infeasible,
    LpProblem,
    Mat,
    Optimal,
    PositivityOutcome,
    Unbounded,
    Verdict,
    decide_positive,
    rank,
    solve,
    verify_outcome,
)
from orthants import lp
from orthants.context import Context, EXACT, FLOAT
from orthants.errors import OrthantsError
from orthants.frames import coordinate_pairs, system_from_normals
from orthants.lp import simplex_standard
from orthants.matrix import dot
from oracles import strictly_positive_solvable, verify_positivity
from conftest import recorded_lps, system_from_matrix, weighting_normal_sets


class TestSolve:
    def test_optimal(self):
        prob = LpProblem(
            (Fraction(1),), Mat.from_rows([[1]], EXACT), (Fraction(1),), (Fraction(0),)
        )
        res = solve(prob)
        assert isinstance(res, Optimal)
        assert res.x == (1,) and res.value == 1

    def test_infeasible_with_ray(self):
        prob = LpProblem(
            (Fraction(0),), Mat.from_rows([[1]], EXACT), (Fraction(-1),), (Fraction(0),)
        )
        res = solve(prob)
        assert isinstance(res, Infeasible)
        y = res.dual_ray
        # Farkas: y.A <= 0 on bounded columns, y.b - y.A.lb > 0
        assert y[0] * 1 <= 0 and y[0] * (-1) > 0

    def test_unbounded_with_ray(self):
        res = simplex_standard([], [], [Fraction(1)], EXACT)
        assert isinstance(res, Unbounded)
        assert res.primal_ray == (1,)

    def test_degenerate_redundant_rows(self):
        # duplicated constraint; phase 1 must drop or pivot out its artificial
        prob = LpProblem(
            (Fraction(1), Fraction(0)),
            Mat.from_rows([[1, 1], [1, 1]], EXACT),
            (Fraction(2), Fraction(2)),
            (Fraction(0), Fraction(0)),
        )
        res = solve(prob)
        assert isinstance(res, Optimal)
        assert res.value == 2

    def test_free_variables(self):
        # min x1 + x2 s.t. x1 + x2 = 5 with both free: optimum is -max(-f)
        prob = LpProblem(
            (Fraction(-1), Fraction(-1)),
            Mat.from_rows([[1, 1]], EXACT),
            (Fraction(5),),
            (None, None),
        )
        res = solve(prob)
        assert isinstance(res, Optimal)
        assert res.value == -5

    def test_lower_bound_shift(self):
        # max -x s.t. x = x, x >= 3  encoded as max -x, 0 rows
        prob = LpProblem(
            (Fraction(-1),),
            Mat.from_rows([[0]], EXACT),
            (Fraction(0),),
            (Fraction(3),),
        )
        res = solve(prob)
        assert isinstance(res, Optimal)
        assert res.x == (3,) and res.value == -3


QUAD = system_from_normals([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))], EXACT)
ACUTE = system_from_normals(
    [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1)), (Fraction(3), Fraction(-1))],
    EXACT,
)
RIGHT = system_from_normals(
    [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1))],
    EXACT,
)


class TestDecidePositive:
    def test_quadrant_witness(self):
        out = decide_positive(QUAD)
        assert out.verdict == Verdict.POSITIVE
        assert out.witness_t == (1, 1)
        assert verify_outcome(QUAD, out)

    def test_acute_triangle_witness(self):
        out = decide_positive(ACUTE)
        assert out.verdict == Verdict.POSITIVE
        assert out.witness_t == (Fraction(2, 3), Fraction(1, 4), Fraction(1, 12))
        assert verify_outcome(ACUTE, out)

    def test_right_triangle_certificate(self):
        out = decide_positive(RIGHT)
        assert out.verdict == Verdict.NOT_POSITIVE
        assert out.certificate_y == (0, 0, 1)
        assert verify_outcome(RIGHT, out)

    def test_inconsistent_certificate(self):
        system = system_from_matrix([[1], [1]], [0, 1])
        out = decide_positive(system)
        assert out.verdict == Verdict.INCONSISTENT
        assert verify_outcome(system, out)
        y = out.certificate_y
        assert dot(y, system.Q.column(0)) == 0 and dot(y, system.c) < 0

    def test_verify_rejects_bad_witness(self):
        fake = PositivityOutcome(Verdict.POSITIVE, "exact", witness_t=(1, 0))
        assert not verify_outcome(QUAD, fake)

    def test_verify_accepts_stated_certificate(self):
        stated = PositivityOutcome(
            Verdict.NOT_POSITIVE, "exact", certificate_y=(0, 0, 1)
        )
        assert verify_outcome(RIGHT, stated)

    def test_witness_is_exact_not_just_small(self):
        out = decide_positive(ACUTE)
        residual = [
            dot(out.witness_t, ACUTE.Q.row(i)) - ACUTE.c[i] for i in range(ACUTE.Q.rows)
        ]
        assert all(r == 0 for r in residual)

    def test_float_backend_positive(self):
        sysf = system_from_normals([(1.0, 0.0), (0.0, 1.0)], FLOAT)
        out = decide_positive(sysf)
        assert out.verdict == Verdict.POSITIVE and not out.certified

    def test_float_marginal_flag(self):
        sysf = system_from_normals([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)], FLOAT)
        out = decide_positive(sysf)
        assert out.verdict == Verdict.NOT_POSITIVE
        assert out.numeric_marginal  # eps* is exactly on the boundary

    @pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
    def test_rotated_cube_keeps_redundant_rows(self, ctx):
        # a unit cube in a rational frame; its weighting system has
        # redundant rows whose artificials stay basic after phase 1
        normals = [
            [3, 4, 0], [-3, -4, 0], [-16, 12, -15],
            [12, -9, -20], [-12, 9, 20], [16, -12, 15],
        ]
        system = system_from_normals(
            [[ctx.coerce(x) for x in row] for row in normals], ctx
        )
        out = decide_positive(system)
        assert out.verdict == Verdict.POSITIVE
        assert verify_outcome(system, out)


def random_redundant_lp(rng):
    """A standard-form LP whose rows include combinations of other rows.

    The right-hand side comes from a point x0; with x0 >= 0 the LP is
    feasible, with mixed signs it may not be.
    """
    n = rng.randint(2, 6)
    base = [
        [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        for _ in range(rng.randint(1, 4))
    ]
    rows = list(base)
    for _ in range(rng.randint(1, 4)):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in base]
        rows.append([dot(coeffs, col) for col in zip(*base)])
    rng.shuffle(rows)
    lo = 0 if rng.random() < 0.7 else -2
    x0 = [
        Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(lo, 3))
        for _ in range(n)
    ]
    b = [dot(row, x0) for row in rows]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return rows, b, c


def assert_certified(rows, b, c, res):
    """Check an outcome's certificate by exact arithmetic alone."""
    columns = list(zip(*rows))
    if isinstance(res, Optimal):
        y = res.dual
        assert all(v >= 0 for v in res.x)
        assert [dot(row, res.x) for row in rows] == list(b)
        assert dot(c, res.x) == res.value
        assert dot(y, b) == res.value
        assert all(dot(y, col) >= cj for col, cj in zip(columns, c))
    elif isinstance(res, Infeasible):
        r = res.dual_ray
        assert all(dot(r, col) <= 0 for col in columns)
        assert dot(r, b) > 0
    else:
        d = res.primal_ray
        assert all(v >= 0 for v in d)
        assert all(dot(row, d) == 0 for row in rows)
        assert dot(c, d) > 0


class TestSimplexCertificates:
    def test_certificates_hold_with_redundant_rows(self, monkeypatch):
        # dependent rows leave artificials basic after phase 1; this seed's
        # stream includes LPs where they end up on rows other than their own.
        # Each LP also runs through the plain exact Bland route, which must
        # give the same outcome class and optimal value.
        bland = lp._bland_simplex
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return bland(*args)

        monkeypatch.setattr(lp, "_bland_simplex", counted)
        rng = random.Random(5)
        seen = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(500):
            rows, b, c = random_redundant_lp(rng)
            res = simplex_standard(rows, b, c, EXACT)
            ref = bland(rows, b, c, EXACT)
            seen[type(res)] += 1
            assert type(res) is type(ref)
            if isinstance(res, Optimal):
                assert res.value == ref.value
            assert_certified(rows, b, c, res)
            assert_certified(rows, b, c, ref)
        assert min(seen.values()) > 20  # every outcome is exercised
        # an Unbounded always comes from the Bland run; on this stream every
        # other outcome is proved from the float run's basis
        assert len(fallbacks) == seen[Unbounded]


# max x1 + 2 x2 + x5 s.t. x1 + x2 + x3 + 2 x5 = 4, x1 - x2 + x4 + 2 x5 = 2:
# the optimum is x2 = 4, x4 = 6 with value 8 and dual (2, 0); column x5 is
# twice column x1, and basis indices 5 and 6 (zero-based) are the artificials
GUESS_LP = (
    [[Fraction(v) for v in row] for row in ([1, 1, 1, 0, 2], [1, -1, 0, 1, 2])],
    [Fraction(4), Fraction(2)],
    [Fraction(v) for v in (1, 2, 0, 0, 1)],
)


# max -x1 - x2 s.t. x1 - x2 = 1: the basis {x2} has the feasible dual y = 1
# but x2 = -1
NEGATIVE_LP = ([[Fraction(1), Fraction(-1)]], [Fraction(1)], [Fraction(-1), Fraction(-1)])


class TestFloatGuess:
    """The float run only proposes a basis; every bad proposal falls back to
    the exact Bland route, and a good one is proved without it."""

    def test_good_guess_needs_no_bland_run(self, monkeypatch):
        def no_bland(*args):
            raise AssertionError("the exact Bland route ran")

        monkeypatch.setattr(lp, "_bland_simplex", no_bland)
        res = simplex_standard(*GUESS_LP, EXACT)
        assert res == Optimal((0, 4, 0, 6, 0), 8, (2, 0))
        infeasible = ([[Fraction(1), Fraction(1)]], [Fraction(-1)], [Fraction(0)] * 2)
        assert_certified(*infeasible, simplex_standard(*infeasible, EXACT))

    @pytest.mark.parametrize(
        "problem, guess",
        [
            (GUESS_LP, ("stopped", [5, 6], [1, 1])),
            (GUESS_LP, ("optimal", [0, 4], [1, 1])),
            (GUESS_LP, ("optimal", [2, 3], [1, 1])),
            (GUESS_LP, ("optimal", [1, 6], [1, 1])),
            (NEGATIVE_LP, ("optimal", [1], [1])),
            (GUESS_LP, ("infeasible", [2, 3], [1, 1])),
            (GUESS_LP, ("infeasible", [1, 6], [1, 1])),
            (GUESS_LP, ("unbounded", [2, 3], [1, 1])),
        ],
        ids=[
            "phase-1-stopped", "singular-basis", "feasible-not-optimal",
            "artificial-above-zero", "negative-primal", "false-infeasible",
            "false-infeasible-with-artificial", "false-unbounded",
        ],
    )
    def test_bad_guess_falls_back_to_bland(self, monkeypatch, problem, guess):
        # the artificial-above-zero and negative-primal bases have a
        # feasible dual y with y.b = c.x, so only the primal checks refuse them
        monkeypatch.setattr(lp, "_float_guess", lambda A, b, c: guess)
        res = simplex_standard(*problem, EXACT)
        assert res == lp._bland_simplex(*problem, EXACT)
        assert_certified(*problem, res)

    def test_overflow_in_the_guess_falls_back_to_bland(self, monkeypatch):
        def overflow(A, b, c):
            raise OverflowError("integer too large to convert to float")

        monkeypatch.setattr(lp, "_float_guess", overflow)
        res = simplex_standard(*GUESS_LP, EXACT)
        assert res == lp._bland_simplex(*GUESS_LP, EXACT)

    def test_entry_beyond_float_range(self):
        # float(10**400 / 3) overflows, so only the exact route can answer
        big = Fraction(10**400, 3)
        rows = [[big, Fraction(1), Fraction(0)], [Fraction(1), Fraction(0), Fraction(1)]]
        b = [Fraction(10**400), Fraction(5)]
        c = [Fraction(1), Fraction(0), Fraction(0)]
        with pytest.raises(OverflowError):
            lp._float_guess(rows, b, c)
        res = simplex_standard(rows, b, c, EXACT)
        assert res == lp._bland_simplex(rows, b, c, EXACT)
        assert res.value == 3
        assert_certified(rows, b, c, res)


def random_bang(rng, max_rows=4, max_cols=6):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    Q = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows)]
    return system_from_matrix(Q, c)


class TestAgainstOracle:
    def test_soundness_of_refutations(self):
        # every refused system really has no positive solution
        rng = random.Random(2024)
        refused = 0
        for _ in range(200):
            system = random_bang(rng)
            out = decide_positive(system)
            assert verify_outcome(system, out)
            if out.verdict != Verdict.POSITIVE:
                refused += 1
                assert not strictly_positive_solvable(
                    [list(r) for r in system.Q.data], list(system.c)
                )
        assert refused > 20  # the sample genuinely exercises refutations

    def test_completeness_against_fourier_motzkin(self):
        rng = random.Random(77)
        from conftest import random_needles_2d

        for _ in range(60):
            m = rng.randint(1, 5)
            if rng.random() < 0.5:
                needles = random_needles_2d(rng, m)
            else:
                needles = []
                while len(needles) < m:
                    v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                    if any(x != 0 for x in v):
                        needles.append(v)
            system = system_from_normals(needles, EXACT)
            out = decide_positive(system)
            expected = strictly_positive_solvable(
                [list(r) for r in system.Q.data], list(system.c)
            )
            assert out.is_positive == expected

    def test_invariance_under_column_scaling(self):
        rng = random.Random(5)
        for _ in range(40):
            system = random_bang(rng)
            out = decide_positive(system)
            scales = [
                Fraction(rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(system.Q.cols)
            ]
            scaled = system_from_matrix(
                [[x * scales[j] for j, x in enumerate(row)] for row in system.Q.data],
                list(system.c),
            )
            assert decide_positive(scaled).verdict == out.verdict

    def test_invariance_under_invertible_row_maps(self):
        rng = random.Random(6)
        count = 0
        while count < 25:
            system = random_bang(rng, max_rows=3, max_cols=4)
            r = system.Q.rows
            E = Mat.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)],
                EXACT,
            )
            if rank(E) < r:
                continue
            count += 1
            mapped = system_from_matrix(
                E.matmul(system.Q).data, E.matvec(list(system.c))
            )
            assert decide_positive(mapped).verdict == decide_positive(system).verdict


def tampered(outcome):
    """outcome, then copies with one witness coordinate moved by +-1/den or
    set to 0, with one certificate entry negated, and with a vector one
    entry too short or too long."""
    yield outcome
    for field in ("witness_t", "certificate_y"):
        vec = getattr(outcome, field)
        if vec is None:
            continue
        vec = [Fraction(v) for v in vec]
        for j, v in enumerate(vec):
            if field == "witness_t":
                changes = (v + Fraction(1, v.denominator), v - Fraction(1, v.denominator), 0)
            else:
                changes = (-v,)
            for w in changes:
                yield replace(outcome, **{field: tuple(vec[:j] + [w] + vec[j + 1:])})
        yield replace(outcome, **{field: tuple(vec[:-1])})
        yield replace(outcome, **{field: tuple(vec + [Fraction(1)])})


class TestIntegerRecheck:
    """verify_outcome re-checks in integers on W; it must accept and reject
    exactly what the Fraction re-check on Q does."""

    def assert_agrees(self, systems):
        verdicts = {True: 0, False: 0}
        for system in systems:
            q_rows = [list(row) for row in system.Q.data]
            outcomes = list(tampered(decide_positive(system)))
            assert verify_outcome(system, outcomes[0])
            for out in outcomes:
                expected = verify_positivity(
                    q_rows, list(system.c), out.verdict, out.witness_t, out.certificate_y
                )
                assert verify_outcome(system, out) == expected, out
                verdicts[expected] += 1
        return verdicts

    def test_weighting_systems(self):
        systems = [system_from_normals(normals, EXACT) for _, normals in weighting_normal_sets()]
        verdicts = self.assert_agrees(systems)
        assert verdicts[True] > 250 and verdicts[False] > 2500

    def test_random_bangs(self):
        rng = random.Random(2022)
        verdicts = self.assert_agrees([random_bang(rng) for _ in range(200)])
        assert verdicts[True] > 200 and verdicts[False] > 1000


# ---------------------------------------------------------------------------
# the integer proof of a basis against the exact Bland route


def coprime_lp(rng):
    """A feasible LP whose entries have large pairwise-coprime denominators."""
    primes = (10007, 10009, 10037)
    n, m = rng.randint(2, 5), rng.randint(1, 3)
    rows = [
        [Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(n)]
        for _ in range(m)
    ]
    x0 = [Fraction(rng.randint(0, 5), rng.choice(primes)) for _ in range(n)]
    c = [Fraction(rng.randint(-5, 5), rng.choice(primes)) for _ in range(n)]
    return rows, [dot(row, x0) for row in rows], c


def canonical_normals_systems(rng, count, n=6, m=12):
    """Weighting systems of canonical random normals whose scales s_i differ."""
    from orthants import Polyhedron, build, reduce

    out = []
    while len(out) < count:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if not all(any(r) for r in rows) or rank(Mat.from_rows(rows, EXACT)) < n:
            continue
        _, canonical = reduce(Polyhedron.from_rows(rows, [-1] * m, EXACT))
        dens = {max(x.denominator for x in canonical.A.row(i)) for i in range(canonical.nfacets)}
        if canonical.nfacets == m and len(dens) > 1:
            out.append(build(canonical))
    return out


def assert_basis_proves_bland(rows, b, c):
    """The exact Bland run's final basis, proved in integers, gives the
    Bland outcome Fraction for Fraction; returns the outcome class."""
    tab = lp._Tableau(rows, b, len(c), EXACT)
    status = tab.two_phase(c)[0]
    ref = lp._bland_simplex(rows, b, c, EXACT)
    if status == "unbounded":
        assert isinstance(ref, Unbounded)
        with pytest.raises(OrthantsError):
            lp._prove_basis(rows, b, c, status, tab.basis, tab.flip)
        return Unbounded
    res = lp._prove_basis(rows, b, c, status, tab.basis, tab.flip)
    assert res == ref
    if isinstance(res, Optimal):
        numbers = [*res.x, res.value, *res.dual]
    else:
        numbers = list(res.dual_ray)
    assert all(type(v) is Fraction for v in numbers)
    return type(res)


class TestIntegerProof:
    """_prove_basis on the basis where the exact Bland run ends must give
    exactly the Bland outcome, whatever the denominators."""

    def test_random_redundant_lps(self):
        rng = random.Random(8)
        seen = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(200):
            seen[assert_basis_proves_bland(*random_redundant_lp(rng))] += 1
        assert min(seen.values()) > 10

    def test_decide_lps_of_random_bangs(self):
        rng = random.Random(9)
        lps = recorded_lps([random_bang(rng) for _ in range(120)])
        seen = {assert_basis_proves_bland(*problem) for problem in lps}
        assert seen == {Optimal, Infeasible}

    def test_coprime_large_denominators(self):
        rng = random.Random(10)
        seen = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(120):
            seen[assert_basis_proves_bland(*coprime_lp(rng))] += 1
        assert seen[Optimal] > 20 and seen[Unbounded] > 10

    @pytest.mark.parametrize(
        "n, m, ends", [(6, 12, {Infeasible}), (4, 12, {Optimal}), (3, 9, {Optimal})]
    )
    def test_decide_lps_of_canonical_normals(self, n, m, ends):
        # 6 x 12 systems are Inconsistent, 4 x 12 NotPositive, 3 x 9 mixed
        systems = canonical_normals_systems(random.Random(12), 8, n, m)
        lps = recorded_lps(systems)
        assert {assert_basis_proves_bland(*problem) for problem in lps} == ends


def final_basis(rows, b, c):
    """The basis where the exact Bland run ends."""
    tab = lp._Tableau(rows, b, len(c), EXACT)
    tab.two_phase(c)
    return tab.basis


def sized_solves(monkeypatch):
    """Record (rows, columns) of every integer solve of the proof."""
    solve_integers = lp._solve_integers
    sizes = []

    def sized(rows, rhs):
        assert all(len(row) == len(rows) for row in rows)
        sizes.append((len(rows), len(rhs)))
        return solve_integers(rows, rhs)

    monkeypatch.setattr(lp, "_solve_integers", sized)
    return sizes


class TestStructuralBlock:
    """The proof solves on the k x k block of the k structural basic columns
    and the rows that no basic artificial covers."""

    def test_rank_deficient_decide_lp_solves_k_by_k(self, monkeypatch):
        from orthants import build, generate_cube

        (problem,) = recorded_lps([build(generate_cube(6))])
        rows, b, c = problem
        assert (len(rows), len(c)) == (21, 13)
        _, basis, _ = lp._float_guess(rows, b, c)
        k = sum(j < len(c) for j in basis)
        assert 0 < k < len(c)
        expected = lp._bland_simplex(rows, b, c, EXACT)
        runs = counted_bland(monkeypatch)
        sizes = sized_solves(monkeypatch)
        assert simplex_standard(rows, b, c, EXACT) == expected
        assert sizes == [(k, k), (k, k)] and not runs

    @pytest.mark.parametrize(
        "problem, ends",
        [
            # A = 0, or A >= 0 with b < 0: no structural column ever enters
            (([[Fraction(0)] * 2] * 2, [Fraction(0)] * 2, [Fraction(-1), Fraction(0)]), Optimal),
            (([[Fraction(0)] * 2], [Fraction(1)], [Fraction(0)] * 2), Infeasible),
            (([[Fraction(1), Fraction(1)]], [Fraction(-1)], [Fraction(0)] * 2), Infeasible),
        ],
        ids=["zero-optimal", "zero-infeasible", "negative-infeasible"],
    )
    def test_no_structural_column(self, monkeypatch, problem, ends):
        assert all(j >= len(problem[2]) for j in final_basis(*problem))
        sizes = sized_solves(monkeypatch)
        assert assert_basis_proves_bland(*problem) is ends
        assert set(sizes) == {(0, 0)}

    def test_no_artificial_left(self, monkeypatch):
        rows, b, c = GUESS_LP
        assert all(j < len(c) for j in final_basis(rows, b, c))
        sizes = sized_solves(monkeypatch)
        assert assert_basis_proves_bland(rows, b, c) is Optimal
        assert sizes == [(2, 2), (2, 2)]

    def test_artificial_rows_enter_the_farkas_test(self):
        # the basis {x2, artificial of row 2} fixes y_2 = -1 and y_1 = -1 on
        # the block, and then y.A_1 = -2 < 0
        with pytest.raises(OrthantsError, match="Farkas"):
            lp._prove_basis(*GUESS_LP, "infeasible", [1, 6], [1, 1])


def tampered_read_off(monkeypatch, which, position):
    """Make the integer read-off return one numerator raised by 1: in the
    primal solve (which = 0) or the dual solve (which = 1) of the proof."""
    solve_integers = lp._solve_integers
    calls = []

    def tampered(rows, rhs):
        numerators, d = solve_integers(rows, rhs)
        if len(calls) == which:
            numerators = list(numerators)
            numerators[position] += 1
        calls.append(rhs)
        return numerators, d

    monkeypatch.setattr(lp, "_solve_integers", tampered)


def counted_bland(monkeypatch):
    bland = lp._bland_simplex
    runs = []

    def counted(*args):
        runs.append(args)
        return bland(*args)

    monkeypatch.setattr(lp, "_bland_simplex", counted)
    return runs


TAMPERED = [lambda: GUESS_LP, lambda: recorded_lps([ACUTE])[0]]
TAMPERED_IDS = ["guess-lp", "acute"]


class TestTamperedReadOff:
    """A wrong numerator from the integer solves must be caught by the
    integer checks and end on the exact Bland route."""

    @pytest.mark.parametrize("problem", TAMPERED, ids=TAMPERED_IDS)
    def test_primal_numerator(self, monkeypatch, problem):
        # a zero-cost basic column keeps c.x, so only A~ z = b~ D sees it
        rows, b, c = problem()
        _, basis, _ = lp._float_guess(rows, b, c)
        k = next(k for k, j in enumerate(basis) if j < len(c) and c[j] == 0)
        expected = lp._bland_simplex(rows, b, c, EXACT)
        runs = counted_bland(monkeypatch)
        tampered_read_off(monkeypatch, 0, k)
        assert simplex_standard(rows, b, c, EXACT) == expected
        assert len(runs) == 1

    @pytest.mark.parametrize("problem", TAMPERED, ids=TAMPERED_IDS)
    def test_dual_numerator(self, monkeypatch, problem):
        rows, b, c = problem()
        expected = lp._bland_simplex(rows, b, c, EXACT)
        for i in range(len(b)):
            with monkeypatch.context() as m:
                runs = counted_bland(m)
                tampered_read_off(m, 1, i)
                assert simplex_standard(rows, b, c, EXACT) == expected
                assert len(runs) == 1


def test_rotated_endgo5_fallbacks_match_the_exact_route(monkeypatch):
    # Cayley rotations of endgo 5: the float guess fails on 8 of the 40,
    # which reach Bland, and every verdict and certificate of the 40 equals
    # the all-Bland route's
    from conftest import rational_rotation
    from orthants import Polyhedron, build, generate_max_rank_orthant, reduce

    def no_guess(A, b, c):
        raise OverflowError("no float guess")

    endgo = generate_max_rank_orthant(5)
    systems = []
    for seed in range(40):
        R = rational_rotation(random.Random(seed), 5)
        rows = [R.matvec(endgo.A.row(i)) for i in range(endgo.nfacets)]
        systems.append(build(reduce(Polyhedron.from_rows(rows, endgo.b, EXACT))[1]))
    runs = counted_bland(monkeypatch)
    outcomes = [decide_positive(system) for system in systems]
    assert 0 < len(runs) <= 8
    monkeypatch.setattr(lp, "_float_guess", no_guess)
    assert outcomes == [decide_positive(system) for system in systems]


class TestFloatTableauTolerance:
    """The float tableau counts |x| <= tol as zero, the rule of Context.sign."""

    CTX = Context("float", tol=0.25)

    def test_the_rule_is_context_sign(self):
        assert [self.CTX.sign(v) for v in (0.25, -0.25, 0.5, -0.5)] == [0, 0, 1, -1]

    @pytest.mark.parametrize("cost, enters", [(0.25, False), (0.5, True)])
    def test_reduced_cost(self, cost, enters):
        tab = lp._Tableau([[1.0]], [1.0], 1, self.CTX)
        tab.bland([cost, 0.0], 1)
        assert (tab.basis == [0]) == enters

    @pytest.mark.parametrize("entry, limits", [(0.25, False), (0.5, True)])
    def test_ratio_test_entry(self, entry, limits):
        tab = lp._Tableau([[entry]], [1.0], 1, self.CTX)
        _, enter = tab.bland([1.0, 0.0], 1)
        assert (enter is None) == limits

    @pytest.mark.parametrize("entry, updated", [(0.25, False), (0.5, True)])
    def test_pivot_skips_zero_rows(self, entry, updated):
        tab = lp._Tableau([[1.0], [entry]], [1.0, 1.0], 1, self.CTX)
        before = list(tab.T[1])
        tab.pivot(0, 0, [0.0] * 4)
        assert (tab.T[1] != before) == updated

    @pytest.mark.parametrize("rhs, flip", [(-0.25, 1), (-0.5, -1)])
    def test_row_flip(self, rhs, flip):
        assert lp._Tableau([[1.0]], [rhs], 1, self.CTX).flip == [flip]

    @pytest.mark.parametrize("rhs, status", [(0.25, "optimal"), (0.5, "infeasible")])
    def test_phase_1_value(self, rhs, status):
        # 0 x = rhs: phase 1 ends at -rhs
        assert lp._Tableau([[0.0]], [rhs], 1, self.CTX).two_phase([0.0])[0] == status
