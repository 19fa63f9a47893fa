import io
import random
import sys
from fractions import Fraction

import pytest

from orthants import (
    Polyhedron,
    build,
    decide_positive,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    rank,
)
from orthants.context import EXACT, FLOAT
from orthants.frames import BangSystem, coordinate_pairs, rank_and_consistency, system_from_normals
from orthants import cli, lp
from orthants.fileformats import polyhedron_to_text
from oracles import rref_rank, solve_any, weighting_matrix
from conftest import (
    random_needles_2d, rational_rotation, recorded_lps, shear, system_from_matrix,
    weighting_normal_sets,
)


def poly_from_normals(normals, ctx=EXACT):
    return Polyhedron.from_rows(normals, [-1] * len(normals), ctx)


class TestBuild:
    def test_pair_order(self):
        assert coordinate_pairs(3) == ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

    def test_quadrant(self):
        B = build(poly_from_normals([(1, 0), (0, 1)]))
        assert [list(r) for r in B.Q.data] == [[1, 0], [0, 1], [0, 0]]
        assert list(B.c) == [1, 1, 0]

    def test_acute_triangle_entries(self):
        B = build(poly_from_normals([(0, 1), (-1, -1), (3, -1)]))
        assert [list(r) for r in B.Q.data] == [[0, 1, 9], [1, 1, 1], [0, 1, -3]]

    def test_max_rank_family_dim2_matrix(self):
        B = build(generate_max_rank_orthant(2))
        cols = [B.Q.column(j) for j in range(5)]
        assert cols == [(1, 1, -1), (1, 1, -1), (1, 1, 1), (1, 0, 0), (0, 1, 0)]

    def test_row_count(self):
        for n in (2, 3, 4):
            B = build(generate_cube(n))
            assert B.Q.rows == n * (n + 1) // 2


class TestRank:
    def test_cube_rank_is_dimension(self):
        for n in (2, 3, 4):
            assert rank_and_consistency(build(generate_cube(n)))[0] == n

    def test_quadrant(self):
        assert rank_and_consistency(build(poly_from_normals([(1, 0), (0, 1)])))[0] == 2

    def test_max_rank_family(self):
        for n in (2, 3):
            B = build(generate_max_rank_orthant(n))
            assert rank_and_consistency(B)[0] == n * (n + 1) // 2

    def test_rank_at_least_dimension(self):
        rng = random.Random(3)
        for _ in range(25):
            normals = random_needles_2d(rng, rng.randint(2, 6))
            P = poly_from_normals(normals)
            if rank(P.A) == 2:
                assert rank_and_consistency(build(P))[0] >= 2


class TestConsistency:
    def test_quadrant(self):
        assert rank_and_consistency(build(poly_from_normals([(1, 0), (0, 1)])))[1]

    def test_right_triangle_consistent_but_not_positive(self):
        P = poly_from_normals([(1, 0), (0, 1), (-1, -1)])
        assert rank_and_consistency(build(P))[1]
        assert not decide_positive(build(P)).is_positive

    def test_matches_direct_solving(self):
        rng = random.Random(9)
        for _ in range(40):
            normals = random_needles_2d(rng, rng.randint(2, 5))
            P = poly_from_normals(normals)
            B = build(P)
            direct = solve_any([list(r) for r in B.Q.data], list(B.c))
            assert rank_and_consistency(B)[1] == (direct is not None)

    def test_named_triple(self):
        P = poly_from_normals([(1, 0), (-1, 3), (-1, -3)])
        B = build(P)
        direct = solve_any([list(r) for r in B.Q.data], list(B.c))
        assert rank_and_consistency(B)[1] == (direct is not None)


def oracle_rank_and_consistency(Q_rows, c):
    """rank Q by plain row reduction; solvable when appending c keeps the rank."""
    r = rref_rank(Q_rows)
    return r, rref_rank([list(row) + [ci] for row, ci in zip(Q_rows, c)]) == r


class TestOneEchelonPass:
    """rank_and_consistency reads rank Q and solvability off one pass on [Q | c]."""

    def test_families_against_row_reduction(self):
        for gen in (generate_cube, generate_cross_polytope, generate_max_rank_orthant):
            for n in range(2, 7):
                for ctx in (EXACT, FLOAT):
                    B = build(gen(n, ctx))
                    exact = build(gen(n))
                    expected = oracle_rank_and_consistency(exact.Q.data, exact.c)
                    assert rank_and_consistency(B) == expected, (gen.__name__, n, ctx)

    def test_random_systems_against_row_reduction(self):
        rng = random.Random(10)
        outcomes = set()
        for _ in range(200):
            cols = rng.randint(1, 7)
            base = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))
            ]
            rows = list(base)
            for _ in range(rng.randint(0, 3)):
                coeffs = [rng.randint(-2, 2) for _ in base]
                rows.append([sum(k * r[j] for k, r in zip(coeffs, base)) for j in range(cols)])
            rng.shuffle(rows)
            if rng.random() < 0.5:
                t = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                c = [sum(a * b for a, b in zip(row, t)) for row in rows]
            else:
                c = [Fraction(rng.randint(-3, 3)) for _ in rows]
            B = system_from_matrix(rows, c)
            expected = oracle_rank_and_consistency(rows, c)
            assert rank_and_consistency(B) == expected
            outcomes.add(expected[1])
        assert outcomes == {True, False}


class TestInvariance:
    def test_row_scaling_scales_columns_quadratically(self):
        rng = random.Random(21)
        for _ in range(20):
            normals = random_needles_2d(rng, rng.randint(2, 5))
            P = poly_from_normals(normals)
            B = build(P)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            i = rng.randrange(len(normals))
            scaled = list(normals)
            scaled[i] = tuple(lam * x for x in scaled[i])
            B2 = build(poly_from_normals(scaled))
            assert B2.Q.column(i) == tuple(lam * lam * x for x in B.Q.column(i))
            assert rank_and_consistency(B2) == rank_and_consistency(B)
            assert (
                decide_positive(B2).is_positive == decide_positive(B).is_positive
            )

    def test_exact_rotation_preserves_verdict(self):
        rng = random.Random(22)
        for _ in range(15):
            normals = random_needles_2d(rng, rng.randint(2, 5))
            U = rational_rotation(rng, 2)
            rotated = [tuple(U.matvec(list(v))) for v in normals]
            a = decide_positive(build(poly_from_normals(normals)))
            b = decide_positive(build(poly_from_normals(rotated)))
            assert a.is_positive == b.is_positive

    def test_float_rotation_keeps_solutions(self):
        rng = random.Random(23)
        import math

        normals = [(1.0, 0.0), (0.0, 1.0), (-1.0, -2.0), (2.0, -1.0)]
        base = decide_positive(system_from_normals(normals, FLOAT))
        for _ in range(10):
            a = rng.uniform(0, math.pi)
            R = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
            rotated = [
                (R[0][0] * x + R[0][1] * y, R[1][0] * x + R[1][1] * y)
                for x, y in normals
            ]
            out = decide_positive(system_from_normals(rotated, FLOAT))
            assert out.is_positive == base.is_positive
            if out.is_positive:
                # the base witness still solves the rotated system within tol
                sys_rot = system_from_normals(rotated, FLOAT)
                for i in range(sys_rot.Q.rows):
                    resid = (
                        sum(
                            sys_rot.Q.data[i][j] * base.witness_t[j]
                            for j in range(len(normals))
                        )
                        - sys_rot.c[i]
                    )
                    assert abs(resid) < 1e-7

    def test_witness_implies_consistent(self):
        rng = random.Random(24)
        for _ in range(30):
            normals = random_needles_2d(rng, rng.randint(2, 6))
            P = poly_from_normals(normals)
            if decide_positive(build(P)).is_positive:
                assert rank_and_consistency(build(P))[1]


class TestCrossPolytope:
    def test_diagonal_rows_force_unit_sum(self):
        for n in (2, 3):
            P = generate_cross_polytope(n)
            B = build(P)
            out = decide_positive(B)
            assert out.is_positive
            assert sum(out.witness_t) == 1


def float_bits(value):
    """float(value) as its hex string, or "overflow" beyond float range."""
    try:
        return float(value).hex()
    except OverflowError:
        return "overflow"


class TestIntegerForm:
    """The exact system keeps Q as integer columns W with one positive scale
    each; W diag(scales) must be Q's Fraction definition entry for entry,
    and the decision LP's float entries float() of its Fraction entries."""

    def test_columns_times_scales_is_the_fraction_definition(self):
        for name, normals in weighting_normal_sets():
            B = system_from_normals(normals, EXACT)
            expected = weighting_matrix(normals)
            assert all(type(w) is int for row in B.W.data for w in row), name
            assert all(type(s) is Fraction and s > 0 for s in B.scales), name
            assert [[w * s for w, s in zip(row, B.scales)] for row in B.W.data] == expected, name
            assert [list(row) for row in B.Q.data] == expected, name

    def test_float_lp_entries_are_float_of_the_fractions(self):
        # the decision LP is [Q | -Q 1] with right-hand side c - Q 1
        sets = weighting_normal_sets()
        lps = recorded_lps([system_from_normals(normals, EXACT) for _, normals in sets])
        overflows = 0
        for (name, normals), (A_rows, b, c) in zip(sets, lps, strict=True):
            Q = weighting_matrix(normals)
            pairs = coordinate_pairs(len(normals[0]))
            assert list(b) == [int(p == q) - sum(row) for (p, q), row in zip(pairs, Q)], name
            expected = [[float_bits(x) for x in row + [-sum(row)]] for row in Q]
            A = lp._IntegerColumns.of(A_rows, len(c))
            if any("overflow" in row for row in expected):
                overflows += 1
                with pytest.raises(OverflowError):
                    A.floats()
            else:
                assert [[v.hex() for v in row] for row in A.floats()] == expected, name
        assert overflows == 1  # the rows with entries of 10^2200

    def test_exact_commands_build_no_fraction_q(self, monkeypatch, capsys):
        # decisions, ranks, decompositions and embeddings run on W on both
        # backends, for polytopes and an unbounded cone; only --dump-bang reads Q
        read = BangSystem.Q.fget
        built = []
        monkeypatch.setattr(
            BangSystem, "Q", property(lambda B: built.append(B._Q is None) or read(B))
        )
        commands = ["is-orthant", "rank", "classify2d", "decompose", "embed", "realize"]
        inputs = [(f"{gen.__name__} {n}", gen(n)) for n in (2, 3)
                  for gen in (generate_cube, generate_cross_polytope, generate_max_rank_orthant)]
        for backend in ("exact", "float"):
            for name, P in inputs + [("shear 3", shear(3))]:
                text = polyhedron_to_text(P)
                for command in commands:
                    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                    assert cli.main(["--backend", backend, command, "-"]) in (0, 1, 2)
                assert not any(built), (backend, name)
        monkeypatch.setattr(sys, "stdin", io.StringIO(polyhedron_to_text(generate_cube(3))))
        assert cli.main(["--dump-bang", "is-orthant", "-"]) == 0 and any(built)
        capsys.readouterr()
