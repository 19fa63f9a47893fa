import random
from fractions import Fraction

import pytest

from orthants import (
    Polyhedron,
    boundedness,
    functional_min,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    generate_simplex,
    interior_point,
    is_nondegenerate,
    recession_rays,
    remove_redundant,
    vertices,
)
from orthants import polyhedra
from orthants.context import EXACT, FLOAT
from orthants.errors import (
    DegeneratePolyhedron,
    DimensionTooLarge,
    EmptyOrLowerDimensional,
    EmptyPolyhedron,
    ShapeMismatch,
)
from orthants.matrix import dot
from conftest import rand_frac
from oracles import functional_minimum, strictly_feasible


def counting_lp_tests(monkeypatch):
    """Record the normal of every row that remove_redundant sends to its LP
    test, in a list that is returned and fills up as it runs."""
    tests, lp_test = [], polyhedra._functional_min_rows

    def counted(normals, offsets, f, ctx):
        tests.append(tuple(f))
        return lp_test(normals, offsets, f, ctx)

    monkeypatch.setattr(polyhedra, "_functional_min_rows", counted)
    return tests


SQUARE = Polyhedron.from_rows(
    [[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -1, -1], EXACT
)
QUADRANT = Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], EXACT)


class TestNondegeneracy:
    def test_half_plane(self):
        P = Polyhedron.from_rows([[1, 0]], [0], EXACT)
        assert not is_nondegenerate(P)

    def test_square(self):
        assert is_nondegenerate(SQUARE)

    def test_strip_contains_a_line(self):
        strip = Polyhedron.from_rows([[1, 0], [-1, 0]], [0, -1], EXACT)
        assert not is_nondegenerate(strip)

    def test_zero_row_rejected(self):
        with pytest.raises(ShapeMismatch):
            Polyhedron.from_rows([[0, 0]], [0], EXACT)


class TestRemoveRedundant:
    def test_square_plus_slack_row(self):
        P = Polyhedron.from_rows(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]],
            [0, 0, -1, -1, -5],
            EXACT,
        )
        red = remove_redundant(P)
        assert red.nfacets == 4

    def test_minimal_triangle_is_fixed(self):
        tri = Polyhedron.from_rows([[0, 1], [-1, -1], [3, -1]], [0, -4, 0], EXACT)
        red = remove_redundant(tri)
        assert red.A.data == tri.A.data and red.b == tri.b

    def test_duplicate_inequality_collapses(self):
        P = Polyhedron.from_rows(
            [[1, 0], [2, 0], [0, 1], [-1, 0], [0, -1]],
            [0, 0, 0, -1, -1],
            EXACT,
        )
        red = remove_redundant(P)
        assert red.nfacets == 4

    def test_duplicate_keeps_tightest_offset(self):
        P = Polyhedron.from_rows(
            [[1, 0], [2, 0], [0, 1], [-1, 0], [0, -1]],
            [0, 1, 0, -1, -1],  # second row says x >= 1/2: tighter
            EXACT,
        )
        red = remove_redundant(P)
        mins = functional_min(red, [1, 0])
        assert mins == Fraction(1, 2)

    def test_idempotent(self):
        P = Polyhedron.from_rows(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
            [0, 0, -1, -1, -3],
            EXACT,
        )
        once = remove_redundant(P)
        twice = remove_redundant(once)
        assert once.A.data == twice.A.data and once.b == twice.b

    def test_point_set_preserved(self):
        rng = random.Random(11)
        P = Polyhedron.from_rows(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 2]],
            [0, 0, -2, -2, -1, -9],
            EXACT,
        )
        red = remove_redundant(P)
        for _ in range(100):
            x = [rand_frac(rng, -3, 3, 4), rand_frac(rng, -3, 3, 4)]
            assert P.contains(x) == red.contains(x)

    @pytest.mark.parametrize("diagonal_first", [False, True])
    def test_tied_shot_is_left_to_the_lp(self, monkeypatch, diagonal_first):
        # From the centre, the shot along -(1, 1) reaches x >= 0, y >= 0 and
        # x + y >= 0 at once, at (0, 0): no row is certified by it, whichever
        # of the three comes first, and the LP test then drops x + y >= 0.
        # The four sides are certified by their own shots, so that is the
        # only LP.
        sides = [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)]
        rows = [([1, 1], 0)] + sides if diagonal_first else sides + [([1, 1], 0)]
        P = Polyhedron.from_rows([a for a, _ in rows], [b for _, b in rows], EXACT)
        half = Fraction(1, 2)
        monkeypatch.setattr(polyhedra, "interior_point", lambda _: (half, half))
        tests = counting_lp_tests(monkeypatch)
        red = remove_redundant(P)
        assert [(list(a), b) for a, b in zip(red.A.data, red.b)] == sides
        assert tests == [(1, 1)]

    def test_empty_system_raises(self):
        empty = Polyhedron.from_rows([[1], [-1]], [1, 0], EXACT)
        with pytest.raises(EmptyOrLowerDimensional):
            remove_redundant(empty)

    def test_lower_dimensional_raises(self):
        flat = Polyhedron.from_rows([[1, 0], [-1, 0]], [0, 0], EXACT)
        with pytest.raises(EmptyOrLowerDimensional):
            remove_redundant(flat)


class TestInterior:
    def test_square_interior(self):
        x = interior_point(SQUARE)
        assert x is not None and SQUARE.contains(x)

    def test_empty_none(self):
        empty = Polyhedron.from_rows([[1], [-1]], [1, 0], EXACT)
        assert interior_point(empty) is None


class TestRecession:
    def test_square_bounded(self):
        assert recession_rays(SQUARE).is_trivial and boundedness(SQUARE).is_positive

    def test_quadrant_rays(self):
        rays = recession_rays(QUADRANT).rays
        assert sorted(rays) == [(0, 1), (1, 0)]

    def test_corner_rays(self):
        corner = Polyhedron.from_rows([[1, -1], [1, 1]], [-1, -1], EXACT)
        rays = recession_rays(corner).rays
        assert sorted(rays) == [(1, -1), (1, 1)]
        for d in rays:
            assert all(dot(corner.A.row(i), d) >= 0 for i in range(2))

    def test_dimension_guard(self):
        n = 7
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        P = Polyhedron.from_rows(rows, [0] * n, EXACT)
        with pytest.raises(DimensionTooLarge):
            recession_rays(P)

    def test_segment_rays_1d(self):
        seg = Polyhedron.from_rows([[1], [-1]], [0, -1], EXACT)
        assert recession_rays(seg).is_trivial
        half = Polyhedron.from_rows([[1]], [0], EXACT)
        assert recession_rays(half).rays == ((1,),)


class TestFunctionalMin:
    def test_square_examples(self):
        assert functional_min(SQUARE, [1, 0]) == 0
        assert functional_min(SQUARE, [1, 1]) == 0

    def test_unbounded(self):
        assert functional_min(QUADRANT, [-1, 0]) is None

    @pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
    def test_empty_raises_even_when_the_dual_is_infeasible(self, ctx):
        # max b.y : A^T y = f, y >= 0 is infeasible here, as it is for an
        # unbounded f; only the f = 0 dual shows that P is empty
        P = Polyhedron.from_rows(
            [[-2, 3], [-2, -1], [-1, -2], [1, 2]], [-1, -2, -1, 2], ctx
        )
        with pytest.raises(EmptyPolyhedron):
            functional_min(P, [-1, -3])
        assert functional_min(
            Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], ctx), [-1, 0]
        ) is None


def random_system(rng):
    """n = 1..4 variables, 1..8 rows: slacks around a random point, some
    negative (so some systems are empty), and some rows positive multiples
    of earlier ones (so remove_redundant has directions to merge)."""
    n, m = rng.randint(1, 4), rng.randint(1, 8)
    p = [rand_frac(rng, -6, 6, 3) for _ in range(n)]
    rows, offsets = [], []
    while len(rows) < m:
        if rows and rng.random() < 0.2:
            a = [rng.choice((1, 2, Fraction(1, 2))) * x for x in rng.choice(rows)]
        else:
            a = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if any(a):
            rows.append(a)
            offsets.append(dot(a, p) - rng.randint(-2, 3))
    return rows, offsets


def merged_rows(rows, offsets):
    """Rows with one representative per direction, at its tightest offset,
    in order of first appearance."""
    out = []
    for a, b in zip(rows, offsets):
        for k, (u, c) in enumerate(out):
            lam = next(y / x for x, y in zip(u, a) if x != 0)
            if lam > 0 and all(y == lam * x for x, y in zip(u, a)):
                out[k] = (u, max(c, b / lam))
                break
        else:
            out.append((a, b))
    return out


SYSTEMS = 500


class TestAgainstFourierMotzkin:
    """Each LP route against the Fourier-Motzkin oracle on seeded systems."""

    def test_functional_min(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(SYSTEMS):
            rows, offsets = random_system(rng)
            f = [rng.randint(-3, 3) for _ in rows[0]]
            expected = functional_minimum(rows, offsets, f)
            outcomes.add(expected if isinstance(expected, str) else "value")
            for ctx in (EXACT, FLOAT):
                P = Polyhedron.from_rows(rows, offsets, ctx)
                if expected == "empty":
                    with pytest.raises(EmptyPolyhedron):
                        functional_min(P, f)
                    continue
                got = functional_min(P, f)
                if expected == "unbounded":
                    assert got is None
                elif ctx.is_exact:
                    assert got == expected
                else:
                    assert abs(got - float(expected)) < 1e-6
        assert outcomes == {"empty", "unbounded", "value"}

    def test_remove_redundant(self, monkeypatch):
        rng, scale_rng = random.Random(2025), random.Random(2030)
        reduced = rows_tested = 0
        tests = counting_lp_tests(monkeypatch)
        for _ in range(SYSTEMS):
            rows, offsets = random_system(rng)
            exact, approx = (Polyhedron.from_rows(rows, offsets, ctx) for ctx in (EXACT, FLOAT))
            if not strictly_feasible(rows, offsets):
                for P in (exact, approx):
                    with pytest.raises(EmptyOrLowerDimensional):
                        remove_redundant(P)
                continue
            merged = merged_rows(rows, offsets)
            expected = []
            for j, (a, b) in enumerate(merged):
                others = merged[:j] + merged[j + 1:]
                low = functional_minimum(
                    [u for u, _ in others], [c for _, c in others], a
                )
                assert low != "empty"
                if low == "unbounded" or low < b:
                    expected.append((tuple(a), b))
            red = remove_redundant(exact)
            assert list(zip(red.A.data, red.b)) == expected
            # the float backend keeps the same rows and offsets
            got = remove_redundant(approx)
            assert got.nfacets == len(expected)
            for (a, b), u, c in zip(expected, got.A.data, got.b):
                assert abs(float(b) - c) < 1e-9
                assert all(abs(float(x) - y) < 1e-9 for x, y in zip(a, u))
            # every row and its offset times its own positive rational of large
            # content: the same rows are kept, each scaled by its first occurrence's
            # factor (the offsets b_i / sigma_i and the dedup of big primitive rows)
            lam = [Fraction(scale_rng.randint(1, 10**12), scale_rng.randint(1, 10**12))
                   for _ in rows]
            scaled = Polyhedron.from_rows([[x * f for x in a] for a, f in zip(rows, lam)],
                                          [b * f for b, f in zip(offsets, lam)], EXACT)
            first = {id(a): lam[next(i for i, r in enumerate(rows) if r is a)] for a, _ in merged}
            kept = [(a, b) for a, b in merged if (tuple(a), b) in expected]
            red = remove_redundant(scaled)
            assert list(zip(red.A.data, red.b)) == [
                (tuple(x * first[id(a)] for x in a), b * first[id(a)]) for a, b in kept
            ]
            reduced += len(expected) < len(merged)
            rows_tested += 3 * len(merged)
        assert reduced > SYSTEMS // 10
        # both routes settle a share of the rows: the ray shots and the LPs
        assert 0 < len(tests) < rows_tested

    def test_interior_point(self):
        rng = random.Random(2026)
        found = 0
        for _ in range(SYSTEMS):
            rows, offsets = random_system(rng)
            x = interior_point(Polyhedron.from_rows(rows, offsets, EXACT))
            if not strictly_feasible(rows, offsets):
                assert x is None
                continue
            assert x is not None
            assert all(dot(a, x) > b for a, b in zip(rows, offsets))
            found += 1
        assert 0 < found < SYSTEMS


class TestBoundedness:
    """The Stiemke LP against ray enumeration, with its certificate re-checked."""

    @pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
    def test_agrees_with_ray_enumeration(self, ctx):
        rng = random.Random(2027)
        seen = {True: 0, False: 0}
        compared = 0
        while compared < 1000:
            rows, offsets = random_system(rng)
            P = Polyhedron.from_rows(rows, offsets, ctx)
            if not is_nondegenerate(P):
                with pytest.raises(DegeneratePolyhedron):
                    boundedness(P)
                continue
            bounded = recession_rays(P).is_trivial
            outcome = boundedness(P)
            assert outcome.is_positive == bounded
            seen[bounded] += 1
            compared += 1
            if not ctx.is_exact:
                continue
            if bounded:
                y = outcome.witness_t
                assert all(v > 0 for v in y)
                assert all(dot(y, [r[k] for r in rows]) == 0 for k in range(len(rows[0])))
            else:
                Av = [dot(a, outcome.certificate_y) for a in rows]
                assert all(v >= 0 for v in Av) and any(v > 0 for v in Av)
        assert min(seen.values()) > 100

    def test_cube7_beyond_the_ray_guard(self):
        cube = generate_cube(7)
        with pytest.raises(DimensionTooLarge):
            recession_rays(cube)
        assert boundedness(cube).is_positive
        orthant = Polyhedron.from_rows([list(r) for r in cube.A.data[:7]], [0] * 7, EXACT)
        assert not boundedness(orthant).is_positive


class TestGenerators:
    def test_cube(self):
        P = generate_cube(2)
        assert P.nfacets == 4 and is_nondegenerate(P)
        assert sorted(vertices(P)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cross_polytope_count(self):
        assert generate_cross_polytope(3).nfacets == 8

    def test_max_rank_family_dim2_rows(self):
        P = generate_max_rank_orthant(2)
        assert [list(r) for r in P.A.data] == [
            [1, -1],
            [-1, 1],
            [1, 1],
            [1, 0],
            [0, 1],
        ]
        assert list(P.b) == [-1, -1, -1, Fraction(-2, 3), Fraction(-2, 3)]

    def test_max_rank_family_is_minimal(self):
        for n in (2, 3):
            P = generate_max_rank_orthant(n)
            red = remove_redundant(P)
            assert red.nfacets == P.nfacets

    def test_simplex_exact_when_pivots_square(self):
        P = generate_simplex([3, 4])
        assert P.ctx.is_exact and P.nfacets == 2

    def test_simplex_metric_reproduced(self):
        P = generate_simplex([1, 2, 2])
        vs = vertices(P)
        assert len(vs) == 3
        d2s = sorted(
            sum((a - b) ** 2 for a, b in zip(vs[i], vs[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        expected = sorted([1 + 4, 1 + 4, 4 + 4])
        assert all(abs(a - e) < 1e-9 for a, e in zip(d2s, expected))

    def test_simplex_rejects_bad_alphas(self):
        with pytest.raises(ShapeMismatch):
            generate_simplex([1, -1])
