import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orthants import (
    Polyhedron,
    build,
    canonical_polyhedron,
    decide_positive,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    reduce,
    remove_redundant,
)
from orthants.context import EXACT, FLOAT
from orthants.errors import DegeneratePolyhedron
from orthants.frames import system_from_primitive
from orthants.hedgehogs import Hedgehog
from orthants.lp import verify_outcome
from orthants.matrix import _primitive_rows, dot
from conftest import (
    rand_frac,
    random_needles_2d,
    rational_rotation,
    rotated,
    shuffled,
    weighting_normal_sets,
)
from oracles import canonical_rows, equal, from_needles, rref_rank, union


def regular_polygon_needles(k):
    """Outward normals of a regular k-gon, as float directions."""
    return [
        (math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k))
        for j in range(k)
    ]


class TestReduce:
    def test_square_collapses_parallel_pairs(self):
        h, sy = reduce(generate_cube(2))
        assert h.needles == ((1, 0), (0, 1))
        assert list(sy.b) == [-1, -1]

    def test_quadrant_fixed_up_to_offsets(self):
        P = Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], EXACT)
        h, sy = reduce(P)
        assert h.needles == ((1, 0), (0, 1))
        assert sy.A.data == P.A.data and list(sy.b) == [-1, -1]

    def test_hexagon_matches_triangle(self):
        hexagon = Polyhedron.from_rows(
            regular_polygon_needles(6), [-1.0] * 6, FLOAT
        )
        h, _ = reduce(hexagon)
        assert h.count == 3
        tri = from_needles(regular_polygon_needles(3), 2, FLOAT)
        assert equal(h, tri)

    def test_idempotent_exact(self):
        for P in (generate_cube(2), generate_max_rank_orthant(2), generate_max_rank_orthant(3)):
            h1, s1 = reduce(P)
            h2, s2 = reduce(s1)
            assert h1.needles == h2.needles
            assert s1.A.data == s2.A.data and s1.b == s2.b

    def test_idempotent_float(self):
        hexagon = Polyhedron.from_rows(regular_polygon_needles(6), [-1.0] * 6, FLOAT)
        h1, s1 = reduce(hexagon)
        h2, s2 = reduce(s1)
        assert h1.count == h2.count
        for u, v in zip(h1.needles, h2.needles):
            assert all(abs(a - b) < 1e-9 for a, b in zip(u, v))

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolyhedron):
            reduce(Polyhedron.from_rows([[1, 0]], [0], EXACT))

    def test_representative_system_is_minimal(self):
        # includes the case where plain primitive needles would be redundant
        for P in (generate_max_rank_orthant(2), generate_max_rank_orthant(3)):
            _, sy = reduce(P)
            red = remove_redundant(sy)
            assert red.nfacets == sy.nfacets

    def test_sign_normalization(self):
        h = from_needles([(-1, -2), (0, -3)], 2, EXACT)
        assert h.needles == ((1, 2), (0, 1))


def random_exact_system(rng, n):
    """A nondegenerate system of 2n to 3n small-integer rows (at most 9 needles)."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(2 * n, 3 * n))]
        rows = [r for r in rows if any(r)]
        if rows and rref_rank(rows) == n:
            return Polyhedron.from_rows(rows, [rand_frac(rng, -4, 4, 3) for _ in rows], EXACT)


def frame_inputs():
    rng = random.Random(2017)
    inputs = [generate_cube(n) for n in (2, 3, 4)]
    inputs += [generate_cross_polytope(n) for n in (2, 3)]
    inputs += [generate_max_rank_orthant(n) for n in (2, 3)]
    inputs += [random_exact_system(rng, rng.randint(2, 3)) for _ in range(24)]
    return inputs


class TestFrameIndependence:
    """reduce keeps the input's frame and order, yet its hedgehog and the
    verdict on its canonical system do not depend on either."""

    def test_rotated_and_shuffled_copies_reduce_alike(self):
        rng = random.Random(6)
        verdicts = set()
        for P in frame_inputs():
            copies = (rotated(P, rational_rotation(rng, P.dim)), shuffled(P, rng))
            h, sy = reduce(P)
            expected = decide_positive(build(sy)).verdict
            verdicts.add(expected)
            for copy in copies:
                h_copy, sy_copy = reduce(copy)
                assert equal(h, h_copy)
                assert decide_positive(build(sy_copy)).verdict == expected
        assert len(verdicts) > 1


def same_rows_as_oracle(h):
    """canonical_polyhedron(h) has exactly the oracle's rows; returns its k."""
    rows, k = canonical_rows(h.needles)
    sy = canonical_polyhedron(h)
    assert [sy.A.row(i) for i in range(sy.nfacets)] == rows
    assert list(sy.b) == [-1] * len(rows)
    return k


class TestCanonicalRows:
    """The integer minimality test against the Fraction definition."""

    @pytest.mark.parametrize(
        "gen", [generate_cube, generate_cross_polytope, generate_max_rank_orthant]
    )
    def test_gen_families(self, gen):
        for n in range(2, 7):
            h, _ = reduce(gen(n))
            same_rows_as_oracle(h)

    def test_random_needle_sets(self):
        rng = random.Random(11)
        scaled = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            dirs = [
                [rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(2, n + 4))
            ]
            dirs = [v for v in dirs if any(v)]
            if dirs:
                scaled += same_rows_as_oracle(from_needles(dirs, n, EXACT)) is not None
        assert 50 < scaled < 300

    def test_tie_is_not_minimal(self):
        # (1, 0).(1, 1) = (1, 0).(1, 0): the second row is tight, not slack,
        # where the first one is, so the needles must be scaled
        assert same_rows_as_oracle(from_needles([(1, 0), (1, 1)], 2, EXACT)) is not None

    def test_near_parallel_needles_double_k(self):
        for N in (5, 8, 13, 21, 34, 55, 89, 144):
            k = same_rows_as_oracle(from_needles([(N, 1), (N + 1, 1), (0, 1)], 2, EXACT))
            assert k >= 1 << 13
        k = same_rows_as_oracle(from_needles([(40, 1, 1), (41, 1, 1), (40, 1, 2)], 3, EXACT))
        assert k >= 1 << 13


def seeded_hedgehogs():
    """(name, hedgehog) of conftest's weighting normal sets (the gen families
    for n = 1..6 among them), each also turned by a rational rotation."""
    rng = random.Random(29)
    out = []
    for name, normals in weighting_normal_sets():
        n = len(normals[0])
        R = rational_rotation(rng, n)
        out.append((name, from_needles(normals, n, EXACT)))
        out.append((f"{name} rotated", from_needles([R.matvec(a) for a in normals], n, EXACT)))
    return out


class TestCanonicalScaling:
    """canonical_polyhedron's integer pass against the Fraction definition,
    and verify_outcome on its weighting systems against Q t == c."""

    def test_rows_are_the_scaled_needles_and_their_primitive_rows(self):
        scaled = 0
        for name, h in seeded_hedgehogs():
            rows, k = canonical_rows(h.needles)
            sy = canonical_polyhedron(h)
            assert list(sy.A.data) == rows, name
            assert all(type(x) is Fraction for row in sy.A.data for x in row), name
            assert sy.primitive_rows == _primitive_rows(sy.A.data, EXACT), name
            for v, (w, sigma) in zip(h.needles, sy.primitive_rows):
                s_i = 1 if k is None else math.isqrt(dot(v, v) * k * k)
                assert w == v and sigma == Fraction(k or 1, s_i), name
            scaled += k is not None
        assert 200 < scaled < 400

    def test_verify_outcome_agrees_with_q_t_equals_c(self):
        positive = moved = 0
        for name, h in seeded_hedgehogs():
            system = system_from_primitive(canonical_polyhedron(h).primitive_rows, EXACT)
            outcome = decide_positive(system)
            if not outcome.is_positive:
                continue
            Q, c, t = system.Q, list(system.c), list(outcome.witness_t)
            assert Q.matvec(t) == c and verify_outcome(system, outcome), name
            positive += 1
            for j in range(len(t)):
                for x in (t[j] * Fraction(3, 2), t[j] + Fraction(1, 10**9)):
                    u = tuple(t[:j] + [x] + t[j + 1:])
                    expected = Q.matvec(u) == c
                    assert verify_outcome(system, replace(outcome, witness_t=u)) == expected, name
                    moved += not expected
        assert positive > 200 and moved > 2000


class TestEqual:
    def test_count_mismatch(self):
        a = from_needles([(1, 0), (0, 1)], 2, EXACT)
        b = from_needles([(1, 0), (0, 1), (1, 1)], 2, EXACT)
        assert not equal(a, b)

    def test_quadrant_vs_right_triangle_subset(self):
        quad = from_needles([(1, 0), (0, 1)], 2, EXACT)
        sub = from_needles([(1, 0), (0, 1)], 2, EXACT)
        assert equal(quad, sub)

    def test_rotation_invariance_exact(self):
        rng = random.Random(31)
        for _ in range(15):
            needles = random_needles_2d(rng, rng.randint(2, 5))
            U = rational_rotation(rng, 2)
            rotated = [tuple(U.matvec(list(v))) for v in needles]
            h1 = from_needles(needles, 2, EXACT)
            h2 = from_needles(rotated, 2, EXACT)
            assert equal(h1, h2)

    def test_relabeling_and_sign_invariance(self):
        rng = random.Random(32)
        for _ in range(15):
            needles = random_needles_2d(rng, 4)
            shuffled = list(needles)
            rng.shuffle(shuffled)
            flipped = [
                tuple(-x for x in v) if rng.random() < 0.5 else v for v in shuffled
            ]
            assert equal(from_needles(needles, 2, EXACT), from_needles(flipped, 2, EXACT))

    def test_inequivalent_pair(self):
        a = from_needles([(1, 0), (0, 1), (1, 1)], 2, EXACT)
        b = from_needles([(1, 0), (0, 1), (2, 1)], 2, EXACT)
        assert not equal(a, b)

    def test_sign_pattern_consistency_matters(self):
        # same |Gram| entries, but the sign products around the needle
        # triangle differ in parity, so no relabeling or sign flip matches
        # them (two needles can always be rotated onto each other)
        a = from_needles([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3, EXACT)
        b = from_needles([(1, 1, 0), (1, 0, 1), (0, 1, -1)], 3, EXACT)
        assert not equal(a, b)

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(33)
        hs = []
        for _ in range(6):
            hs.append(from_needles(random_needles_2d(rng, 3), 2, EXACT))
        for h in hs:
            assert equal(h, h)
        for h1 in hs:
            for h2 in hs:
                assert equal(h1, h2) == equal(h2, h1)
        for h1 in hs:
            for h2 in hs:
                for h3 in hs:
                    if equal(h1, h2) and equal(h2, h3):
                        assert equal(h1, h3)

    def test_needle_guard(self):
        big = from_needles(
            [(1, k) for k in range(10)], 2, EXACT
        )
        with pytest.raises(ValueError, match="guarded"):
            equal(big, big)


class TestUnion:
    def test_self_union(self):
        q = from_needles([(1, 0), (0, 1)], 2, EXACT)
        assert union(q, q).needles == q.needles

    def test_axes_union(self):
        u = union(from_needles([(1, 0)], 2, EXACT), from_needles([(0, 1)], 2, EXACT))
        assert u.needles == ((1, 0), (0, 1))

    def test_right_triangle_plus_diagonal(self):
        rt = from_needles([(1, 0), (0, 1), (-1, -1)], 2, EXACT)
        d = from_needles([(1, 1)], 2, EXACT)
        assert union(rt, d).count == 3  # (1,1) duplicates (-1,-1) mod sign

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            union(from_needles([(1, 0)], 2, EXACT), from_needles([(1, 0, 0)], 3, EXACT))


class TestOrthantnessInvariance:
    def apply_random_transformations(self, rng, normals, offsets):
        """A random chain of the five verdict-preserving edits."""
        normals = [tuple(v) for v in normals]
        offsets = list(offsets)
        for _ in range(rng.randint(1, 6)):
            move = rng.randint(1, 5)
            if move == 1:  # retune offsets arbitrarily
                offsets = [rand_frac(rng, -4, 4, 3) for _ in offsets]
            elif move == 2:  # rescale one normal
                i = rng.randrange(len(normals))
                lam = rand_frac(rng, -4, 4, 3, nonzero=True)
                normals[i] = tuple(lam * x for x in normals[i])
                offsets[i] = lam * offsets[i] if lam > 0 else offsets[i]
            elif move == 3:  # rotate everything
                U = rational_rotation(rng, 2)
                normals = [tuple(U.matvec(list(v))) for v in normals]
            elif move == 4:  # append a parallel copy
                i = rng.randrange(len(normals))
                k = rand_frac(rng, -3, 3, 2, nonzero=True)
                normals.append(tuple(k * x for x in normals[i]))
                offsets.append(rand_frac(rng, -4, 4, 3))
            elif move == 5:  # drop one of a parallel pair
                for i in range(len(normals)):
                    for j in range(i + 1, len(normals)):
                        cross = (
                            normals[i][0] * normals[j][1]
                            - normals[i][1] * normals[j][0]
                        )
                        if cross == 0:
                            del normals[j], offsets[j]
                            break
                    else:
                        continue
                    break
        return normals, offsets

    def test_verdict_survives_equivalence_moves(self):
        rng = random.Random(41)
        for _ in range(25):
            needles = random_needles_2d(rng, rng.randint(2, 5))
            base = Polyhedron.from_rows(needles, [-1] * len(needles), EXACT)
            before = decide_positive(build(base)).is_positive
            normals, offsets = self.apply_random_transformations(
                rng, needles, [-Fraction(1)] * len(needles)
            )
            after = Polyhedron.from_rows(normals, offsets, EXACT)
            assert decide_positive(build(after)).is_positive == before

    def test_canonical_polyhedron_same_verdict(self):
        rng = random.Random(42)
        for _ in range(20):
            needles = random_needles_2d(rng, rng.randint(2, 5))
            base = Polyhedron.from_rows(needles, [-1] * len(needles), EXACT)
            _, sy = reduce(base)
            assert (
                decide_positive(build(sy)).is_positive
                == decide_positive(build(base)).is_positive
            )
