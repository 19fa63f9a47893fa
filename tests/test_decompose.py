"""Decomposition into basic orthant subsystems, checked against tests/oracles.py,
whose split tree is the second route to a basic decomposition."""

import random
from fractions import Fraction

import pytest

from orthants import (
    Polyhedron,
    build,
    decide_positive,
    find_basic_decomposition,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
)
from orthants.context import EXACT, FLOAT
from orthants.decompose import Decomposition
from orthants.matrix import rank
from conftest import rational_rotation, rotated, shuffled
from oracles import rref_rank, split_leaves, split_walk, strictly_positive_solvable

FAMILIES = {
    "cube": generate_cube,
    "cross": generate_cross_polytope,
    "endgo": generate_max_rank_orthant,
}


def q_rows(P):
    """The weighting matrix Q of P as plain Fractions."""
    return [[Fraction(x) for x in row] for row in build(P).Q.data]


def columns(rows, subset):
    return [[row[j] for j in subset] for row in rows]


def random_hedgehog(rng, n, m):
    """m random small integer normals in R^n of full column rank, or None."""
    normals = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    if any(all(x == 0 for x in a) for a in normals):
        return None
    if rref_rank(normals) < n:
        return None
    return Polyhedron.from_rows(normals, [-1] * m, EXACT)


def check_decomposition(P, dec, exact):
    """Every subset basic with a positive witness; the union reaches rank Q."""
    Q = q_rows(P)
    c = [Fraction(x) for x in build(P).c]
    union = set()
    for subset, w in zip(dec.subsets, dec.witnesses):
        sub_Q = columns(Q, subset)
        assert rref_rank(sub_Q) == len(subset)
        assert all(x > 0 for x in w)
        for row, rhs in zip(sub_Q, c):
            residual = sum(q * Fraction(x) for q, x in zip(row, w)) - rhs
            assert residual == 0 if exact else abs(residual) <= 1e-9
        union.update(subset)
    assert dec.union_rank == rref_rank(columns(Q, sorted(union))) == rref_rank(Q)


# exact up to endgo 7, float up to 5
CASES = [(kind, n, ctx) for kind in sorted(FAMILIES) for n in (2, 3, 4, 5) for ctx in (EXACT, FLOAT)]
CASES += [("endgo", n, EXACT) for n in (6, 7)]


class TestFamilies:
    """Each kept vertex support strictly raises the union rank, so there are
    at most rank Q leaves, and a basic system is its own one leaf."""

    @pytest.mark.parametrize(
        "kind,n,ctx", CASES, ids=[f"{k}-{n}-{c.backend}" for k, n, c in CASES]
    )
    def test_basic_subsets_reach_full_rank(self, kind, n, ctx):
        dec = find_basic_decomposition(FAMILIES[kind](n, ctx))
        assert dec is not None
        P = FAMILIES[kind](n, EXACT)
        check_decomposition(P, dec, ctx.is_exact)
        Q = q_rows(P)
        union, ranks = set(), [0]
        for subset in dec.subsets:
            union.update(subset)
            ranks.append(rref_rank(columns(Q, sorted(union))))
        assert all(a < b for a, b in zip(ranks, ranks[1:]))
        assert len(dec.subsets) <= rref_rank(Q)

    def test_basic_system_is_its_own_leaf(self):
        P = Polyhedron.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], EXACT)
        dec = find_basic_decomposition(P)
        check_decomposition(P, dec, True)
        assert dec.subsets == ((0, 1, 2),)
        assert dec.witnesses == (decide_positive(build(P)).witness_t,)


class TestRandomHedgehogs:
    def test_verdict_matches_fourier_motzkin(self):
        rng = random.Random(20140722)
        verdicts = {True: 0, False: 0}
        while sum(verdicts.values()) < 150:
            n = rng.randint(2, 4)
            m = rng.randint(n, 9)
            P = random_hedgehog(rng, n, m)
            if P is None:
                continue
            B = build(P)
            orthant = strictly_positive_solvable(q_rows(P), list(B.c))
            dec = find_basic_decomposition(P)
            assert (dec is not None) == orthant
            if orthant:
                check_decomposition(P, dec, True)
            verdicts[orthant] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10

    def test_split_tree_and_vertex_leaves_reach_the_same_rank(self):
        # the hedgehogs of the verdict test above, in the same order
        rng = random.Random(20140722)
        orthant = 0
        while orthant < 40:
            n = rng.randint(2, 4)
            P = random_hedgehog(rng, n, rng.randint(n, 9))
            if P is None:
                continue
            B = build(P)
            outcome = decide_positive(B)
            if not outcome.is_positive:
                continue
            Q = q_rows(P)
            leaves = split_leaves(Q, list(B.c), outcome.witness_t)
            tree = Decomposition(
                tuple(cols for cols, _ in leaves), tuple(w for _, w in leaves), rref_rank(Q)
            )
            dec = find_basic_decomposition(P)
            check_decomposition(P, tree, True)
            check_decomposition(P, dec, True)
            assert tree.union_rank == dec.union_rank
            orthant += 1


class TestFrameIndependence:
    """Decompose answers every Cayley-rotated and row-shuffled copy with the
    input's verdict and union rank, and each copy's decomposition passes
    check_decomposition on that copy."""

    def test_rotated_and_shuffled_copies_decompose_alike(self):
        rng = random.Random(18)
        inputs = [FAMILIES[kind](n) for kind, sizes in
                  (("cube", (2, 3, 4)), ("cross", (2, 3)), ("endgo", (2, 3))) for n in sizes]
        randoms = 0
        while randoms < 24:
            P = random_hedgehog(rng, rng.randint(2, 3), rng.randint(3, 6))
            if P is not None:
                inputs.append(P)
                randoms += 1
        verdicts = set()
        for P in inputs:
            dec = find_basic_decomposition(P)
            verdicts.add(dec is not None)
            for copy in (rotated(P, rational_rotation(rng, P.dim)), shuffled(P, rng)):
                dec_copy = find_basic_decomposition(copy)
                assert (dec_copy is None) == (dec is None)
                if dec is not None:
                    check_decomposition(copy, dec_copy, True)
                    assert dec_copy.union_rank == dec.union_rank
        assert verdicts == {True, False}


class TestSplitSolution:
    """The walls of split_walk, the step of the split tree in tests/oracles.py."""

    def test_walls_of_positive_weightings(self):
        rng = random.Random(7)
        split = 0
        while split < 25:
            n = rng.randint(2, 4)
            P = random_hedgehog(rng, n, rng.randint(n + 1, 9))
            if P is None:
                continue
            B = build(P)
            outcome = decide_positive(B)
            if not outcome.is_positive or rank(B.Q) == P.nfacets:
                continue
            Q = q_rows(P)
            c = list(B.c)
            u, v, I, J = split_walk(Q, c, outcome.witness_t)
            for point, zeros in ((u, I), (v, J)):
                assert all(x >= 0 for x in point)
                assert zeros == {j for j, x in enumerate(point) if x == 0}
                for row, rhs in zip(Q, c):
                    assert sum(q * x for q, x in zip(row, point)) == rhs
            assert I and J and not I & J
            split += 1

    def test_basic_system_has_no_kernel(self):
        P = Polyhedron.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], EXACT)
        with pytest.raises(ValueError, match="independent columns"):
            split_walk(q_rows(P), list(build(P).c), [Fraction(1)] * 3)

    def test_rejects_a_non_solution(self):
        P = generate_cube(2, EXACT)
        with pytest.raises(ValueError, match="not an exact positive solution"):
            split_walk(q_rows(P), list(build(P).c), [Fraction(1)] * 4)
