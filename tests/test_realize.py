"""Realizations against independent routes: the exact Gram identity, the
input rows kept first, and no added row cutting the polyhedron, checked on
known or brute-force vertices, or by Fourier-Motzkin minima."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from orthants import (
    Polyhedron,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    orthant_embedding,
    realize_polytope,
    realize_unbounded,
    verify_embedding,
)
from orthants.context import EXACT
from orthants.errors import RecessionNotStrictlyPositive, UnboundedPolyhedron
from orthants.frames import build
from orthants.lp import decide_positive
from orthants.matrix import dot
from conftest import rational_rotation
from oracles import functional_minimum, rref_rank, solve_any

FAMILIES = {
    "cube": generate_cube,
    "cross": generate_cross_polytope,
    "endgo": generate_max_rank_orthant,
}


def vertices_and_rays(rows, offsets):
    """Vertices and extreme rays of A x >= b by brute force over row subsets."""
    n = len(rows[0])
    verts = []
    for sub in combinations(range(len(rows)), n):
        M = [rows[i] for i in sub]
        if rref_rank(M) == n:
            x = solve_any(M, [offsets[i] for i in sub])
            if all(dot(a, x) >= b for a, b in zip(rows, offsets)):
                verts.append(x)
    rays = []
    for sub in combinations(range(len(rows)), n - 1):
        M = [rows[i] for i in sub]
        if rref_rank(M) != n - 1:
            continue
        # the kernel line of M: fix one free coordinate to 1
        for j in range(n):
            unit = [Fraction(int(k == j)) for k in range(n)]
            d = solve_any(M + [unit], [0] * (n - 1) + [1])
            if d is not None:
                break
        for s in (1, -1):
            r = [s * x for x in d]
            if all(dot(a, r) >= 0 for a in rows):
                rays.append(r)
    return verts, rays


def check_realization(P, E, verts=None):
    """E passes verify_embedding, starts with P's rows, and no added row cuts
    or touches P: on the given vertices of a polytope, or else by the
    Fourier-Motzkin minimum of each added functional over P."""
    rows, offsets = [list(r) for r in P.A.data], list(P.b)
    m = P.nfacets
    assert E.source_dim == P.dim and not E.affine
    assert [list(E.A_ext.row(i)) for i in range(m)] == rows
    assert list(E.b_ext[:m]) == offsets
    assert all(t > 0 for t in E.t)
    assert verify_embedding(E, verts or ())
    for i in range(m, E.target_dim):
        a, beta = E.A_ext.row(i), E.b_ext[i]
        if verts is None:
            low = functional_minimum(rows, offsets, a)
            assert low not in ("empty", "unbounded") and low > beta
        else:
            assert min(dot(a, v) for v in verts) > beta


def polytope_vertices(family, n):
    """The textbook vertices: {0, 1}^n for the cube, +-e_i for the cross-polytope."""
    if family == "cube":
        return [list(v) for v in product((0, 1), repeat=n)]
    return [[s * int(k == i) for k in range(n)] for i in range(n) for s in (1, -1)]


def rotated(P, R):
    """The congruent copy {R x : x in P}: normals R a, offsets unchanged."""
    rows = [R.matvec(P.A.row(i)) for i in range(P.nfacets)]
    return Polyhedron.from_rows(rows, P.b, EXACT)


def random_polytope(rng, n):
    """Random small-integer normals around the origin, bounded by rejection."""
    while True:
        m = rng.randint(n + 1, n + 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if not all(any(a) for a in rows) or rref_rank(rows) < n:
            continue
        offsets = [-rng.randint(1, 3) for _ in range(m)]
        if not vertices_and_rays(rows, offsets)[1]:
            return Polyhedron.from_rows(rows, offsets, EXACT)


def shear(n):
    """The cone 2 x_i - x_j >= 0 over ordered pairs i != j: rays strictly positive."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append([2 if k == i else -1 if k == j else 0 for k in range(n)])
    return Polyhedron.from_rows(rows, [0] * len(rows), EXACT)


TURN = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def turned(P):
    """P with its plane rotated by the angle whose cosine is 3/5."""
    return Polyhedron.from_rows(
        [[dot(r, P.A.row(i)) for r in TURN] for i in range(P.nfacets)], P.b, EXACT
    )


# endgo 5 is left out: its recession rays alone take about 20 s to enumerate
@pytest.mark.parametrize(
    "family, n", [(f, n) for f in sorted(FAMILIES) for n in (2, 3, 4, 5) if (f, n) != ("endgo", 5)]
)
def test_families_realize(family, n):
    # realize_unbounded is the CLI's realizer and takes bounded inputs too
    P = FAMILIES[family](n)
    E = realize_unbounded(P)
    assert E.target_dim > P.nfacets
    if family == "endgo":
        check_realization(P, E)
    else:
        verts = polytope_vertices(family, n)
        assert all(dot(a, v) >= b for a, b in zip(P.A.data, P.b) for v in verts)
        check_realization(P, E, verts)
        assert realize_polytope(P) == E


def test_random_polytopes():
    rng = random.Random(2028)
    for k in range(12):
        P = random_polytope(rng, 2 + k % 3)
        E = realize_polytope(P)
        check_realization(P, E, vertices_and_rays([list(r) for r in P.A.data], list(P.b))[0])
        assert E.target_dim > P.nfacets
        assert realize_unbounded(P) == E


def test_own_orthant_exactly_when_the_own_system_is_positive():
    rng = random.Random(2029)
    inputs = []
    for family, gen in sorted(FAMILIES.items()):
        for n in (2, 3, 4):
            P = gen(n)
            inputs += [P, rotated(P, rational_rotation(rng, n))]
    inputs += [random_polytope(rng, n) for n in (2, 3, 3, 4)]
    inputs += [shear(2), shear(3)]
    verdicts = set()
    for P in inputs:
        positive = decide_positive(build(P)).is_positive
        verdicts.add(positive)
        E = orthant_embedding(P)
        assert (E is not None) == positive
        if E is not None:
            assert E.target_dim == P.nfacets
            check_realization(P, E)
    assert verdicts == {True, False}


def test_quadrant_is_orthant_but_not_realized():
    # variant 1 takes the quadrant as it is; the padding of realize_unbounded
    # refuses it, since its rays (1, 0) and (0, 1) touch the orthant boundary
    quadrant = Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], EXACT)
    E = orthant_embedding(quadrant)
    assert E.target_dim == 2 and E.t == (1, 1)
    check_realization(quadrant, E)
    with pytest.raises(RecessionNotStrictlyPositive):
        realize_unbounded(quadrant)


def test_bounded_only_realizer_refuses_a_padded_unbounded_input():
    with pytest.raises(UnboundedPolyhedron):
        realize_polytope(shear(2))


def test_turned_shear_is_still_refused():
    # the cone 2x - y >= 0, 2y - x >= 0 has rays (1, 2) and (2, 1); turned by
    # (3/5, 4/5) the ray (1, 2) becomes (-1, 2), and the coordinate test of
    # realize_unbounded refuses what is the same cone up to isometry
    P = shear(2)
    check_realization(P, realize_unbounded(P))
    with pytest.raises(RecessionNotStrictlyPositive):
        realize_unbounded(turned(P))
