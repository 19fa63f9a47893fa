"""Realizations against independent routes: the exact Gram identity, the
input rows kept first, and no added row cutting the polyhedron, checked on
known or brute-force vertices, or by Fourier-Motzkin minima.  The
certificate routes inside realize are checked the same way: the Farkas
witness verdict against brute-force ray enumeration, refusals by the
recession direction their message names, and every added row's multiplier
(Stiemke shifts when bounded, Farkas witness combinations when unbounded)
against Fourier-Motzkin minima.  The shear family at eps = 1 is checked
line by line against generate_max_rank_orthant, and a guard pins realize's
LP count."""

import random
import re
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
from orthants import lp, polyhedra, realize
from orthants.context import EXACT, FLOAT
from orthants.errors import BrokenInvariant, RecessionNotStrictlyPositive, UnboundedPolyhedron
from orthants.frames import build
from orthants.lp import decide_positive
from orthants.matrix import dot, kernel_basis
from orthants.polyhedra import boundedness
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
    return verts, extreme_rays(rows)


def extreme_rays(rows):
    """Extreme rays of A v >= 0 (A of full column rank), one per (n-1)-subset
    of rows with a kernel line, repeats included."""
    n = len(rows[0])
    if n == 1:
        return [[Fraction(s)] for s in (1, -1) if all(a[0] * s >= 0 for a in rows)]
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
    return rays


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


@pytest.mark.parametrize("family, n", [(f, n) for f in sorted(FAMILIES) for n in (2, 3, 4, 5)])
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


def lines(rows, ctx):
    """rows with repeated lines dropped, first occurrence kept, as in _pad_and_embed."""
    seen, out = set(), []
    for r in rows:
        key = realize._direction_key(r, ctx)
        if key not in seen:
            seen.add(key)
            out.append(list(r))
    return out


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_shear_family_at_eps_one_is_the_companion(n, ctx):
    # bounded inputs are padded with the shear family at eps = 1; its lines
    # are those of generate_max_rank_orthant(n), in order and with equal
    # entries, so a bounded realization adds exactly that family's lines
    family = lines(realize._shear_family(n, ctx.one(), ctx), ctx)
    companion = generate_max_rank_orthant(n, ctx)
    assert family == lines([companion.A.row(i) for i in range(companion.nfacets)], ctx)
    assert len(family) == n * n
    assert all(type(x) is type(ctx.one()) and str(x) != "-0.0" for r in family for x in r)


# ---------------------------------------------------------------------------
# the Farkas witness route of realize_unbounded against ray enumeration


def strictly_positive(rays):
    """Whether every enumerated extreme ray of the recession cone is > 0."""
    assert rays, "the input must be unbounded"
    return all(x > 0 for r in rays for x in r)


def random_unbounded(rng, n, kind):
    """A random nondegenerate unbounded system that holds the origin.  Kind
    "boundary" makes its first row a coordinate halfspace x_k >= b, so rays
    on that facet have a zero coordinate; kind "inside" puts the shear rows
    first, so every ray is strictly positive; kind "free" draws every row."""
    first, count = [], (n, n + 3)
    if kind == "boundary":
        count = (n - 1, n + 2)
    if kind == "inside":
        first = [list(r) for r in shear(n).A.data] if n > 1 else [[1]]
        count = (1, 3)
    while True:
        head = first
        if kind == "boundary":
            k = rng.randrange(n)
            head = [[int(i == k) for i in range(n)]]
        rows = head + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(*count))]
        if not all(any(a) for a in rows) or rref_rank(rows) < n:
            continue
        P = Polyhedron.from_rows(rows, [-rng.randint(0, 3) for _ in rows], EXACT)
        # strictly_positive asserts that the enumeration finds rays
        if not boundedness(P).is_positive:
            return P


def cone_inputs():
    rng = random.Random(2031)
    inputs = []
    for n in (2, 3, 4):
        for P in (shear(n), generate_max_rank_orthant(n)):
            inputs += [P] + [rotated(P, rational_rotation(rng, n)) for _ in range(2)]
    inputs += [turned(shear(2)), Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], EXACT)]
    kinds = ("free", "boundary", "inside")
    inputs += [random_unbounded(rng, n, kinds[k % 3]) for n in (1, 2, 3, 4) for k in range(12)]
    return inputs


def as_float(P):
    return Polyhedron.from_rows([list(r) for r in P.A.data], list(P.b), FLOAT)


def witness_verdict(P):
    """True when realize's Farkas route finds every witness, False when it refuses."""
    try:
        realize._farkas_witnesses(P)
    except RecessionNotStrictlyPositive:
        return False
    return True


def test_cone_route_matches_ray_enumeration():
    outcomes, boundary = set(), 0
    for P in cone_inputs():
        rays = extreme_rays([list(r) for r in P.A.data])
        expected = strictly_positive(rays)
        # the closure case: a ray with a zero coordinate and none negative
        boundary += all(x >= 0 for r in rays for x in r) and any(0 in r for r in rays)
        assert witness_verdict(P) == expected
        assert witness_verdict(as_float(P)) == expected
        outcomes.add(expected)
        if not expected:
            with pytest.raises(RecessionNotStrictlyPositive):
                realize_unbounded(P)
            continue
        E = realize_unbounded(P)
        for i in range(P.nfacets, E.target_dim):
            assert all(dot(E.A_ext.row(i), r) >= 0 for r in rays)
        check_realization(P, E)
    assert outcomes == {True, False} and boundary >= 3


@pytest.mark.parametrize("P", [
    Polyhedron.from_rows([[1, 0], [0, 1]], [0, 0], EXACT), turned(shear(2)),
], ids=["quadrant", "turned-shear"])
def test_refusal_names_its_recession_direction(P):
    # the message carries a coordinate i and a vector y; re-check A y >= 0,
    # A y != 0 and y_i <= 0 from the message alone
    with pytest.raises(RecessionNotStrictlyPositive) as info:
        realize_unbounded(P)
    found = re.search(r"y = \(([^)]*)\) has A y >= 0 and y_(\d+) <= 0", str(info.value))
    assert found, str(info.value)
    y = [Fraction(v) for v in found.group(1).split(", ")]
    i = int(found.group(2)) - 1
    Ay = [dot(a, y) for a in P.A.data]
    assert min(Ay) >= 0 and max(Ay) > 0 and y[i] <= 0


# ---------------------------------------------------------------------------
# offsets from multipliers: Stiemke shifts on bounded inputs, Farkas
# witness combinations on unbounded ones


def multiplier_inputs():
    """(P, its vertices or None): cube and cross with textbook vertices,
    seeded random polytopes, and unbounded inputs whose recession cone is
    strictly positive; minima without vertices come from Fourier-Motzkin."""
    rng = random.Random(2033)
    inputs = [(FAMILIES[f](n), polytope_vertices(f, n)) for f in ("cube", "cross")
              for n in (2, 3, 4, 5)]
    inputs += [(random_polytope(rng, 2 + k % 3), None) for k in range(12)]
    for n in (2, 3, 4):
        for P in (shear(n), generate_max_rank_orthant(n)):
            copies = [rotated(P, rational_rotation(rng, n)) for _ in range(3)]
            inputs += [(Q, None) for Q in [P] + [Q for Q in copies if witness_verdict(Q)]]
    inputs += [(random_unbounded(rng, n, "inside"), None) for n in (2, 3, 4) for _ in range(2)]
    return inputs


def spy_multipliers(monkeypatch):
    """Record the multiplier map that each realization hands to _pad_and_embed."""
    maps = []
    pad = realize._pad_and_embed

    def spy(P, aux, multipliers):
        maps.append(multipliers)
        return pad(P, aux, multipliers)

    monkeypatch.setattr(realize, "_pad_and_embed", spy)
    return maps


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_multiplier_offsets(ctx, monkeypatch):
    """Every added row u.x >= beta has lambda >= 0 with A^T lambda = u and
    beta = lambda.b - 1, at least 1 below the minimum of u over P."""
    maps = spy_multipliers(monkeypatch)
    unbounded = 0
    for exact, verts in multiplier_inputs():
        P = exact if ctx is EXACT else as_float(exact)
        rows, offsets = [list(r) for r in exact.A.data], list(exact.b)
        m = P.nfacets
        E = realize_unbounded(P)
        unbounded += not boundedness(P).is_positive
        added = [list(E.A_ext.row(i)) for i in range(m, E.target_dim)]
        lams = maps[-1](added)
        assert len(lams) == len(added) > 0
        for u, lam, beta in zip(added, lams, E.b_ext[m:]):
            residual = [dot(col, lam) - v for col, v in zip(zip(*P.A.data), u)]
            # the added rows are dyadic vectors on either backend
            exact_u = [Fraction(x) for x in u]
            assert all(x.denominator & (x.denominator - 1) == 0 for x in exact_u)
            if verts is None:
                low = functional_minimum(rows, offsets, exact_u)
            else:
                low = min(dot(exact_u, v) for v in verts)
            if ctx is EXACT:
                assert all(v >= 0 for v in lam) and all(r == 0 for r in residual)
                assert beta == dot(lam, P.b) - 1 and beta <= low - 1
            else:
                assert all(v >= -1e-9 for v in lam) and all(abs(r) <= 1e-9 for r in residual)
                assert abs(beta - dot(lam, P.b) + 1) <= 1e-9 and beta <= low - 1 + 1e-9
    assert unbounded >= 12


def tampered(multipliers, P, how):
    """The map with the first multiplier broken: "shift" moves it off
    A^T lambda = u; "negative" moves it along the kernel of A^T until an
    entry is negative, so A^T lambda = u still holds."""
    k = kernel_basis(P.A.transpose())[0]

    def bad(added):
        lams = [list(lam) for lam in multipliers(added)]
        lam = lams[0]
        if how == "shift":
            lam[0] += 1
        else:
            r = next(r for r, v in enumerate(k) if v != 0)
            c = -(lam[r] + 1) / k[r]
            lams[0] = [v + c * w for v, w in zip(lam, k)]
        return lams

    return bad


def test_a_multiplier_that_fails_its_check_is_refused(monkeypatch):
    maps = spy_multipliers(monkeypatch)
    for P in (generate_cube(2), shear(3)):
        E = realize_unbounded(P)
        aux = [E.A_ext.row(i) for i in range(P.nfacets, E.target_dim)]
        good = maps[-1]
        for how in ("shift", "negative"):
            with pytest.raises(BrokenInvariant, match="multiplier"):
                realize._pad_and_embed(P, aux, tampered(good, P, how))


# ---------------------------------------------------------------------------
# the LP budget of realize_unbounded


@pytest.mark.parametrize("family, n", [(f, n) for f in ("shear", "endgo", "cube", "cross")
                                       for n in (2, 3, 4)])
def test_realize_lp_count(family, n, monkeypatch):
    """Boundedness, n Farkas LPs when unbounded, and the padded system:
    n + 2 LPs on unbounded inputs and 2 on bounded ones, and no
    functional_min LP."""
    P = shear(n) if family == "shear" else FAMILIES[family](n)
    calls = []
    simplex = lp.simplex_standard

    def counted(*args):
        calls.append(args)
        return simplex(*args)

    def refused(*args):
        raise AssertionError("realize ran a functional_min LP")

    monkeypatch.setattr(lp, "simplex_standard", counted)
    monkeypatch.setattr(polyhedra, "_functional_min_rows", refused)
    E = realize_unbounded(P)
    assert len(calls) == (2 if family in ("cube", "cross") else n + 2)
    check_realization(P, E)
