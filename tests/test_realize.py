"""Realizations against independent routes: the exact Gram identity, the
input rows kept first, and no added row cutting the polyhedron, checked on
known or brute-force vertices, or by Fourier-Motzkin minima.  The
certificate routes inside realize are checked the same way: the Farkas
witness verdict against brute-force ray enumeration, refusals by the
recession direction their message names, and every added row's multiplier,
formed by linearity from the generators handed to _pad_and_embed, against
Fourier-Motzkin minima and against the per-row route it replaced.  Row
shuffles keep realize's success and target dimension.  The shear family at
eps = 1 is checked line by line against generate_max_rank_orthant, the
closed-form padded weighting by plain Gram arithmetic (a moved weight is
refused), and a guard pins realize's LP count."""

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
from orthants.hedgehogs import _needle
from orthants.matrix import _primitive_rows, _tol_key, dot, kernel_basis, solve_columns
from orthants.polyhedra import boundedness
from conftest import rational_rotation, rotated, shear, shuffled
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
    for r, (v, _) in zip(rows, _primitive_rows(rows, ctx)):
        key = _tol_key(_needle(v, ctx), ctx)
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
    family = lines([[s * x for x in v] for v, s in realize._shear_family(n, ctx.one(), ctx)], ctx)
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


def spy_generators(monkeypatch):
    """Record the eps, generators and kernel vector that each realization
    hands to _pad_and_embed."""
    calls = []
    pad = realize._pad_and_embed

    def spy(P, eps, generators, y=None):
        calls.append((eps, generators, y))
        return pad(P, eps, generators, y)

    monkeypatch.setattr(realize, "_pad_and_embed", spy)
    return calls


def linear_multiplier(u, generators, y):
    """sum_k u_k g_k, shifted by s y with s = max(0, max_i -lambda_i / y_i)
    when a kernel vector y is given."""
    lam = [sum(c * g[i] for c, g in zip(u, generators)) for i in range(len(generators[0]))]
    if y is not None:
        s = max([0] + [-v / w for v, w in zip(lam, y)])
        lam = [v + s * w for v, w in zip(lam, y)]
    return lam


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_multiplier_offsets(ctx, monkeypatch):
    """The generators have A^T g_k = e_k, and on bounded inputs the kernel
    vector has y > 0, A^T y = 0.  Every added row u.x >= beta then has
    lambda >= 0 with A^T lambda = u, formed from them by linearity, and
    beta = lambda.b - 1, at least 1 below the minimum of u over P."""
    calls = spy_generators(monkeypatch)
    unbounded = 0
    exact = ctx is EXACT

    def zero(r):
        return r == 0 if exact else abs(r) <= 1e-9

    for exact_P, verts in multiplier_inputs():
        P = exact_P if exact else as_float(exact_P)
        rows, offsets = [list(r) for r in exact_P.A.data], list(exact_P.b)
        m = P.nfacets
        E = realize_unbounded(P)
        bounded = boundedness(P).is_positive
        unbounded += not bounded
        _, generators, y = calls[-1]
        assert len(generators) == P.dim and (y is not None) == bounded
        for k, g in enumerate(generators):
            assert all(zero(dot(col, g) - (j == k)) for j, col in enumerate(zip(*P.A.data)))
        if y is not None:
            assert all(w > 0 for w in y) and all(zero(dot(col, y)) for col in zip(*P.A.data))
        added = [list(E.A_ext.row(i)) for i in range(m, E.target_dim)]
        assert added
        for u, beta in zip(added, E.b_ext[m:]):
            lam = linear_multiplier(u, generators, y)
            residual = [dot(col, lam) - v for col, v in zip(zip(*P.A.data), u)]
            # the added rows are dyadic vectors on either backend
            exact_u = [Fraction(x) for x in u]
            assert all(x.denominator & (x.denominator - 1) == 0 for x in exact_u)
            if verts is None:
                low = functional_minimum(rows, offsets, exact_u)
            else:
                low = min(dot(exact_u, v) for v in verts)
            assert all(zero(r) for r in residual)
            if exact:
                assert all(v >= 0 for v in lam)
                assert beta == dot(lam, P.b) - 1 and beta <= low - 1
            else:
                assert all(v >= -1e-9 for v in lam)
                assert abs(beta - dot(lam, P.b) + 1) <= 1e-9 and beta <= low - 1 + 1e-9
    assert unbounded >= 12


def test_offsets_match_the_per_row_route():
    """On the exact backend the offsets are, Fraction for Fraction, those of
    a multiplier formed per added row: one solve_columns pass on A^T against
    every added row plus the Stiemke shift when bounded, and sum_k u_k
    lambda_k by dot products over the Farkas witnesses otherwise."""
    kinds = set()
    for P, _ in multiplier_inputs():
        E = realize_unbounded(P)
        m = P.nfacets
        added = [list(E.A_ext.row(i)) for i in range(m, E.target_dim)]
        bounded = boundedness(P)
        kinds.add(bounded.is_positive)
        if bounded.is_positive:
            y, lams = bounded.witness_t, []
            for mu in solve_columns(P.A.transpose(), added):
                s = max([Fraction(0)] + [-v / w for v, w in zip(mu, y)])
                lams.append([v + s * w for v, w in zip(mu, y)])
        else:
            by_row = list(zip(*realize._farkas_witnesses(P)))
            lams = [[dot(u, col) for col in by_row] for u in added]
        expected = [dot(lam, P.b) - 1 for lam in lams]
        assert list(E.b_ext[m:]) == expected
        assert all(type(beta) is Fraction for beta in E.b_ext[m:])
    assert kinds == {True, False}


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_a_multiplier_that_fails_its_check_is_refused(ctx, monkeypatch):
    """Each broken input to _pad_and_embed is refused, naming the multiplier:
    a shifted generator entry (A^T g != e_k), a kernel vector moved off
    A^T y = 0 or moved along it to a zero entry (y > 0 fails), and on an
    unbounded input, where no shift repairs signs, a generator moved along
    the kernel of A^T until an entry is -1, so that A^T g = e_k still holds
    but lambda_u < 0 for u = e_k.  The broken vectors are made exactly and
    handed to the float backend as their floats."""
    calls = spy_generators(monkeypatch)
    exact = ctx is EXACT

    def on_ctx(vec):
        return vec if exact or vec is None else [float(x) for x in vec]

    for exact_P in (generate_cube(2), shear(3)):
        E = realize_unbounded(exact_P)
        _, generators, y = calls[-1]
        P = exact_P if exact else as_float(exact_P)
        if not exact:
            E = realize_unbounded(P)
        eps = calls[-1][0]
        assert realize._pad_and_embed(P, *calls[-1]) == E
        shifted = [list(g) for g in generators]
        shifted[0][0] += 1
        broken = [(shifted, y)]
        At = exact_P.A.transpose()
        if y is not None:
            moved = list(y)
            moved[0] += 1
            # still in the kernel of A^T, but with y_r = 0 the shift for a
            # row with lambda_r < 0 would divide by zero
            k = kernel_basis(At)[-1]
            r = next(r for r, v in enumerate(k) if v != 0)
            zeroed = [w - y[r] / k[r] * v for w, v in zip(y, k)]
            assert zeroed[r] == 0 and not any(At.matvec(zeroed))
            broken += [(generators, moved), (generators, zeroed)]
        else:
            k = kernel_basis(At)[0]
            r = next(r for r, v in enumerate(k) if v != 0)
            c = -(generators[0][r] + 1) / k[r]
            along = [[v + c * w for v, w in zip(generators[0], k)]] + list(generators[1:])
            assert along[0][r] == -1 and list(At.matvec(along[0])) == [1, 0, 0]
            broken.append((along, y))
        for gens, kernel in broken:
            with pytest.raises(BrokenInvariant, match="multiplier"):
                realize._pad_and_embed(P, eps, [on_ctx(g) for g in gens], on_ctx(kernel))


# ---------------------------------------------------------------------------
# row order: item 2 covers rotations, which realize_unbounded may refuse


def realized(P):
    """realize_unbounded's target dimension on P, or None when it refuses."""
    try:
        return realize_unbounded(P).target_dim
    except RecessionNotStrictlyPositive:
        return None


def test_row_shuffles_keep_success_and_target_dim():
    rng = random.Random(2037)
    inputs = [FAMILIES[f](n) for f in sorted(FAMILIES) for n in (2, 3, 4)]
    inputs += [shear(n) for n in (2, 3, 4)] + [turned(shear(2))]
    inputs += [random_polytope(rng, 2 + k % 3) for k in range(6)]
    kinds = ("free", "boundary", "inside")
    inputs += [random_unbounded(rng, n, kinds[k % 3]) for n in (2, 3) for k in range(6)]
    outcomes = set()
    for P in inputs:
        expected = realized(P)
        outcomes.add(expected is not None)
        for _ in range(2):
            assert realized(shuffled(P, rng)) == expected
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the closed-form weighting of the padded system, by plain Gram arithmetic


def weighting_inputs():
    """The gen families for n = 1..5 with a Cayley rotation of each, shear
    cones (padded at eps < 1), and 1-D polytopes and rays."""
    rng = random.Random(2039)
    inputs = []
    for family in sorted(FAMILIES):
        for n in range(1, 6):
            P = FAMILIES[family](n)
            inputs += [P, rotated(P, rational_rotation(rng, n))]
    inputs += [shear(n) for n in (2, 3, 4)]
    inputs += [Polyhedron.from_rows(rows, offsets, EXACT) for rows, offsets in
               (([[2], [-3]], [1, -5]), ([[1]], [0]), ([[3], [1]], [-1, 2]))]
    return inputs


def resolves_identity(E, ctx):
    """t > 0 and sum_r t_r a_r a_r^T = I, summed entry by entry here."""
    n, rows = E.source_dim, E.A_ext.data
    for p in range(n):
        for q in range(p, n):
            acc = sum(t * a[p] * a[q] for t, a in zip(E.t, rows))
            if not (acc == (p == q) if ctx is EXACT else abs(acc - (p == q)) <= 1e-9):
                return False
    return len(E.t) == len(rows) and all(t > 0 for t in E.t)


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_padded_weighting_resolves_the_identity(ctx, monkeypatch):
    """Every realization's t is positive and resolves I on the padded rows,
    eps < 1 included, and cube's +-e_i rows carry the unit rows' lines, so
    their weight folds onto P's rows there."""
    calls = spy_generators(monkeypatch)
    realized, sheared, folded = 0, 0, 0
    for exact_P in weighting_inputs():
        P = exact_P if ctx is EXACT else as_float(exact_P)
        try:
            E = realize_unbounded(P)
        except RecessionNotStrictlyPositive:
            continue
        realized += 1
        sheared += calls[-1][0] < 1
        folded += E.target_dim < P.nfacets + P.dim * P.dim
        assert resolves_identity(E, ctx), exact_P
    assert realized >= 30 and sheared >= 6 and folded >= 5


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("P", [generate_cube(3), shear(3)], ids=["cube", "shear"])
def test_a_moved_weight_is_refused(P, ctx, monkeypatch):
    """Half of the last padded row's weight moved onto the first row keeps
    t > 0 but breaks the Gram identity, and the exact re-check refuses it."""
    P = P if ctx is EXACT else as_float(P)
    weighting = realize._padded_weighting

    def moved(*args):
        t = list(weighting(*args))
        t[0], t[-1] = t[0] + t[-1] / 2, t[-1] / 2
        return tuple(t)

    realize_unbounded(P)
    monkeypatch.setattr(realize, "_padded_weighting", moved)
    with pytest.raises(BrokenInvariant, match="positive weighting"):
        realize_unbounded(P)


def test_a_float_weighting_out_of_range_is_refused():
    # the square of side 1e-200 in rows of size 1e200: M's entries overflow
    P = Polyhedron.from_rows([[1e200, 0], [0, 1e200], [-1e200, 0], [0, -1e200]],
                             [0, 0, -1, -1], FLOAT)
    with pytest.raises(BrokenInvariant, match="positive weighting"):
        realize_unbounded(P)


# ---------------------------------------------------------------------------
# the LP budget of realize_unbounded


@pytest.mark.parametrize("family, n", [(f, n) for f in ("shear", "endgo", "cube", "cross")
                                       for n in (2, 3, 4)] + [("cube", 16), ("endgo", 8)])
def test_realize_lp_count(family, n, monkeypatch):
    """Boundedness, then n Farkas LPs when unbounded; the padded weighting
    is built in closed form and no functional_min LP runs: 1 LP on bounded
    inputs and n + 1 on unbounded ones, at scale too (cube 16 is bounded,
    endgo 8 is not)."""
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
    assert len(calls) == (1 if family in ("cube", "cross") else n + 1)
    if n <= 4:
        check_realization(P, E)
    else:  # Fourier-Motzkin minima are out of reach here; the Gram identity is not
        assert verify_embedding(E)
