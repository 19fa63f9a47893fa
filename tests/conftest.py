"""Shared randomized-input helpers; every test seeds its own generator."""

import random
from fractions import Fraction

import pytest

from orthants import Mat, Polyhedron, decide_positive, lp
from orthants.context import EXACT
from orthants.frames import BangSystem
from orthants.matrix import _primitive_rows, solve_columns


def rand_frac(rng, lo=-9, hi=9, max_den=9, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if not nonzero or f != 0:
            return f


def rand_positive_frac(rng, hi=9, max_den=9):
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den))


def random_needles_2d(rng, m):
    """m distinct directions modulo sign, as raw integer vectors."""
    out = []
    while len(out) < m:
        v = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
        if v == (0, 0):
            continue
        if any(u[0] * v[1] - u[1] * v[0] == 0 for u in out):
            continue
        out.append(v)
    return out


def random_triangle(rng):
    """Vertices of a nondegenerate rational triangle."""
    while True:
        pts = [
            (rand_frac(rng, -8, 8, 4), rand_frac(rng, -8, 8, 4)) for _ in range(3)
        ]
        ux, uy = pts[1][0] - pts[0][0], pts[1][1] - pts[0][1]
        vx, vy = pts[2][0] - pts[0][0], pts[2][1] - pts[0][1]
        if ux * vy - uy * vx != 0:
            return pts


def triangle_polyhedron(pts):
    """Minimal H-representation of a triangle from its vertices."""
    rows, offs = [], []
    for i in range(3):
        a, b = pts[i], pts[(i + 1) % 3]
        opposite = pts[(i + 2) % 3]
        normal = [-(b[1] - a[1]), b[0] - a[0]]
        gap = sum(n * (o - p) for n, o, p in zip(normal, opposite, a))
        if gap < 0:
            normal = [-x for x in normal]
        rows.append(normal)
        offs.append(sum(n * p for n, p in zip(normal, a)))
    return Polyhedron.from_rows(rows, offs, EXACT)


def is_acute_triangle(pts):
    """Strictly acute: positive dot product of edge pairs at every vertex."""
    for i in range(3):
        v, u, w = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
        d = sum((a - c) * (b - c) for a, b, c in zip(u, w, v))
        if d <= 0:
            return False
    return True


def rational_rotation_2d(rng):
    """An exact orthogonal 2x2 matrix from the tangent half-angle family."""
    t = rand_frac(rng, -5, 5, 5)
    d = 1 + t * t
    return Mat.from_rows(
        [[(1 - t * t) / d, -2 * t / d], [2 * t / d, (1 - t * t) / d]], EXACT
    )


def rational_rotation(rng, n):
    """Exact rational orthogonal matrix via the Cayley transform of a random
    skew-symmetric matrix S."""
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_frac(rng, -3, 3, 3)
            S[i][j] = v
            S[j][i] = -v
    return cayley(S)


def cayley(S):
    """R = (I - S)(I + S)^-1 for a skew-symmetric S, read off one
    solve_columns pass, since (I - S) R^T = I + S."""
    n = len(S)
    I = Mat.identity(n, EXACT)
    plus = Mat.from_rows(
        [[I.data[i][j] + S[i][j] for j in range(n)] for i in range(n)], EXACT
    )
    minus = Mat.from_rows(
        [[I.data[i][j] - S[i][j] for j in range(n)] for i in range(n)], EXACT
    )
    # column k of R^T is row k of R
    return Mat.from_rows(solve_columns(minus, [plus.column(k) for k in range(n)]), EXACT)


def rotated(P, R):
    """The congruent copy {R x : x in P}: normals R a, offsets unchanged."""
    rows = [R.matvec(P.A.row(i)) for i in range(P.nfacets)]
    return Polyhedron.from_rows(rows, P.b, EXACT)


def shear(n):
    """The cone 2 x_i - x_j >= 0 over ordered pairs i != j: rays strictly positive."""
    rows = []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append([2 if k == i else -1 if k == j else 0 for k in range(n)])
    return Polyhedron.from_rows(rows, [0] * len(rows), EXACT)


def shuffled(P, rng):
    """P with its rows (and offsets) in a random order."""
    order = list(range(P.nfacets))
    rng.shuffle(order)
    return Polyhedron.from_rows([P.A.row(i) for i in order], [P.b[i] for i in order], EXACT)


def system_from_matrix(Q, c, ctx=EXACT):
    """Q t = c for a raw coefficient matrix, one pair (i, i) per row: Q's
    columns pass through matrix._primitive_rows, Q_j = sigma_j W_j, and
    the system holds W and the scales sigma_j."""
    columns = _primitive_rows(Mat.from_rows(Q, ctx).transpose().data, ctx)
    W = Mat(tuple(zip(*(w for w, _ in columns))), ctx)
    pairs = tuple((i, i) for i in range(len(Q)))
    return BangSystem(pairs, W, [s for _, s in columns], tuple(ctx.coerce(x) for x in c))


def recorded_lps(systems):
    """The standard-form LPs (A_rows, b, c) that decide_positive solves."""
    lps = []
    solve_lp = lp.simplex_standard

    def record(A_rows, b, c, ctx):
        lps.append((A_rows, b, c))
        return solve_lp(A_rows, b, c, ctx)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "simplex_standard", record)
        for system in systems:
            decide_positive(system)
    return lps


def weighting_normal_sets():
    """(name, normals) covered by the integer-form tests of the weighting
    system: gen cube, cross and endgo for n = 1-6 (raw and canonical rows),
    20 Cayley rotations, 200 seeded random rational sets, and rows with
    entries of 10^2200 and 10^-2200, beyond float range once squared."""
    from orthants import generate_cross_polytope, generate_cube, generate_max_rank_orthant
    from orthants.hedgehogs import reduce

    def rows(P):
        return [P.A.row(i) for i in range(P.nfacets)]

    families = [generate_cube, generate_cross_polytope, generate_max_rank_orthant]
    sets = []
    for gen in families:
        for n in range(1, 7):
            P = gen(n)
            sets.append((f"{gen.__name__} {n}", rows(P)))
            sets.append((f"{gen.__name__} {n} canonical", rows(reduce(P)[1])))
    for seed in range(20):
        P = families[seed % 3](3 + seed % 3)
        R = rational_rotation(random.Random(seed), P.dim)
        sets.append((f"rotation {seed}", [R.matvec(a) for a in rows(P)]))
    rng = random.Random(2200)
    for k in range(200):
        n = rng.randint(1, 4)
        m, normals = rng.randint(1, 7), []
        while len(normals) < m:
            v = [rand_frac(rng) for _ in range(n)]
            if any(v):
                normals.append(v)
        sets.append((f"random {k}", normals))
    huge, tiny = Fraction(10**2200), Fraction(1, 10**2200)
    sets.append(("huge", [[huge, 0], [0, 1], [-1, -1]]))
    sets.append(("tiny", [[tiny, 1], [1, 0], [-1, -1]]))
    return sets


def _squared_distances(verts):
    return [[sum((a - b) ** 2 for a, b in zip(u, v)) for v in verts] for u in verts]


def seeded_metrics():
    """(name, d2) squared-distance matrices in Fractions on 2-5 vertices:
    seeded integer vertex sets, sets on a hyperplane (degenerate) and the
    same sets with one vertex moved off it by 1/1000 or 1/10^6 (near
    degenerate), axis simplices d2_ij = a_i^2 + a_j^2 with one entry moved
    or not, and positive symmetric matrices that are no metrics."""
    rng = random.Random(1935)
    out = []
    for k in range(80):
        dim = 1 + k % 4
        verts = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(dim + 1)]
        out.append((f"vertices {k}", _squared_distances(verts)))
        # dim + 1 points on the hyperplane x_0 = c
        flat = [[verts[0][0]] + v[1:] for v in verts]
        out.append((f"flat {k}", _squared_distances(flat)))
        for eps in (Fraction(1, 1000), Fraction(1, 10**6)):
            near = [list(v) for v in flat]
            near[-1][0] += eps
            out.append((f"near {k} {eps}", _squared_distances(near)))
    for k in range(40):
        alphas = [rand_positive_frac(rng) for _ in range(2 + k % 4)]
        d2 = [[0 if i == j else a * a + b * b for j, b in enumerate(alphas)]
              for i, a in enumerate(alphas)]
        if k % 2 and len(alphas) > 2:
            d2[0][1] = d2[1][0] = d2[0][1] + rand_positive_frac(rng)
        out.append((f"axis {k}", d2))
    for k in range(40):
        size = 2 + k % 4
        d2 = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                d2[i][j] = d2[j][i] = Fraction(rng.randint(1, 9))
        out.append((f"symmetric {k}", d2))
    return out


def seeded_grams():
    """(name, G) symmetric Fraction matrices with positive diagonal on 1-5
    generators: B B^T for B with entries in [0, 3] or [-1, 3] (PSD, singular
    when B has fewer columns than rows) and symmetric nonnegative matrices,
    most of them not PSD."""
    rng = random.Random(1936)
    out = []
    for k in range(120):
        m, kind = 1 + k % 5, k % 3
        if kind < 2:
            cols = rng.randint(1, m + 1)
            B = [[0] * cols]
            while not all(map(any, B)):
                B = [[rand_frac(rng, -kind, 3, 2) for _ in range(cols)] for _ in range(m)]
            G = [[sum(a * b for a, b in zip(u, v)) for v in B] for u in B]
        else:
            G = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                G[i][i] = rand_positive_frac(rng, 6, 3)
                for j in range(i + 1, m):
                    G[i][j] = G[j][i] = rand_frac(rng, 0, 5, 3)
        out.append((f"gram {k}", G))
    return out


def seeded_intercepts():
    """(name, intercepts) as scalar strings: four whose simplex has exact
    coordinates, then 2-5 intercepts p/q with 1 <= p, q <= 9, some of them
    perfect squares."""
    rng = random.Random(1937)
    out = [(f"exact {k}", alphas) for k, alphas in enumerate(
        [["3", "4"], ["5/2", "6"], ["3", "4", "7"], ["6/5", "8/5", "9/5"]])]
    for k in range(60):
        alphas = [rand_positive_frac(rng) for _ in range(2 + k % 4)]
        if k % 3 == 0:
            alphas = [a * a for a in alphas]
        out.append((f"intercepts {k}", [str(a) for a in alphas]))
    return out
