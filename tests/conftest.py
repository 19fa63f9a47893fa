"""Shared randomized-input helpers; every test seeds its own generator."""

import random
from fractions import Fraction

from orthants import Mat, Polyhedron
from orthants.context import EXACT
from orthants.matrix import solve_columns


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
    return Polyhedron.from_rows(rows, offs, EXACT, minimal=True)


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
    skew-symmetric matrix S: R = (I - S)(I + S)^-1, read off one
    solve_columns pass, since (I - S) R^T = I + S."""
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_frac(rng, -3, 3, 3)
            S[i][j] = v
            S[j][i] = -v
    I = Mat.identity(n, EXACT)
    plus = Mat.from_rows(
        [[I.data[i][j] + S[i][j] for j in range(n)] for i in range(n)], EXACT
    )
    minus = Mat.from_rows(
        [[I.data[i][j] - S[i][j] for j in range(n)] for i in range(n)], EXACT
    )
    # column k of R^T is row k of R
    return Mat.from_rows(solve_columns(minus, [plus.column(k) for k in range(n)]), EXACT)
