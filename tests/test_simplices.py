"""The simplex metric test against the weighting-system LP.

``classify_simplex`` decides from squared edge lengths alone (Cayley-Menger
signs, orthocentricity, acuteness).  The second route builds the simplex
from its vertices and asks ``decide_positive`` whether its weighting system
has a strictly positive solution.  An n-simplex is an orthant section
exactly when both say so.
"""

import random
from fractions import Fraction
from math import lcm

from orthants import (
    SimplexClass,
    SimplexMetric,
    build,
    classify_simplex,
    decide_positive,
    embed_simplex,
    is_realizable,
    simplex_from_vertices,
)
from orthants.context import EXACT
from oracles import rref_rank, squared_distance


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _metric(verts):
    return SimplexMetric.from_squared_distances(
        [[squared_distance(u, v) for v in verts] for u in verts], EXACT
    )


def _affinely_independent(verts):
    return rref_rank([_sub(v, verts[0]) for v in verts[1:]]) == len(verts) - 1


def _random_vertices(rng, dim):
    return [[Fraction(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(dim + 1)]


def _orthocentric_tetrahedron(rng):
    """Integer vertices of a tetrahedron whose apex lies over the orthocenter
    of its base, so that it is orthocentric; None for a degenerate base."""
    a, b, c = _random_vertices(rng, 3)[:3]
    u, w = _sub(b, a), _sub(c, a)
    normal = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
    # H = a + s u + t w with (H - a).(c - b) = 0 and (H - b).(c - a) = 0
    m11, m12, m21, m22 = _dot(u, _sub(c, b)), _dot(w, _sub(c, b)), _dot(u, w), _dot(w, w)
    d = m11 * m22 - m12 * m21
    if d == 0 or not any(normal):
        return None
    s, t = -m12 * _dot(u, w) / d, m11 * _dot(u, w) / d
    h = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    apex = [a[k] + s * u[k] + t * w[k] + h * normal[k] for k in range(3)]
    verts = [a, b, c, apex]
    scale = lcm(*(x.denominator for v in verts for x in v))
    return [[x * scale for x in v] for v in verts]


def _both_routes(verts):
    metric = classify_simplex(_metric(verts))
    lp = decide_positive(build(simplex_from_vertices(verts, EXACT))).is_positive
    return metric, lp


class TestClassifyAgainstLp:
    def test_triangles(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(150):
            verts = _random_vertices(rng, 2)
            if not _affinely_independent(verts):
                continue
            metric, lp = _both_routes(verts)
            assert (metric == SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC) == lp
            seen.add(metric)
        assert seen == {
            SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC,
            SimplexClass.ORTHOCENTRIC_NOT_ACUTE,
        }

    def test_tetrahedra(self):
        rng = random.Random(32)
        seen = set()
        for k in range(300):
            if k % 2:
                verts = _orthocentric_tetrahedron(rng)
            else:
                verts = _random_vertices(rng, 3)
            if verts is None or not _affinely_independent(verts):
                continue
            metric, lp = _both_routes(verts)
            assert (metric == SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC) == lp
            if k % 2:
                assert metric != SimplexClass.NOT_ORTHOCENTRIC
            seen.add(metric)
        assert len(seen) == 3


class TestRealizable:
    def test_nondegenerate_vertex_sets(self):
        rng = random.Random(33)
        for dim in (2, 3):
            for _ in range(40):
                verts = _random_vertices(rng, dim)
                if _affinely_independent(verts):
                    assert is_realizable(_metric(verts))

    def test_collinear_and_coplanar_vertex_sets(self):
        rng = random.Random(34)
        for dim in (2, 3):
            for _ in range(40):
                # dim + 1 distinct points on a line (dim 2) or in a plane (dim 3)
                base = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
                dirs = [[0, 0, 0]]
                while not any(map(any, dirs)):
                    dirs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(dim - 1)]
                verts = []
                while len(verts) < dim + 1:
                    coef = [rng.randint(-4, 4) for _ in dirs]
                    p = [base[j] + sum(c * d[j] for c, d in zip(coef, dirs)) for j in range(3)]
                    if p not in verts:
                        verts.append(p)
                assert not is_realizable(_metric(verts))


def test_a_segment_embeds_by_halving_its_squared_length():
    # no third vertex fixes the split x_0 + x_1 = d2_01; the halves are one
    # positive split, and the segment from sqrt(x_0) e_0 to sqrt(x_1) e_1 has
    # squared length x_0 + x_1
    S = SimplexMetric.from_squared_distances([[0, 3], [3, 0]], EXACT)
    assert classify_simplex(S) == SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC
    assert embed_simplex(S) == (Fraction(3, 2), Fraction(3, 2))
