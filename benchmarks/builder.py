"""Seeded benchmark inputs, built with plain Fraction arithmetic.

Nothing here calls the library, so the inputs cannot shift when the
library's own generators change.  ``family_text`` reproduces
``orthants gen`` byte for byte, and the benchmark checks that once per run.

Every workload is a fixed list of inputs.  The *pool* (a fixed seed)
pins the random base configurations and the rotation or signed
permutation of each congruent copy.  The *run seed* draws the
presentation: the row order, a positive scale factor per row, a
translation, and (for decompose) the redundant rows and where they go.
None of this changes a verdict, so each workload's verdict list is the
same for every seed and is compared with a committed reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt

POOL_SEED = 20140722  # pins the random base configurations of every workload


@dataclass(frozen=True)
class Instance:
    """One benchmark input: a polyhedron A x >= b and what is known about it."""

    name: str
    rows: tuple  # tuple of tuples of Fraction
    offsets: tuple  # tuple of Fraction
    planted: bool = False  # orthant by construction (a family or a congruent copy)
    minimal: tuple = ()  # base system that redundancy removal must give back

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def text(self) -> str:
        return polyhedron_text(self.rows, self.offsets)


def polyhedron_text(rows, offsets) -> str:
    """The library's exact JSON polyhedron format."""
    doc = {
        "dim": len(rows[0]),
        "backend": "exact",
        "rows": [
            {"a": [str(x) for x in a], "b": str(b)} for a, b in zip(rows, offsets)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# named families (same row order as the library generators)


def cube(n):
    rows = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    rows += [tuple(Fraction(-int(j == i)) for j in range(n)) for i in range(n)]
    return rows, [Fraction(0)] * n + [Fraction(-1)] * n


def cross(n):
    rows = [tuple(Fraction(s) for s in signs) for signs in product((1, -1), repeat=n)]
    return rows, [Fraction(-1)] * len(rows)


def endgo(n):
    rows, offs = [], []
    for i, j in combinations(range(n), 2):
        for si, sj in ((1, -1), (-1, 1)):
            row = [Fraction(0)] * n
            row[i], row[j] = Fraction(si), Fraction(sj)
            rows.append(tuple(row))
            offs.append(Fraction(-1))
    for i, j in combinations(range(n), 2):
        row = [Fraction(0)] * n
        row[i] = row[j] = Fraction(1)
        rows.append(tuple(row))
        offs.append(Fraction(-1))
    for i in range(n):
        rows.append(tuple(Fraction(int(j == i)) for j in range(n)))
        offs.append(Fraction(-2, 3))
    return rows, offs


FAMILIES = {"cube": cube, "cross": cross, "endgo": endgo}


def family_text(kind: str, n: int) -> str:
    return polyhedron_text(*FAMILIES[kind](n))


# ---------------------------------------------------------------------------
# exact helpers


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction."""
    a = [list(r) for r in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][col] / a[r][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def solve_square(M, rhs):
    """The unique solution of M x = rhs, or None when M is singular."""
    n = len(M)
    a = [list(row) + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def cayley_rotation(rng, n):
    """(I - S)(I + S)^-1 for a random skew S: a rational rotation matrix."""
    S = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        S[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        S[j][i] = -S[i][j]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - S[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + S[i][j] for j in range(n)] for i in range(n)]
    inv_cols = [solve_square(plus, eye[j]) for j in range(n)]  # column j of (I + S)^-1
    return [[dot(minus[i], inv_cols[j]) for j in range(n)] for i in range(n)]


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        [Fraction(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)]
        for i in range(n)
    ]


def coordinate_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]


def _integer_scale(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return den


def congruent(pool, rows, offsets, motion):
    """A congruent copy of {A x >= b}: rows a become R a for the orthogonal
    matrix ``motion``, each scaled to clear its denominators.  The rows are
    shuffled with ``pool`` only to keep its stream, and with it every later
    base configuration and motion, fixed; ``vary`` draws the order the
    program sees."""
    n = len(rows[0])
    out = []
    for a, b in zip(rows, offsets):
        ra = [dot(motion[i], a) for i in range(n)]
        s = _integer_scale(ra)
        out.append((tuple(x * s for x in ra), b * s))
    pool.shuffle(out)
    return tuple(a for a, _ in out), tuple(b for _, b in out)


def vary(rng, rows, offsets):
    """The seeded presentation: the rows in a random order, each scaled by a
    positive integer, and the set translated by a small integer vector."""
    n = len(rows[0])
    order = list(range(len(rows)))
    rng.shuffle(order)
    x0 = [Fraction(rng.randint(-1, 1)) for _ in range(n)]
    out_rows, out_offs = [], []
    for k in order:
        s = rng.randint(1, 2)
        out_rows.append(tuple(x * s for x in rows[k]))
        out_offs.append((offsets[k] + dot(rows[k], x0)) * s)
    return tuple(out_rows), tuple(out_offs)


def _nonzero_row(rng, n, lo=-3, hi=3):
    while True:
        row = tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))
        if any(row):
            return row


def _distinct_directions(rows) -> bool:
    for u, v in combinations(rows, 2):
        if rank([u, v]) < 2:
            return False
    return True


def random_normals(rng, n, m):
    """m pairwise non-parallel small-integer normals of rank n; origin interior."""
    while True:
        rows = [_nonzero_row(rng, n) for _ in range(m)]
        if rank(rows) == n and _distinct_directions(rows):
            return rows, [Fraction(-rng.randint(1, 3)) for _ in range(m)]


def random_bounded(rng, n, m):
    """A random polytope: n independent normals, minus their sum, and extras.

    Normals that positively span R^n make the set bounded; negative
    offsets keep the origin strictly inside.
    """
    while True:
        basis = [_nonzero_row(rng, n) for _ in range(n)]
        if rank(basis) < n:
            continue
        closing = tuple(-sum(col) for col in zip(*basis))
        if not any(closing):
            continue
        rows = basis + [closing] + [_nonzero_row(rng, n) for _ in range(m - n - 1)]
        if _distinct_directions(rows):
            return rows, [Fraction(-rng.randint(1, 4)) for _ in range(m)]


def shear_cone(rng, n, *_):
    """Rows 2 x_i - x_j >= b_ij (i != j): unbounded, with recession rays
    strictly inside the positive orthant."""
    rows, offs = [], []
    for i, j in permutations(range(n), 2):
        row = [Fraction(0)] * n
        row[i], row[j] = Fraction(2), Fraction(-1)
        rows.append(tuple(row))
        offs.append(Fraction(-rng.randint(1, 4)))
    return rows, offs


def _sqrt_floor(q: Fraction, digits=6) -> Fraction:
    scale = 10 ** digits
    return Fraction(isqrt(q.numerator * scale * scale // q.denominator), scale)


def every_row_is_a_facet(rows, offsets) -> bool:
    """True when each row i has a point tight on it and strictly inside
    every other row (its foot point b_i a_i / |a_i|^2), so that dropping
    any row would enlarge the set."""
    for i, (a, b) in enumerate(zip(rows, offsets)):
        p = [x * b / dot(a, a) for x in a]
        if any(dot(c, p) <= d for j, (c, d) in enumerate(zip(rows, offsets)) if j != i):
            return False
    return True


def random_minimal(rng, n, m):
    """Random normals with offsets -|a_i| (rounded): every row is a facet."""
    while True:
        rows, _ = random_normals(rng, n, m)
        offs = [-_sqrt_floor(dot(a, a)) for a in rows]
        if every_row_is_a_facet(rows, offs):
            return rows, offs


def pad_redundant(rng, rows, offsets, extra):
    """Insert scaled duplicates and loosened copies of random rows, each
    somewhere after the row it copies, so that the first row of every
    direction, and with it the order redundancy removal returns, is kept."""
    out = [(a, b) for a, b in zip(rows, offsets)]
    for k in range(extra):
        i = rng.randrange(len(rows))
        s = Fraction(rng.randint(2, 3))
        slack = Fraction(1, rng.randint(1, 2)) if k % 2 else Fraction(0)
        after = out.index((rows[i], offsets[i]))
        out.insert(rng.randint(after + 1, len(out)),
                   (tuple(x * s for x in rows[i]), (offsets[i] - slack) * s))
    return tuple(a for a, _ in out), tuple(b for _, b in out)


# ---------------------------------------------------------------------------
# workloads


MOTIONS = {
    "cayley": cayley_rotation,
    "perm": signed_permutation,
    "coord": coordinate_permutation,
}


def _family_copies(pool, rng, specs):
    """Planted orthant inputs: a named family as generated, or a congruent copy.

    Unbounded families (endgo) only get coordinate permutations, which keep
    their recession rays strictly positive as realize_unbounded requires.
    """
    out = []
    for kind, n, motion in specs:
        rows, offs = FAMILIES[kind](n)
        name = f"{kind}{n}"
        if motion:
            rows, offs = vary(rng, *congruent(pool, rows, offs, MOTIONS[motion](pool, n)))
            name += f"-{motion}"
        out.append(Instance(name, tuple(rows), tuple(offs), planted=True))
    return out


def _pooled(pool, rng, make, motion):
    """Random base configurations from the pool, each moved and presented."""
    out = []
    for name, n, args in make:
        kind = name.split("-")[0]
        rows, offs = RANDOM_KINDS[kind](pool, n, *args)
        rows, offs = vary(rng, *congruent(pool, rows, offs, MOTIONS[motion](pool, n)))
        out.append(Instance(name, rows, offs))
    return out


RANDOM_KINDS = {
    "normals": random_normals,
    "polytope": random_bounded,
    "shear": shear_cone,
    "minimal": random_minimal,
}


def decide_inputs(seed: int):
    """98 inputs for is-orthant, rank and classify2d (n = 2..6).

    Why each family is here: the plain families are Positive at known sizes
    and tie the builder to ``orthants gen``; their Cayley-rotated copies are
    Positive on non-integral data, so reduce and phase 2 see larger
    numbers; the random small-integer normals are refuted, NotPositive
    (phase 2) or Inconsistent (phase-1 infeasible), so a change that speeds
    one verdict path at the other's cost shows.
    """
    rng = random.Random(seed)
    pool = random.Random(POOL_SEED)
    specs = [(k, n, None) for k in ("cube", "cross", "endgo") for n in range(2, 7)]
    specs += [(k, n, "cayley") for k in ("cube", "cross", "endgo") for n in range(2, 6)]
    specs += [("cube", 6, "cayley")]
    out = _family_copies(pool, rng, specs)
    make = []
    for n, ms in ((2, (3, 4, 5, 6)), (3, (4, 5, 6, 7, 8)), (4, (5, 6, 7, 9, 10)),
                  (5, (6, 8, 10, 12)), (6, (7, 9, 12))):
        for m in ms:
            for k in range(3):
                make.append((f"normals-{n}x{m}-{k}", n, (m,)))
    # A fourth copy of small shapes balances the third copy of the large
    # ones, so that the median refuted input sits among inputs of similar cost.
    make += [(f"normals-{n}x{m}-3", n, (m,)) for n, m in ((2, 5), (2, 6), (3, 4), (3, 5),
                                                         (3, 6), (3, 7), (3, 8))]
    out += _pooled(pool, rng, make, "perm")
    return out


def realize_inputs(seed: int):
    """60 inputs for realize (all) and embed (the orthant ones).

    Why each family is here: bounded families and their congruent copies
    (n <= 4, cube up to 5) take realize_polytope, and embed enumerates their
    vertices (cross 4 is the vertex-heavy case); endgo and its coordinate
    permutations are unbounded with strictly positive recession rays, so
    they take realize_unbounded and ray enumeration (endgo 4 is the
    ray-heavy case); random polytopes (n = 2..4) and shear cones
    2 x_i - x_j >= b_ij (n = 2..4) are mostly not orthant, so realize must
    pad them, and they fill the refuted class.
    """
    rng = random.Random(seed)
    pool = random.Random(POOL_SEED + 1)
    specs = [("cube", n, None) for n in (2, 3, 4, 5)]
    specs += [(k, n, None) for k in ("cross", "endgo") for n in (2, 3, 4)]
    specs += [(k, n, "cayley") for k in ("cube", "cross") for n in (2, 3)]
    specs += [("cube", 4, "cayley")]
    specs += [(k, 3, m) for k in ("cube", "cross") for m in ("perm", "coord")]
    specs += [("endgo", n, "coord") for n in (2, 3)]
    out = _family_copies(pool, rng, specs)
    shapes = ((2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 4, 4), (3, 5, 4), (3, 6, 4), (4, 5, 2),
              (4, 6, 2))  # (n, m, copies)
    make = [(f"polytope-{n}x{m}-{k}", n, (m,)) for n, m, copies in shapes for k in range(copies)]
    shears = [(f"shear-{n}-{k}", n, ()) for n in (2, 3, 4) for k in range(2 if n < 4 else 1)]
    out += _pooled(pool, rng, make, "perm") + _pooled(pool, rng, shears, "coord")
    # More copies at n = 4, 5 and more small polytopes, so that the median
    # input of each class and overall sits among inputs of similar cost
    # rather than in a gap between two groups.
    more = [(k, n, m) for k, n in (("cube", 4), ("cube", 5)) for m in ("perm", "coord")]
    out += _family_copies(pool, rng, more)
    out += _pooled(pool, rng, [(f"polytope-3x4-{k}", 3, (4,)) for k in range(4, 10)], "perm")
    # Two more 4 x 6 polytopes, so that the tail percentile also falls
    # among inputs of similar cost.
    return out + _pooled(pool, rng, [(f"polytope-4x6-{k}", 4, (6,)) for k in (2, 3)], "perm")


def decompose_inputs(seed: int):
    """44 padded systems for remove_redundant, then decompose on the result.

    Why each family is here: every base system is minimal (families and
    signed permutations of them, m <= 9, are Orthant and end the subset
    search early; random systems checked by every_row_is_a_facet are mostly
    NotOrthant and run it to exhaustion, n = 4 with m = 8, 9 setting the
    tail).  Three scaled duplicates and loosened copies per base
    give remove_redundant rows to merge and one LP per kept row.
    """
    rng = random.Random(seed)
    pool = random.Random(POOL_SEED + 2)
    specs = [("cube", n, None) for n in (2, 3, 4)]
    specs += [("cross", n, None) for n in (2, 3)] + [("endgo", n, None) for n in (2, 3)]
    specs += [(k, n, "perm") for k in ("cube", "cross", "endgo") for n in (2, 3)]
    base = _family_copies(pool, rng, specs)
    shapes = ((2, 4, 3), (2, 5, 3), (2, 6, 3), (3, 5, 4), (3, 6, 4), (3, 7, 2), (3, 8, 2),
              (4, 6, 2), (4, 7, 2), (4, 8, 1), (4, 9, 1))  # (n, m, copies)
    make = [(f"minimal-{n}x{m}-{k}", n, (m,)) for n, m, copies in shapes for k in range(copies)]
    base += _pooled(pool, rng, make, "perm")
    # Small coordinate-permuted families, so that the median Positive input
    # sits among inputs of similar cost.
    base += _family_copies(pool, rng, [("cube", 2, "coord"), ("cross", 2, "coord"),
                                       ("cube", 3, "coord"), ("endgo", 2, "coord")])
    out = []
    for inst in base:
        rows, offs = pad_redundant(rng, inst.rows, inst.offsets, 3)
        out.append(Instance(inst.name, rows, offs, planted=inst.planted,
                            minimal=tuple(zip(inst.rows, inst.offsets))))
    return out


WORKLOADS = {
    "decide": decide_inputs,
    "realize": realize_inputs,
    "decompose": decompose_inputs,
}
