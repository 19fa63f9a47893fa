"""Double nonnegativity against Sylvester's principal-minor test.

``is_doubly_nonnegative`` decides semidefiniteness by symmetric
elimination; the oracle expands every principal minor by permutations.
"""

import collections
import random

from orthants import GramMatrix, is_doubly_nonnegative
from orthants.context import EXACT
from oracles import doubly_nonnegative, positive_semidefinite


def gram(B):
    return [[sum(a * b for a, b in zip(u, v)) for v in B] for u in B]


def seeded_gram(rng):
    """A symmetric integer matrix with positive diagonal: B B^T for B with
    entries in [0, 3] or [-1, 3] (PSD, singular when B has fewer columns
    than rows), or a symmetric nonnegative matrix."""
    m = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind < 2:
        cols = rng.randint(1, m + 1)
        while True:
            B = [[rng.randint(-kind, 3) for _ in range(cols)] for _ in range(m)]
            if all(any(row) for row in B):
                return gram(B)
    G = [[0] * m for _ in range(m)]
    for i in range(m):
        G[i][i] = rng.randint(1, 6)
        for j in range(i + 1, m):
            G[i][j] = G[j][i] = rng.randint(0, 5)
    return G


def kind_of(G):
    negative_pairs = sum(x < 0 for i, row in enumerate(G) for x in row[i + 1:])
    psd = positive_semidefinite(G)
    if psd and negative_pairs == 0:
        return "doubly nonnegative"
    if psd and negative_pairs == 1:
        return "PSD, one negative pair"
    if not psd and negative_pairs == 0:
        return "nonnegative, not PSD"
    return "other"


def test_matches_sylvester_on_seeded_grams():
    rng = random.Random(5)
    kinds = collections.Counter()
    for _ in range(400):
        G = seeded_gram(rng)
        expected = doubly_nonnegative(G)
        assert is_doubly_nonnegative(GramMatrix.from_rows(G, EXACT)) == expected, G
        kinds[kind_of(G)] += 1
    assert all(kinds[k] >= 10 for k in (
        "doubly nonnegative", "PSD, one negative pair", "nonnegative, not PSD"
    )), kinds


def test_one_negative_entry_or_one_negative_minor_refutes():
    # PSD with a negative entry; a negative 2x2 minor; every leading minor
    # >= 0 (1, 0, 0) but the minor on rows {0, 2} is -3; a Schur complement
    # [[0, 1], [1, 0]] with zero diagonal and a nonzero row
    for G in (
        [[1, -1], [-1, 2]],
        [[1, 2], [2, 1]],
        [[1, 1, 2], [1, 1, 2], [2, 2, 1]],
        [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
    ):
        assert not is_doubly_nonnegative(GramMatrix.from_rows(G, EXACT))
        assert not doubly_nonnegative(G)
