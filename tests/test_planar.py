"""The closed-form planar classifier against the weighting LP.

``classify_2d`` reads orthantness off signs of inner and cross products;
``decide_positive`` solves the weighting system of the canonical
polyhedron.  The two routes share only the hedgehog reduction.
"""

import collections
import random
from fractions import Fraction

import pytest

from orthants import Polyhedron, build, classify_2d, decide_positive, reduce
from orthants.context import EXACT, FLOAT
from orthants.errors import DegeneratePolyhedron
from conftest import random_needles_2d


def planar_draw(rng):
    """(rows, offsets) of a seeded planar system.  About one in six is
    degenerate (every row a multiple of one direction), and one in six is
    made of perpendicular pairs (one pair, or two)."""
    kind = rng.randrange(6)
    if kind == 0:
        v = random_needles_2d(rng, 1)[0]
        rows = [tuple(c * x for x in v) for c in rng.sample([-3, -2, -1, 1, 2, 3], rng.randint(1, 3))]
    elif kind == 1:
        pairs = random_needles_2d(rng, rng.randint(1, 2))
        rows = [u for v in pairs for u in (v, (-v[1], v[0]))]
    else:
        rows = random_needles_2d(rng, rng.randint(1, 6))
    offsets = [Fraction(rng.randint(-5, 5)) for _ in rows]
    return rows, offsets


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_closed_form_verdict_matches_the_lp(ctx):
    rng = random.Random(2)
    verdicts = collections.Counter()
    for _ in range(400):
        rows, offsets = planar_draw(rng)
        P = Polyhedron.from_rows(rows, offsets, ctx)
        if all(u[0] * v[1] == u[1] * v[0] for u in rows for v in rows):
            with pytest.raises(DegeneratePolyhedron):
                reduce(P)
            verdicts["degenerate"] += 1
            continue
        h, canonical = reduce(P)
        result = classify_2d(h)
        outcome = decide_positive(build(canonical))
        assert result.is_orthant == outcome.is_positive, (rows, result.verdict, outcome.verdict)
        verdicts[result.verdict] += 1
    assert len(verdicts) == 5 and min(verdicts.values()) >= 5, verdicts
