"""Closed-form classification of two-dimensional hedgehogs.

In the plane every needle can be drawn in the upper half (angle in
[0, pi)), and all the geometry reduces to signs of inner and cross
products: for needles u, v at angles within [0, pi), the angle from u to v
is below / at / above a quarter turn exactly as u.v is positive / zero /
negative, and u precedes v in angular order exactly when the cross product
u x v is positive.  No trigonometry is ever evaluated, so rational needle
data yields a certified verdict.

A 2-needle hedgehog is orthant only when perpendicular.  With more
needles, orthantness holds exactly when the full angular span exceeds a
quarter turn while the gap at the last needle inside the first quarter
turn stays below one; orthant cases split into the four-needle
two-perpendicular-pairs shape and the ones containing an acute triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Optional

from .errors import BrokenInvariant, WrongDimension
from .hedgehogs import Hedgehog
from .matrix import dot


class Verdict2D:
    ORTHANT_DEGENERATE = "OrthantDegenerate"
    ORTHANT_B1 = "OrthantB1"
    ORTHANT_B2 = "OrthantB2"
    NOT_ORTHANT = "NotOrthant"

    ORTHANT = (ORTHANT_DEGENERATE, ORTHANT_B1, ORTHANT_B2)


@dataclass(frozen=True)
class Class2D:
    verdict: str
    sorted_needles: tuple
    p_index: Optional[int] = None  # needles within a quarter turn of the first

    @property
    def is_orthant(self) -> bool:
        return self.verdict in Verdict2D.ORTHANT


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def classify_2d(h: Hedgehog) -> Class2D:
    if h.dim != 2:
        raise WrongDimension("classify_2d needs a planar hedgehog")
    ctx = h.ctx

    def by_angle(u, v):
        return -ctx.sign(_cross(u, v))

    needles = tuple(sorted(h.needles, key=cmp_to_key(by_angle)))
    m = len(needles)

    if m < 2:
        return Class2D(Verdict2D.NOT_ORTHANT, needles)
    if m == 2:
        if ctx.sign(dot(needles[0], needles[1])) == 0:
            return Class2D(Verdict2D.ORTHANT_DEGENERATE, needles)
        return Class2D(Verdict2D.NOT_ORTHANT, needles)

    first = needles[0]
    p = max(i for i in range(m) if ctx.sign(dot(first, needles[i])) > 0)
    p_count = p + 1
    span_wide = ctx.sign(dot(first, needles[-1])) < 0
    gap_ok = p + 1 < m and ctx.sign(dot(needles[p], needles[p + 1])) > 0
    if not (span_wide and gap_ok):
        return Class2D(Verdict2D.NOT_ORTHANT, needles, p_count)

    if m == 4 and _two_perpendicular_pairs(needles, ctx):
        return Class2D(Verdict2D.ORTHANT_B1, needles, p_count)
    if not _has_acute_triple(needles, ctx):
        raise BrokenInvariant(
            "classify_2d: orthant hedgehog with no perpendicular pairs and no acute triple"
        )
    return Class2D(Verdict2D.ORTHANT_B2, needles, p_count)


def _two_perpendicular_pairs(needles, ctx) -> bool:
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    for (a, b), (c, d) in pairings:
        if (
            ctx.sign(dot(needles[a], needles[b])) == 0
            and ctx.sign(dot(needles[c], needles[d])) == 0
        ):
            return True
    return False


def _has_acute_triple(needles, ctx) -> bool:
    """Three needles (in angular order) spanning an acute triangle: both
    consecutive gaps under a quarter turn, total above one."""
    m = len(needles)
    for i in range(m):
        for j in range(i + 1, m):
            if ctx.sign(dot(needles[i], needles[j])) <= 0:
                continue
            for k in range(j + 1, m):
                if (
                    ctx.sign(dot(needles[j], needles[k])) > 0
                    and ctx.sign(dot(needles[i], needles[k])) < 0
                ):
                    return True
    return False
