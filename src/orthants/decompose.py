"""Rank-stratified structure of orthant polyhedra.

The atoms of the theory are the basic orthant systems: those whose facet
count equals the rank of their weighting system.  A hedgehog is orthant
exactly when some of its basic orthant subhedgehogs jointly reach the full
rank, and a few linear programs find them.

The nonnegative weightings T = {t >= 0 : Q t = c} form a polytope: the
trace of the identity sum_i t_i a_i a_i^T = I gives sum_i t_i |a_i|^2 = n,
which bounds every t_i.  A vertex of T is a basic solution, so its support
columns are independent and it is positive on them: the support is a basic
orthant subsystem, and the vertex restricted to it is its weighting.  When
the system is orthant, some t in T is positive on every facet, so for each
facet j the largest t_j over T is positive and some optimal vertex is
positive on j.  The supports of those vertices cover every facet, so they
span the full system, and each one that raises the rank of the union joins
it: at most rank Q leaves.  This is the basic-solution (Caratheodory)
argument of linear programming (Schrijver 1986, ch. 7-8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BrokenInvariant
from .matrix import rank
from .polyhedra import Polyhedron
from .frames import build
from . import lp


@dataclass(frozen=True)
class Decomposition:
    """Index subsets of facets, each a basic orthant system, jointly spanning."""

    subsets: tuple
    witnesses: tuple  # per-subset positive weighting of its subsystem
    union_rank: int


def find_basic_decomposition(P: Polyhedron):
    """Basic orthant subsets that jointly reach full rank, or None.

    One LP decides the system.  A basic system is its own one leaf, with
    the decision's witness.  Otherwise, for each facet j that no earlier
    vertex is positive on, one LP maximizes t_j over T; the support of that
    basic optimum is kept as a leaf when it raises the rank of the union,
    and the search stops at the full system rank.  None means the decision
    found no positive weighting, which is exactly when the system is not
    orthant.
    """
    B = build(P)
    outcome = lp.decide_positive(B)
    if not outcome.is_positive:
        return None
    W, ctx, m = B.W, B.W.ctx, P.nfacets
    full = rank(W)
    if full == m:
        return Decomposition((tuple(range(m)),), (outcome.witness_t,), full)
    chosen, witnesses = [], []
    covered, union, union_rank = set(), set(), 0
    rows = lp._lp_rows(B)
    for j in range(m):
        if j in covered:
            continue
        objective = [ctx.one() if i == j else ctx.zero() for i in range(m)]
        res = lp.simplex_standard(rows, B.c, objective, ctx)
        if not isinstance(res, lp.Optimal) or ctx.sign(res.x[j]) <= 0:
            raise BrokenInvariant(
                f"decompose: max t_{j} over the weightings of an orthant system "
                "has no positive optimal vertex"
            )
        support = tuple(i for i in range(m) if ctx.sign(res.x[i]) > 0)
        covered.update(support)
        trial = union | set(support)
        trial_rank = rank(W.select_columns(sorted(trial)))
        if trial_rank > union_rank:
            chosen.append(support)
            witnesses.append(tuple(res.x[i] for i in support))
            union, union_rank = trial, trial_rank
            if union_rank == full:
                return Decomposition(tuple(chosen), tuple(witnesses), union_rank)
    raise BrokenInvariant(
        f"decompose: vertices positive on every facet span rank {union_rank}, "
        f"not the system rank {full}"
    )
