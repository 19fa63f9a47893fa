"""Rank-stratified structure of orthant polyhedra.

The atoms of the theory are the basic orthant systems: those whose facet
count equals the rank of their weighting system.  A hedgehog is orthant
exactly when some of its basic orthant subhedgehogs jointly reach the full
rank, and one positive weighting is enough to find them.

Any positive weighting t of a system with a nontrivial kernel lies on a
line inside the solution plane, and the two points u and v where that line
leaves the closed positive orthant split the facets into two smaller
orthant subsystems with disjoint zero sets I and J.  Splitting again until
every kernel is trivial ends in basic orthant leaves.  Since t lies
strictly between u and v and is positive on every facet, every facet stays
positive in u or in v, so the leaves under any node cover all of that
node's facets, and the leaves under the root span the full system.  This
is the basic-solution (Caratheodory) argument of linear programming.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteDecomposition, InvalidWitness, NoKernel
from .matrix import kernel_basis, rank
from .polyhedra import Polyhedron
from .frames import BangSystem, build
from . import lp


@dataclass(frozen=True)
class Decomposition:
    """Index subsets of facets, each a basic orthant system, jointly spanning."""

    subsets: tuple
    witnesses: tuple  # per-subset positive weighting of its subsystem
    union_rank: int


def find_basic_decomposition(P: Polyhedron):
    """Basic orthant subsets that jointly reach full rank, or None.

    One LP decides the system; a Positive verdict's witness is then split
    along the first kernel direction of each node's column subsystem (see
    :func:`split_solution`) until the kernel is trivial.  Such a basic
    leaf is kept when it raises the rank of the union, and the search stops
    at the full system rank.  Column sets already visited are skipped: the
    leaves under a node cover its columns whatever its witness, so one
    visit suffices, and without the memo the leaves multiply (98,304 on
    endgo n=5).  None means the LP found no positive weighting, which is
    exactly when the system is not orthant.
    """
    B = build(P)
    outcome = lp.decide_positive(B)
    if not outcome.is_positive:
        return None
    ctx = B.Q.ctx
    full = rank(B.Q)
    chosen, witnesses = [], []
    union, union_rank = set(), 0
    seen = set()
    stack = [(tuple(range(P.nfacets)), outcome.witness_t)]
    while stack:
        cols, t = stack.pop()
        if cols in seen:
            continue
        seen.add(cols)
        kernel = kernel_basis(B.Q.select_columns(cols))
        if kernel:
            u, v, I, J = _walk(ctx, t, kernel[0])
            for w, zeros in ((v, J), (u, I)):
                keep = [k for k in range(len(cols)) if k not in zeros]
                stack.append((tuple(cols[k] for k in keep), tuple(w[k] for k in keep)))
            continue
        trial = union | set(cols)
        trial_rank = rank(B.Q.select_columns(sorted(trial)))
        if trial_rank > union_rank:
            chosen.append(cols)
            witnesses.append(t)
            union, union_rank = trial, trial_rank
            if union_rank == full:
                return Decomposition(tuple(chosen), tuple(witnesses), union_rank)
    raise IncompleteDecomposition(
        f"basic leaves of the witness split reach rank {union_rank}, "
        f"not the system rank {full}"
    )


def split_solution(B: BangSystem, t) -> tuple:
    """Walk a positive weighting to both walls of the closed orthant.

    Follows the first canonical kernel direction of Q from t until single
    coordinates hit zero on either side.  Returns (u, v, I, J) where I and
    J are the (nonempty, disjoint) zero sets of the two boundary points;
    dropping either index set leaves a subsystem with a positive weighting.
    """
    ctx = B.Q.ctx
    outcome = lp.PositivityOutcome(
        lp.Verdict.POSITIVE, ctx.backend, witness_t=tuple(t)
    )
    if not lp.verify_outcome(B, outcome):
        raise InvalidWitness("t is not an exact positive solution of Q t = c")
    kernel = kernel_basis(B.Q)
    if not kernel:
        raise NoKernel("Q has full column rank; the weighting is unique")
    return _walk(ctx, t, kernel[0])


def _walk(ctx, t, d) -> tuple:
    """The points where t + lambda d leaves the closed orthant, and their zero sets."""
    ups = [i for i in range(len(t)) if ctx.sign(d[i]) < 0]
    downs = [i for i in range(len(t)) if ctx.sign(d[i]) > 0]
    if not ups or not downs:
        raise InvalidWitness("kernel direction is one-signed; Q has a zero row pattern")
    lam_up = min((t[i] / -d[i] for i in ups))
    lam_down = -min((t[i] / d[i] for i in downs))
    u = tuple(t[i] + lam_up * d[i] for i in range(len(t)))
    v = tuple(t[i] + lam_down * d[i] for i in range(len(t)))
    I = frozenset(i for i in range(len(u)) if ctx.is_zero(u[i]))
    J = frozenset(i for i in range(len(v)) if ctx.is_zero(v[i]))
    return u, v, I, J
