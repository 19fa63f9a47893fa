"""Rank-stratified structure of orthant polyhedra.

The atoms of the theory are the basic orthant systems: those whose facet
count equals the rank of their weighting system.  A hedgehog is orthant
exactly when some of its basic orthant subhedgehogs jointly reach the full
rank, so the decision reduces to a guarded subset search that doubles as
an independent route to the LP verdict.

The forward direction of that reduction is constructive: any positive
weighting t of a system with a nontrivial kernel lies on a line inside the
solution plane, and the two points where that line leaves the closed
positive orthant split the facets into two smaller orthant subsystems with
disjoint zero sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidWitness, NoKernel, TooManyFacets
from .matrix import Mat, dot, kernel_basis, rank
from .polyhedra import Polyhedron, require_nondegenerate
from .frames import BangSystem, build
from . import lp

_FACET_GUARD = 12


@dataclass(frozen=True)
class Decomposition:
    """Index subsets of facets, each a basic orthant system, jointly spanning."""

    subsets: tuple
    witnesses: tuple  # per-subset positive weighting of its subsystem
    union_rank: int


def is_basic_orthant(P: Polyhedron) -> bool:
    """Facet count equals system rank, and a positive weighting exists."""
    require_nondegenerate(P)
    B = build(P)
    if P.nfacets != rank(B.Q):
        return False
    return lp.decide_positive(B).is_positive


def _column_subsystem(B: BangSystem, subset) -> BangSystem:
    return BangSystem(B.pairs, B.Q.select_columns(list(subset)), B.c)


def find_basic_decomposition(P: Polyhedron):
    """Greedy certificate for orthantness by basic orthant subsets.

    Subsets are scanned by increasing size and lexicographic order; a
    subset qualifies when its column count equals its subsystem rank and
    the subsystem admits a positive weighting.  Qualifying subsets are
    accumulated while they raise the rank of the union, stopping at the
    full system rank.  Exhausting the search without reaching full rank
    proves no decomposition exists, which happens exactly when the system
    is not orthant.
    """
    require_nondegenerate(P)
    m, n = P.nfacets, P.dim
    if m > _FACET_GUARD:
        raise TooManyFacets(f"subset search is guarded to m <= {_FACET_GUARD}")
    B = build(P)
    full = rank(B.Q)
    max_size = min(m, n * (n + 1) // 2)
    chosen, witnesses = [], []
    union: set = set()
    union_rank = 0
    for size in range(n, max_size + 1):
        for subset in combinations(range(m), size):
            sub = _column_subsystem(B, subset)
            if rank(sub.Q) != size:
                continue
            out = lp.decide_positive(sub)
            if not out.is_positive:
                continue
            trial = sorted(union | set(subset))
            trial_rank = rank(B.Q.select_columns(trial))
            if trial_rank > union_rank:
                chosen.append(tuple(subset))
                witnesses.append(out.witness_t)
                union = set(trial)
                union_rank = trial_rank
                if union_rank == full:
                    return Decomposition(tuple(chosen), tuple(witnesses), union_rank)
    return None


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
    d = kernel[0]
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


def peel_hyperplane(P: Polyhedron):
    """Detect one needle standing alone against a hyperplane of the rest.

    When all facet normals except one lie in a hyperplane, the system is
    orthant exactly when the odd needle is perpendicular to that
    hyperplane and the lower-dimensional system of the others is orthant.
    Returns (subsystem in hyperplane coordinates, perpendicularity flag),
    or None when the pattern is absent.
    """
    require_nondegenerate(P)
    m, n = P.nfacets, P.dim
    ctx = P.ctx
    odd = None
    for j in range(m):
        others = [P.A.row(i) for i in range(m) if i != j]
        if rank(Mat.from_rows(others, ctx)) == n - 1:
            odd = j
            break
    if odd is None:
        return None
    a_odd = P.A.row(odd)
    coplanar = [P.A.row(i) for i in range(m) if i != odd]
    offsets = [P.b[i] for i in range(m) if i != odd]
    perpendicular = all(ctx.sign(dot(a_odd, v)) == 0 for v in coplanar)
    sub = _express_in_span(coplanar, offsets, ctx)
    return sub, perpendicular


def _express_in_span(rows, offsets, ctx) -> Polyhedron:
    """Isometric coordinates of vectors inside their own span.

    Builds an orthogonal basis of the span; exact output needs the basis
    norms to be rational squares, otherwise the result degrades to floats.
    """
    from .context import FLOAT
    from .hedgehogs import _fraction_sqrt

    basis = []
    for v in rows:
        trial = Mat.from_rows(basis + [list(v)], ctx)
        if rank(trial) == len(basis) + 1:
            basis.append(list(v))
    gs = []
    for v in basis:
        w = list(v)
        for g, gg in gs:
            coef = dot(w, g) / gg
            if ctx.sign(coef) != 0:
                w = [a - coef * b for a, b in zip(w, g)]
        gs.append((w, dot(w, w)))
    out_ctx = ctx
    if ctx.is_exact:
        roots = [_fraction_sqrt(gg) for _, gg in gs]
        if any(r is None for r in roots):
            out_ctx = FLOAT
            roots = [float(gg) ** 0.5 for _, gg in gs]
            gs = [([float(x) for x in g], float(gg)) for g, gg in gs]
            rows = [[float(x) for x in v] for v in rows]
            offsets = [float(x) for x in offsets]
    else:
        roots = [float(gg) ** 0.5 for _, gg in gs]
    qs = [[x / r for x in g] for (g, _), r in zip(gs, roots)]
    coords = [[dot(v, q) for q in qs] for v in rows]
    return Polyhedron.from_rows(coords, offsets, out_ctx)
