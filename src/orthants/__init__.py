"""Certified decisions for realizing convex polyhedra as orthant sections.

The central question: given a polyhedron with m facets in R^n, is it
isometric to the intersection of an n-plane with the nonnegative orthant
of R^m?  The answer reduces to strict positive solvability of a linear
system in facet weights, decided here by exact rational programming with
machine-checkable witnesses and refutation certificates, alongside
closed-form classifiers in the plane and for simplices, a decomposition
theory by rank, and constructive embeddings into larger orthants.
"""

from .context import Context, EXACT, FLOAT, Scalar
from .errors import OrthantsError
from .matrix import Mat, rank, solve_linear, kernel_basis
from .polyhedra import (
    Cone,
    Polyhedron,
    boundedness,
    functional_min,
    interior_point,
    is_nondegenerate,
    recession_rays,
    remove_redundant,
    vertices,
)
from .frames import BangSystem, build, system_from_normals
from .lp import (
    Infeasible,
    LpProblem,
    Optimal,
    PositivityOutcome,
    Unbounded,
    Verdict,
    decide_positive,
    solve,
    verify_outcome,
)
from .hedgehogs import Hedgehog, canonical_polyhedron, reduce
from .planar import Class2D, Verdict2D, classify_2d
from .simplices import (
    SimplexClass,
    SimplexMetric,
    classify_simplex,
    embed_simplex,
    is_realizable,
)
from .decompose import Decomposition, find_basic_decomposition
from .realize import (
    Embedding,
    affine_embedding,
    build_embedding,
    orthant_embedding,
    realize_polytope,
    realize_unbounded,
    verify_embedding,
)
from .cones import GramMatrix, gram_from_rays, is_doubly_nonnegative, verify_cp_decomposition
from .generators import (
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    generate_simplex,
    simplex_from_vertices,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
