"""The named families against their definitions and the Fourier-Motzkin oracles."""

from fractions import Fraction
from itertools import combinations

import pytest

from orthants import (
    cli,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    generate_simplex,
)
from orthants.context import EXACT, FLOAT
from orthants.errors import ShapeMismatch
from orthants.fileformats import polyhedron_from_text
from oracles import functional_minimum, solve_any, squared_distance, strictly_feasible

FAMILIES = {
    "cube": (generate_cube, lambda n: 2 * n),
    "cross": (generate_cross_polytope, lambda n: 2**n),
    "endgo": (generate_max_rank_orthant, lambda n: n * (3 * n - 1) // 2),
}


def rows_and_offsets(P):
    return [P.A.row(i) for i in range(P.nfacets)], list(P.b)


def every_row_is_a_facet(P):
    """A x > b is solvable, and dropping any row i lets a_i.x fall below b_i."""
    rows, offs = rows_and_offsets(P)
    if not strictly_feasible(rows, offs):
        return False
    for i in range(len(rows)):
        rest = [r for k, r in enumerate(rows) if k != i]
        rest_offs = [b for k, b in enumerate(offs) if k != i]
        low = functional_minimum(rest, rest_offs, rows[i]) if rest else "unbounded"
        if low != "unbounded" and low >= offs[i]:
            return False
    return True


def simplex_vertices(P):
    """The points where n rows of the simplex are tight, by rational solves."""
    rows, offs = rows_and_offsets(P)
    return [
        solve_any([rows[i] for i in idx], [offs[i] for i in idx])
        for idx in combinations(range(P.nfacets), P.dim)
    ]


def edge_lengths(alphas):
    return sorted(a * a + b * b for a, b in combinations(alphas, 2))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_facet_counts(kind):
    gen, count = FAMILIES[kind]
    for n in range(1, 7):
        P = gen(n)
        assert (P.dim, P.nfacets) == (n, count(n)), (kind, n)


@pytest.mark.parametrize(
    "kind, sizes", [("cube", (1, 2, 3, 4)), ("cross", (1, 2, 3)), ("endgo", (1, 2, 3))]
)
def test_every_generated_row_is_a_facet(kind, sizes):
    for n in sizes:
        P = FAMILIES[kind][0](n)
        assert every_row_is_a_facet(P), (kind, n)


def test_simplex_exact_when_the_pivots_are_squares():
    alphas = [3, 4, 7]
    P = generate_simplex(alphas)
    assert P.ctx is EXACT and P.nfacets == 3
    assert every_row_is_a_facet(P)
    verts = simplex_vertices(P)
    assert edge_lengths(alphas) == sorted(squared_distance(u, v) for u, v in combinations(verts, 2))


def test_simplex_falls_back_to_float():
    alphas = [1, 1, 1]
    P = generate_simplex(alphas)
    assert P.ctx is FLOAT and P.nfacets == 3
    verts = simplex_vertices(P)
    lengths = sorted(float(squared_distance(u, v)) for u, v in combinations(verts, 2))
    assert lengths == pytest.approx(edge_lengths(alphas), rel=1e-9)


@pytest.mark.parametrize("gen", [generate_cube, generate_cross_polytope, generate_max_rank_orthant])
@pytest.mark.parametrize("n", [0, -1])
def test_sizes_below_one_are_refused(gen, n):
    with pytest.raises(ShapeMismatch):
        gen(n)


@pytest.mark.parametrize("alphas", [[1, 0], [2, -1, 3], [Fraction(-1, 2), 3], [5]])
def test_simplex_needs_two_positive_intercepts(alphas):
    with pytest.raises(ShapeMismatch):
        generate_simplex(alphas)


@pytest.mark.parametrize(
    "params, expected",
    [(["cube", "3"], generate_cube(3)), (["cross", "2"], generate_cross_polytope(2)),
     (["endgo", "3"], generate_max_rank_orthant(3)),
     (["simplex", "3", "4", "7"], generate_simplex([3, 4, 7])),
     (["simplex", "1", "1", "1"], generate_simplex([1, 1, 1]))],
    ids=["cube", "cross", "endgo", "simplex-exact", "simplex-float"],
)
def test_gen_text_round_trips(capsys, params, expected):
    assert cli.main(["gen", *params]) == 0
    P = polyhedron_from_text(capsys.readouterr().out)
    assert P.ctx is expected.ctx
    assert rows_and_offsets(P) == rows_and_offsets(expected)
