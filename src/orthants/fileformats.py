"""Structured-text (JSON) formats for polyhedra, metrics, Gram data.

Scalars travel as strings in the backend grammar ('p/q' or 'p' exactly;
decimal notation for floats), so exact data round-trips bit-for-bit.
"""

from __future__ import annotations

import json

from .context import Context, EXACT, FLOAT
from .errors import ParseError
from .matrix import Mat
from .polyhedra import Polyhedron
from .frames import BangSystem
from .simplices import SimplexMetric
from .cones import GramMatrix


def _context_for(doc: dict, override: Context = None) -> Context:
    if override is not None:
        return override
    backend = doc.get("backend", "exact")
    if backend == "exact":
        return EXACT
    if backend == "float":
        return FLOAT
    raise ParseError(f"unknown backend {backend!r}")


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid structured text: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    return doc


# -- polyhedra ---------------------------------------------------------------


def polyhedron_to_text(P: Polyhedron) -> str:
    ctx = P.ctx
    doc = {
        "dim": P.dim,
        "backend": ctx.backend,
        "rows": [
            {
                "a": [ctx.format(x) for x in P.A.row(i)],
                "b": ctx.format(P.b[i]),
            }
            for i in range(P.nfacets)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def polyhedron_from_text(text: str, ctx: Context = None) -> Polyhedron:
    doc = _loads(text)
    ctx = _context_for(doc, ctx)
    try:
        dim = int(doc["dim"])
        rows = [[ctx.parse(s) for s in row["a"]] for row in doc["rows"]]
        offs = [ctx.parse(row["b"]) for row in doc["rows"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed polyhedron file: {exc}") from None
    for row in rows:
        if len(row) != dim:
            raise ParseError("row length does not match dim")
    return Polyhedron.from_rows(rows, offs, ctx)


# -- squared-distance matrices ------------------------------------------------


def metric_from_text(text: str, ctx: Context = None) -> SimplexMetric:
    doc = _loads(text)
    ctx = _context_for(doc, ctx)
    try:
        n = int(doc["dim"])
        flat = [ctx.parse(s) for s in doc["d2"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed metric file: {exc}") from None
    k = n + 1
    if len(flat) != k * k:
        raise ParseError(f"d2 must hold {k * k} entries row-major")
    rows = [flat[i * k : (i + 1) * k] for i in range(k)]
    return SimplexMetric.from_squared_distances(rows, ctx)


# -- Gram matrices and factors -------------------------------------------------


def gram_from_text(text: str, ctx: Context = None) -> GramMatrix:
    doc = _loads(text)
    ctx = _context_for(doc, ctx)
    try:
        m = int(doc["m"])
        flat = [ctx.parse(s) for s in doc["g"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed Gram file: {exc}") from None
    if len(flat) != m * m:
        raise ParseError(f"g must hold {m * m} entries row-major")
    rows = [flat[i * m : (i + 1) * m] for i in range(m)]
    return GramMatrix.from_rows(rows, ctx)


def factor_from_text(text: str, ctx: Context = None):
    """Read a nonnegative factor: returns (Mat, sq_scale)."""
    doc = _loads(text)
    ctx = _context_for(doc, ctx)
    try:
        r, c = int(doc["rows"]), int(doc["cols"])
        flat = [ctx.parse(s) for s in doc["b"]]
        scale = ctx.parse(doc.get("sq_scale", "1"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed factor file: {exc}") from None
    if len(flat) != r * c:
        raise ParseError(f"b must hold {r * c} entries row-major")
    rows = [flat[i * c : (i + 1) * c] for i in range(r)]
    return Mat.from_rows(rows, ctx), scale


# -- weighting-system dumps -----------------------------------------------------


def bang_to_doc(B: BangSystem) -> dict:
    ctx = B.Q.ctx
    return {
        "pairs": [[p + 1, q + 1] for p, q in B.pairs],
        "q": [[ctx.format(x) for x in row] for row in B.Q.data],
        "c": [ctx.format(x) for x in B.c],
    }
