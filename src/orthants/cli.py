"""Command-line surface: every decision with certificate-bearing output.

Structured text (JSON) goes to stdout, one human-readable summary line
(including timing) to stderr.  Exact-backend reports carry no volatile
fields, so identical inputs produce byte-identical stdout.  A failure
leaves stdout empty and writes one ``error:`` line to stderr.

Exit codes: 0 for a positive decision (or plain success), 1 when
``is-orthant`` answers no, 2 for parse or precondition failures, bad
arguments included (``--help`` still exits 0).

``is-orthant``, ``rank``, ``classify2d`` and ``decompose`` answer for the
facet directions alone: offsets, and so emptiness, do not enter, and an
empty system reports as the nonempty one with the same facet normals.
``embed`` and ``realize`` accept an empty system too: the Gram identity
that makes the map an isometry does not involve offsets, and the section
is the image of P, which is empty on both sides.

The scalar backend is the ``--backend`` option alone, ``exact`` unless
given: it overrides any ``"backend"`` field of an input file, so a file
marked float is answered exactly unless ``--backend float`` is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .context import Context, EXACT
from .errors import OrthantsError, ParseError
from .frames import build, rank_and_consistency, system_from_primitive
from .hedgehogs import reduce as reduce_hedgehog
from .planar import classify_2d
from .simplices import SimplexClass, classify_simplex, embed_simplex
from .decompose import find_basic_decomposition
from .realize import affine_embedding, orthant_embedding, realize_unbounded
from .cones import is_doubly_nonnegative, verify_cp_decomposition
from .generators import (
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    generate_simplex,
)
from . import fileformats as ff
from . import lp


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _ctx(args) -> Context:
    if args.backend == "float":
        try:
            return Context("float", args.tol)
        except ValueError as exc:
            raise ParseError(f"--tol {args.tol}: {exc}") from None
    return EXACT


def _fmt_vec(vec, ctx) -> list:
    return [ctx.format(x) for x in vec]


def _float15(x) -> str:
    return f"{float(x):.15g}"


# -- subcommand bodies -----------------------------------------------------------
# Each takes (args, ctx) and returns (report, summary, exit code): the report
# is a JSON document, or the text of a polyhedron file for reduce and gen.


def _cmd_is_orthant(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    _, canonical = reduce_hedgehog(P)
    system = system_from_primitive(canonical.primitive_rows, ctx)
    outcome = lp.decide_positive(system)
    if not lp.verify_outcome(system, outcome):
        raise OrthantsError("solver outcome failed exact re-verification")
    doc = {
        "command": "is-orthant",
        "backend": outcome.backend,
        "verdict": outcome.verdict,
        "certified": outcome.certified,
    }
    if outcome.witness_t is not None:
        doc["witness"] = _fmt_vec(outcome.witness_t, ctx)
    if outcome.certificate_y is not None:
        doc["certificate"] = _fmt_vec(outcome.certificate_y, ctx)
    if outcome.numeric_marginal:
        doc["numeric_marginal"] = True
    if args.dump_bang:
        doc["bang"] = ff.bang_to_doc(system)
    return doc, f"is-orthant: {outcome.verdict}", 0 if outcome.is_positive else 1


def _cmd_rank(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    system = build(P)
    r, consistent = rank_and_consistency(system)
    doc = {
        "command": "rank",
        "backend": ctx.backend,
        "rank": r,
        "consistent": consistent,
        "equations": P.dim * (P.dim + 1) // 2,
        "facets": P.nfacets,
    }
    if args.dump_bang:
        doc["bang"] = ff.bang_to_doc(system)
    return doc, f"rank {r}, consistent={consistent}", 0


def _cmd_reduce(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    _, canonical = reduce_hedgehog(P)
    return ff.polyhedron_to_text(canonical), f"reduced to {canonical.nfacets} needles", 0


def _cmd_classify2d(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    h, canonical = reduce_hedgehog(P)
    result = classify_2d(h)
    system = system_from_primitive(canonical.primitive_rows, ctx)
    outcome = lp.decide_positive(system)
    if result.is_orthant != outcome.is_positive:
        raise OrthantsError(
            "closed-form verdict disagrees with the weighting decision; "
            f"{result.verdict} vs {outcome.verdict}"
        )
    doc = {
        "command": "classify2d",
        "backend": ctx.backend,
        "verdict": result.verdict,
        "needles": [_fmt_vec(v, ctx) for v in result.sorted_needles],
        "lp_verdict": outcome.verdict,
    }
    if result.p_index is not None:
        doc["p"] = result.p_index
    return doc, f"classify2d: {result.verdict}", 0


def _cmd_simplex(args, ctx):
    S = ff.metric_from_text(_read(args.file), ctx)
    verdict = classify_simplex(S)
    doc = {"command": "simplex", "backend": ctx.backend, "verdict": verdict}
    if verdict == SimplexClass.ORTHANT_ACUTE_ORTHOCENTRIC:
        doc["x"] = _fmt_vec(embed_simplex(S), ctx)
    return doc, f"simplex: {verdict}", 0


def _cmd_decompose(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    _, canonical = reduce_hedgehog(P)
    dec = find_basic_decomposition(canonical)
    doc = {"command": "decompose", "backend": ctx.backend}
    if dec is None:
        doc["verdict"] = "NotOrthant"
        doc["subsets"] = []
    else:
        doc["verdict"] = "Orthant"
        doc["subsets"] = [list(s) for s in dec.subsets]
        doc["witnesses"] = [_fmt_vec(w, ctx) for w in dec.witnesses]
        doc["union_rank"] = dec.union_rank
    return doc, f"decompose: {doc['verdict']}", 0


def _embedding_doc(command, E, ctx) -> dict:
    return {
        "command": command,
        "backend": ctx.backend,
        "source_dim": E.source_dim,
        "target_dim": E.target_dim,
        "affine": E.affine,
        "t": _fmt_vec(E.t, ctx),
        "rows": [
            {"a": _fmt_vec(E.A_ext.row(i), ctx), "b": ctx.format(E.b_ext[i])}
            for i in range(E.target_dim)
        ],
        "scale_factors": [_float15(float(v) ** 0.5) for v in E.t],
    }


def _cmd_embed(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    if args.affine:
        E = affine_embedding(P)
    else:
        E = orthant_embedding(P)
        if E is None:
            raise OrthantsError(
                "polyhedron is not orthant; `realize` handles the general case"
            )
    return _embedding_doc("embed", E, ctx), f"embed into dimension {E.target_dim}", 0


def _cmd_realize(args, ctx):
    P = ff.polyhedron_from_text(_read(args.file), ctx)
    # realize_unbounded takes bounded inputs too, and decides boundedness once
    E = realize_unbounded(P)
    return _embedding_doc("realize", E, ctx), f"realized in dimension {E.target_dim}", 0


# the largest rows x dim a sized generator may build; no option sets it
_GEN_CAP = 1 << 20
_GEN_ROWS = {
    "cube": lambda n: 2 * n,
    "cross": lambda n: 1 << n,
    "endgo": lambda n: n * (3 * n - 1) // 2,
}


def _size(kind: str, params) -> int:
    """The one size of a cube, cross or endgo, refused before anything is
    built when the system would exceed _GEN_CAP entries (rows x dim)."""
    if len(params) != 1:
        raise ParseError(f"generator takes exactly one size, not {len(params)} parameters")
    try:
        n = int(params[0])
    except ValueError:
        raise ParseError(f"generator size must be an integer, not {params[0]!r}") from None
    # n > _GEN_CAP is refused first, so the closed form stays small
    if n > _GEN_CAP or n > 0 and _GEN_ROWS[kind](n) * n > _GEN_CAP:
        raise ParseError(f"gen {kind} {n} exceeds the size cap: rows x dim must be "
                         f"at most 2^20 = {_GEN_CAP}")
    return n


def _cmd_gen(args, ctx):
    kind = args.kind
    if kind == "cube":
        P = generate_cube(_size(kind, args.params), ctx)
    elif kind == "cross":
        P = generate_cross_polytope(_size(kind, args.params), ctx)
    elif kind == "endgo":
        P = generate_max_rank_orthant(_size(kind, args.params), ctx)
    elif kind == "simplex":
        P = generate_simplex([ctx.parse(p) for p in args.params], ctx)
    else:
        raise OrthantsError(f"unknown generator {kind!r}")
    return ff.polyhedron_to_text(P), f"generated {kind} with {P.nfacets} facets", 0


def _cmd_cone(args, ctx):
    G = ff.gram_from_text(_read(args.file), ctx)
    doc = {
        "command": "cone",
        "backend": ctx.backend,
        "doubly_nonnegative": is_doubly_nonnegative(G),
    }
    if args.cp:
        B, scale = ff.factor_from_text(_read(args.cp), ctx)
        doc["cp_verified"] = verify_cp_decomposition(G, B, scale)
        doc["cp_target_dim"] = B.cols
    return doc, f"cone: dnn={doc['doubly_nonnegative']}", 0


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A bad argument is a ParseError, which cli.main answers like any other."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; parse_args leaves it unchanged."""
    top = _Parser(
        prog="orthants",
        description="Decide and certify realizations of polyhedra as orthant sections.",
    )
    top.add_argument(
        "--backend", choices=("exact", "float"), default="exact",
        help="scalar backend (default exact); overrides an input file's \"backend\" field",
    )
    top.add_argument("--tol", type=float, default=1e-9, help="float-backend tolerance")
    top.add_argument("--dump-bang", action="store_true", help="attach the weighting system")
    top.add_argument("--affine", action="store_true", help="affine section mode for embed")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add(name, handler, *, file_arg=True):
        p = sub.add_parser(name)
        if file_arg:
            p.add_argument("file", nargs="?", default="-")
        p.set_defaults(handler=handler)
        return p

    add("is-orthant", _cmd_is_orthant)
    add("rank", _cmd_rank)
    add("reduce", _cmd_reduce)
    add("classify2d", _cmd_classify2d)
    add("simplex", _cmd_simplex)
    add("decompose", _cmd_decompose)
    add("embed", _cmd_embed)
    add("realize", _cmd_realize)
    g = add("gen", _cmd_gen, file_arg=False)
    g.add_argument("kind", choices=("cube", "cross", "endgo", "simplex"))
    g.add_argument(
        "params", nargs="+",
        help="the size n of cube, cross or endgo, whose system (2n, 2^n or "
             "n(3n-1)/2 rows in dimension n) may have at most 2^20 entries; "
             "or the positive intercepts of simplex",
    )
    c = add("cone", _cmd_cone)
    c.add_argument("--cp", default=None, help="factor file for CP verification")
    return top


def main(argv=None) -> int:
    """The one writer of stdout and stderr; the subcommands only compute."""
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
        report, summary, code = args.handler(args, _ctx(args))
    except (OrthantsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(report if isinstance(report, str) else json.dumps(report, indent=2) + "\n")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    sys.stderr.write(f"{summary}  [{elapsed_ms:.1f} ms]\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
