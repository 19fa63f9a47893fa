"""Per-layer metrics derived from the spans of one traced pass.

Each metric is listed with the end-to-end metric and workload it should
move in NOTES.md.  Counts repeat exactly for a given seed; times do not.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _bits(values) -> int:
    out = 0
    for v in values:
        if isinstance(v, Fraction):
            out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
    return out


def _simplex_bits(result) -> int:
    kind = type(result).__name__
    if kind == "Optimal":
        return max(_bits(result.x), _bits(result.dual))
    if kind == "Infeasible":
        return _bits(result.dual_ray)
    if kind == "Unbounded":
        return _bits(result.primal_ray)
    return 0


def layer_metrics(tracer, overhead: dict) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans
    selfs = tracer.self_ms()
    run = [i for i, s in enumerate(spans) if s.phase == "run"]
    by_name: dict = {}
    for i in run:
        by_name.setdefault(spans[i].name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def ms(name):
        return sum(spans[i].ms for i in idx(name))

    def self_ms(name):
        return sum(selfs[i] for i in idx(name))

    def under(name, ancestor):
        """Spans called ``name`` with an ancestor called ``ancestor``."""
        n = 0
        for i in idx(name):
            p = spans[i].parent
            while p >= 0:
                if spans[p].name == ancestor:
                    n += 1
                    break
                p = spans[p].parent
        return n

    out = {}

    def put(key, value, unit):
        out[key] = (value, unit)

    sx = "lp.simplex_standard"
    put(f"{sx}.calls", calls(sx), "count")
    put(f"{sx}.ms", ms(sx), "ms")
    put(f"{sx}.self_ms", self_ms(sx), "ms")
    put(f"{sx}.rows_max", max((len(spans[i].args[0]) for i in idx(sx)), default=0), "count")
    put(f"{sx}.cols_max", max((len(spans[i].args[2]) for i in idx(sx)), default=0), "count")
    put(f"{sx}.bits_max", max((_simplex_bits(spans[i].result) for i in idx(sx)), default=0),
        "bits")
    kinds = [type(spans[i].result).__name__ for i in idx(sx)]
    for kind in ("Optimal", "Infeasible", "Unbounded"):
        put(f"{sx}.outcome.{kind.lower()}", kinds.count(kind), "count")

    put("lp.decide_positive.calls", calls("lp.decide_positive"), "count")
    put("lp.decide_positive.ms", ms("lp.decide_positive"), "ms")
    put("lp.verify_outcome.ms", ms("lp.verify_outcome"), "ms")
    put("lp.solve.calls", calls("lp.solve"), "count")

    for name in ("polyhedra.functional_min", "polyhedra.interior_point"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.ms", ms(name), "ms")

    rr = "polyhedra.recession_rays"
    put(f"{rr}.calls", calls(rr), "count")
    put(f"{rr}.ms", ms(rr), "ms")
    put(f"{rr}.subsets", sum(comb(spans[i].args[0].nfacets, spans[i].args[0].dim - 1)
                             for i in idx(rr)), "count")
    put(f"{rr}.rays_out", sum(len(spans[i].result.rays) for i in idx(rr)
                              if spans[i].result is not None), "count")

    vx = "polyhedra.vertices"
    subsets = sum(comb(spans[i].args[0].nfacets, spans[i].args[0].dim) for i in idx(vx))
    found = sum(len(spans[i].result) for i in idx(vx) if spans[i].result is not None)
    put(f"{vx}.calls", calls(vx), "count")
    put(f"{vx}.ms", ms(vx), "ms")
    put(f"{vx}.subsets", subsets, "count")
    put(f"{vx}.vertices_out", found, "count")
    put(f"{vx}.hit_ratio", found / subsets if subsets else 0.0, "ratio")

    red = "polyhedra.remove_redundant"
    rows_in = sum(spans[i].args[0].nfacets for i in idx(red))
    rows_out = sum(spans[i].result.nfacets for i in idx(red) if spans[i].result is not None)
    lps = under(sx, red)
    put(f"{red}.ms", ms(red), "ms")
    put(f"{red}.rows_in", rows_in, "count")
    put(f"{red}.rows_out", rows_out, "count")
    put(f"{red}.lps", lps, "count")
    put(f"{red}.removed_per_lp", (rows_in - rows_out) / lps if lps else 0.0, "ratio")

    dec = "decompose.find_basic_decomposition"
    lps = under("lp.decide_positive", dec)
    kept = sum(len(spans[i].result.subsets) for i in idx(dec) if spans[i].result is not None)
    put(f"{dec}.calls", calls(dec), "count")
    put(f"{dec}.ms", ms(dec), "ms")
    put(f"{dec}.lps", lps, "count")
    put(f"{dec}.subsets_kept", kept, "count")
    put(f"{dec}.kept_per_lp", kept / lps if lps else 0.0, "ratio")

    for name in ("matrix.rank", "matrix.solve_linear", "matrix.kernel_basis"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.ms", ms(name), "ms")

    put("hedgehogs.reduce.calls", calls("hedgehogs.reduce"), "count")
    put("hedgehogs.reduce.self_ms", self_ms("hedgehogs.reduce"), "ms")
    put("hedgehogs.reduce.needles_out", sum(spans[i].result[0].count
                                            for i in idx("hedgehogs.reduce")
                                            if spans[i].result is not None), "count")
    put("frames.build.ms", ms("frames.build"), "ms")
    put("fileformats.polyhedron_from_text.ms", ms("fileformats.polyhedron_from_text"), "ms")
    put("cli.self_ms", self_ms("cli.main"), "ms")

    realizers = ("realize.realize_polytope", "realize.realize_unbounded")
    for name in realizers + ("realize.build_embedding",):
        put(f"{name}.ms", ms(name), "ms")
    # the checker, not the CLI, calls verify_embedding
    put("realize.verify_embedding.ms",
        sum(s.ms for s in spans if s.name == "realize.verify_embedding"), "ms")
    put("realize.target_dim", sum(
        spans[i].result.target_dim for name in realizers for i in idx(name)
        if spans[i].result is not None
        and (spans[i].parent < 0 or spans[spans[i].parent].name not in realizers)
    ), "count")

    put("trace.spans", len(spans), "count")
    for key, value in overhead.items():
        put(f"trace.{key}", value, "s")
    return out
