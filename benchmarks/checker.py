"""Exact re-checks of every CLI output, independent of the library's solver.

Each check rebuilds what it needs from the input rows with Fraction
arithmetic and raises ``CheckError`` naming what failed; the one library
call is ``verify_embedding``, run on embeddings rebuilt from the reports.
Verdicts are proved, not trusted: a Positive witness t must satisfy
sum_i t_i a_i a_i^T = I on the canonical rows with t > 0, and a refutation
y must satisfy yQ >= 0, y.c <= 0 and (yQ, y.c) != 0, with Inconsistent
further requiring Q t = c to be unsolvable.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

from builder import dot, rank, solve_square


class CheckError(ValueError):
    pass


def require(cond, what: str) -> None:
    if not cond:
        raise CheckError(what)


def rows_of(text: str):
    """(rows, offsets) of a polyhedron in the library's JSON format."""
    doc = json.loads(text)
    rows = [tuple(Fraction(x) for x in r["a"]) for r in doc["rows"]]
    return rows, [Fraction(r["b"]) for r in doc["rows"]]


def weighting_system(rows):
    """Q t = c: one equation per coordinate pair p <= q, in the library's order."""
    n = len(rows[0])
    pairs = [(p, p) for p in range(n)] + [(p, q) for p in range(n) for q in range(p + 1, n)]
    Q = [[a[p] * a[q] for a in rows] for p, q in pairs]
    c = [Fraction(int(p == q)) for p, q in pairs]
    return Q, c


def is_consistent(Q, c) -> bool:
    return rank(Q) == rank([row + [ci] for row, ci in zip(Q, c)])


def check_witness(rows, t) -> None:
    require(len(t) == len(rows), "witness length differs from the facet count")
    require(all(x > 0 for x in t), "witness is not strictly positive")
    Q, c = weighting_system(rows)
    require(all(dot(q, t) == ci for q, ci in zip(Q, c)),
            "sum t_i a_i a_i^T differs from the identity")


def check_refutation(rows, y, verdict) -> None:
    Q, c = weighting_system(rows)
    require(len(y) == len(Q), "certificate length differs from the equation count")
    yQ = [sum(y[k] * Q[k][j] for k in range(len(Q))) for j in range(len(rows))]
    yc = dot(y, c)
    require(all(v >= 0 for v in yQ) and yc <= 0, "certificate violates yQ >= 0, y.c <= 0")
    require(any(v > 0 for v in yQ) or yc < 0, "certificate is zero on (Q, c)")
    require((verdict == "Inconsistent") == (not is_consistent(Q, c)),
            f"{verdict} verdict on a system whose consistency says otherwise")


def check_is_orthant(doc, canon_rows) -> str:
    """The proved verdict of an is-orthant report on the canonical rows."""
    verdict = doc.get("verdict")
    require(doc.get("certified") is True, "exact verdict not marked certified")
    if verdict == "Positive":
        check_witness(canon_rows, [Fraction(x) for x in doc["witness"]])
    else:
        require(verdict in ("NotPositive", "Inconsistent"), f"unknown verdict {verdict!r}")
        check_refutation(canon_rows, [Fraction(x) for x in doc["certificate"]], verdict)
    return verdict


def _directions(rows):
    """One representative per direction modulo sign."""
    out = []
    for a in rows:
        if not any(rank([a, b]) < 2 for b in out):
            out.append(a)
    return out


def _cos2(rows):
    return sorted(dot(a, b) ** 2 / (dot(a, a) * dot(b, b)) for a, b in combinations(rows, 2))


def check_canonical(rows, canon_rows) -> None:
    """The reduced system has the input's needles up to a rigid motion:
    same count and dimension, same multiset of squared angle cosines."""
    dirs = _directions(rows)
    require(len(canon_rows) == len(dirs) and len(canon_rows[0]) == len(rows[0]),
            "reduced system has another needle count or dimension")
    require(_cos2(dirs) == _cos2(canon_rows), "reduced needles are not congruent to the input")


def check_rank(doc, rows, verdict) -> None:
    n, m = len(rows[0]), len(rows)
    Q, c = weighting_system(rows)
    require(doc["rank"] == rank(Q), "rank differs from an independent elimination")
    require(doc["consistent"] == is_consistent(Q, c), "consistency flag is wrong")
    require(doc["consistent"] == (verdict != "Inconsistent"), "rank and is-orthant disagree")
    require(doc["equations"] == n * (n + 1) // 2 and doc["facets"] == m, "shape fields")


def check_classify2d(doc, verdict) -> None:
    require(doc["lp_verdict"] == verdict, "classify2d LP verdict differs from is-orthant")
    require((doc["verdict"] != "NotOrthant") == (verdict == "Positive"),
            "closed-form verdict differs from is-orthant")


def vertices_and_rays(rows, offsets):
    """Vertices and extreme recession directions of A x >= b, by brute force."""
    n, m = len(rows[0]), len(rows)
    verts = set()
    for sub in combinations(range(m), n):
        x = solve_square([rows[i] for i in sub], [offsets[i] for i in sub])
        if x is not None and all(dot(a, x) >= b for a, b in zip(rows, offsets)):
            verts.add(tuple(x))
    rays = []
    for sub in combinations(range(m), n - 1):
        # a kernel vector of the (n-1) x n subsystem, via Cramer-style cofactors
        M = [rows[i] for i in sub]
        d = []
        for j in range(n):
            minor = [[r[k] for k in range(n) if k != j] for r in M]
            d.append((-1) ** j * _det(minor))
        if any(d):
            for s in (1, -1):
                v = [s * x for x in d]
                if all(dot(a, v) >= 0 for a in rows):
                    rays.append(v)
    return sorted(verts), rays


def _det(M):
    n = len(M)
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def check_embedding(doc, rows, offsets) -> None:
    """An embed/realize report: the input rows come first, the weights resolve
    the identity, no added row cuts the polyhedron, and the library's own
    verify_embedding accepts the embedding rebuilt from the report."""
    from orthants.context import EXACT
    from orthants.matrix import Mat
    from orthants.realize import Embedding, verify_embedding

    n, m = len(rows[0]), len(rows)
    ext = [tuple(Fraction(x) for x in r["a"]) for r in doc["rows"]]
    ext_b = [Fraction(r["b"]) for r in doc["rows"]]
    t = [Fraction(x) for x in doc["t"]]
    require(doc["source_dim"] == n and doc["target_dim"] == len(ext) == len(t),
            "embedding dimensions")
    require(ext[:m] == [tuple(a) for a in rows] and ext_b[:m] == list(offsets),
            "embedding does not start with the input rows")
    if doc["command"] == "embed":
        require(len(ext) == m, "embed added rows")
    check_witness(ext, t)
    verts, rays = vertices_and_rays(rows, offsets)
    for a, b in zip(ext[m:], ext_b[m:]):
        require(all(dot(a, v) >= b for v in verts) and all(dot(a, r) >= 0 for r in rays),
                "an added row cuts the polyhedron")
    rebuilt = Embedding(n, len(ext), tuple(t), Mat.from_rows(ext, EXACT), tuple(ext_b))
    require(verify_embedding(rebuilt, verts), "verify_embedding rejects the rebuilt embedding")


def _halfspace(a, b):
    lead = abs(next(x for x in a if x != 0))
    return tuple(x / lead for x in a), b / lead


def check_minimal(reduced_text, minimal) -> None:
    """remove_redundant gave back exactly the base halfspaces."""
    rows, offs = rows_of(reduced_text)
    got = sorted(_halfspace(a, b) for a, b in zip(rows, offs))
    want = sorted(_halfspace(a, b) for a, b in minimal)
    require(got == want, "redundancy removal did not return the base system")


def check_decompose(doc, canon_rows, verdict) -> None:
    orthant = doc["verdict"] == "Orthant"
    require(orthant == (verdict == "Positive"), "decompose verdict differs from is-orthant")
    if not orthant:
        require(doc["verdict"] == "NotOrthant" and doc["subsets"] == [], "NotOrthant report")
        return
    Q, _ = weighting_system(canon_rows)
    full = rank(Q)
    union = set()
    for subset, w in zip(doc["subsets"], doc["witnesses"]):
        sub_rows = [canon_rows[i] for i in subset]
        check_witness(sub_rows, [Fraction(x) for x in w])
        require(rank([[q[i] for i in subset] for q in Q]) == len(subset), "subset is not basic")
        union.update(subset)
    union_rank = rank([[q[i] for i in sorted(union)] for q in Q])
    require(doc["union_rank"] == union_rank == full, "decomposition does not reach full rank")


def digest(verdicts) -> str:
    """Order-sensitive digest of (input name, verdict) pairs."""
    text = "\n".join(f"{name} {v}" for name, v in verdicts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
