"""The benchmark's own tests: python3 -m pytest -p no:cacheprovider benchmarks/selftest.py

Kept out of the repository's default test run: the file name does not
match pytest's test-file pattern, so it runs only when named.
"""

import copy
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import builder  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _texts(workload, seed):
    return [inst.text() for inst in builder.WORKLOADS[workload](seed)]


@pytest.mark.parametrize("workload", sorted(builder.WORKLOADS))
def test_seed_reproduces_inputs(workload):
    assert _texts(workload, 5) == _texts(workload, 5)
    assert _texts(workload, 5) != _texts(workload, 6)


@pytest.mark.parametrize("workload", sorted(builder.WORKLOADS))
def test_seed_keeps_what_decides_the_verdict(workload):
    """Names, planted flags and the set of facet directions do not depend
    on the seed; only row order, scale, translation and padding do."""

    def pinned(seed):
        out = []
        for x in builder.WORKLOADS[workload](seed):
            rows = [a for a, _ in x.minimal] if x.minimal else x.rows
            directions = [tuple(v / abs(next(c for c in a if c)) for v in a) for a in rows]
            out.append((x.name, x.planted, sorted(directions)))
        return out

    assert pinned(5) == pinned(6)


def test_builder_families_match_gen():
    assert run.self_check_families() is None


def _inst(workload, name):
    return next(i for i in builder.WORKLOADS[workload](1) if i.name == name)


def _proved(inst, out):
    return run.check_input("decide", inst, out)


def test_checker_accepts_and_rejects_tampered_witness():
    inst = _inst("decide", "cube3-cayley")
    out = run.answer_decide(inst)
    assert _proved(inst, out) == "Positive"
    doc = json.loads(out["is-orthant"][1])
    doc["witness"][0] = str(Fraction(doc["witness"][0]) + Fraction(1, 7))
    bad = dict(out, **{"is-orthant": (0, json.dumps(doc), "")})
    with pytest.raises(checker.CheckError):
        _proved(inst, bad)


@pytest.mark.parametrize("name", ["normals-3x4-0", "normals-3x6-0"])
def test_checker_rejects_tampered_certificate(name):
    inst = _inst("decide", name)
    out = run.answer_decide(inst)
    verdict = _proved(inst, out)
    assert verdict in ("NotPositive", "Inconsistent")
    doc = json.loads(out["is-orthant"][1])
    doc["certificate"] = [str(-Fraction(y)) for y in doc["certificate"]]
    with pytest.raises(checker.CheckError):
        _proved(inst, dict(out, **{"is-orthant": (1, json.dumps(doc), "")}))
    other = "Inconsistent" if verdict == "NotPositive" else "NotPositive"
    doc = json.loads(out["is-orthant"][1])
    doc["verdict"] = other
    with pytest.raises(checker.CheckError):
        _proved(inst, dict(out, **{"is-orthant": (1, json.dumps(doc), "")}))


def test_checker_rejects_tampered_embedding():
    inst = _inst("realize", "cube2-cayley")
    out = run.answer_realize(inst)
    assert run.check_input("realize", inst, out) == "Positive"
    doc = json.loads(out["realize"][1])
    m = len(inst.rows)
    # an added row pushed up until it cuts the polygon
    cut = copy.deepcopy(doc)
    cut["rows"][m]["b"] = str(Fraction(cut["rows"][m]["b"]) + 100)
    # a weight changed, so the Gram identity fails
    weight = copy.deepcopy(doc)
    weight["t"][0] = str(Fraction(weight["t"][0]) * 2)
    for bad in (cut, weight):
        with pytest.raises(checker.CheckError):
            run.check_input("realize", inst, dict(out, realize=(0, json.dumps(bad), "")))


def test_checker_rejects_wrong_redundancy_removal():
    inst = _inst("decompose", "cube3")
    out = run.answer_decompose(inst)
    assert run.check_input("decompose", inst, out) == "Positive"
    rows, offs = checker.rows_of(out["remove_redundant"][1])
    loose = builder.polyhedron_text(rows, [offs[0] - 1] + list(offs[1:]))
    with pytest.raises(checker.CheckError):
        run.check_input("decompose", inst, dict(out, remove_redundant=(0, loose, "")))


@pytest.mark.parametrize("workload,name", [
    ("decide", "cross3-cayley"), ("decide", "normals-2x5-0"),
    ("realize", "shear-2-0"), ("realize", "cube3"), ("decompose", "endgo2-perm"),
])
def test_tracing_adds_no_bytes_to_stdout(workload, name):
    import orthants.matrix

    inst = _inst(workload, name)
    plain = run.ANSWER[workload](inst)
    original = orthants.matrix.rank
    tracer = Tracer()
    with tracer:
        assert orthants.matrix.rank is not original
        traced = run.ANSWER[workload](inst)
    assert orthants.matrix.rank is original
    assert run.stable(traced) == run.stable(plain)
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert min(tracer.self_ms()) > -1e-6
