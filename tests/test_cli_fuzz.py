"""The CLI contract under generated input: every file-reading subcommand and
``gen``, on both backends, answers with exit code 0, 1 or 2 and raises
nothing; exit 2 leaves stdout empty and writes one ``error:`` line to stderr.

A generated document is well formed, or has one defect: a bad or huge
scalar literal or a JSON value that is no string, a missing key, a bad dimension,
a stray ``"backend"`` field, or text that is no JSON object.  A generated
``gen`` call has a size up to 4 or a malformed one, or simplex intercepts
that are positive, malformed, or so large that their squares leave float
range."""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orthants import cli  # noqa: E402

SCALARS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-3/4", "2/3", "0.5", "-1.25", "1e-3", "7"]),
)
POSITIVE = st.sampled_from(["1", "2", "3", "1/2", "5/4", "0.25"])
BAD_SCALARS = st.one_of(
    st.sampled_from(["", "x", "1/0", "nan", "inf", "-inf", "1e400", "--1", "0x10", "1 2",
                     "1e999999999", "-1e4300", "1e2200"]),
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=True),
    st.just([]), st.just({}),
)
BAD_SIZES = st.sampled_from([-1, 0, 4, "2", 2.5, None, "x", [2], True])
NOT_AN_OBJECT = st.sampled_from(["", "{", "[]", "3", '"x"', "null", "{}"])
HUGE = st.sampled_from(["2e200", "3e200", "5e200", "1e300", "-2e200", "1e-200"])


def leaves(doc, path=()):
    """Paths to every scalar string, list or dict below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))


def put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is KeyError:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@st.composite
def spoiled(draw, doc, size_key):
    """``doc`` as text: well formed in six draws of eleven, else with one defect."""
    defect = draw(st.sampled_from(["none"] * 6 + ["scalar", "key", "size", "backend", "text"]))
    paths = list(leaves(doc))
    if defect == "scalar" and paths:
        put(doc, draw(st.sampled_from(paths)), draw(BAD_SCALARS))
    elif defect == "key":
        keyed = [p for p in paths if isinstance(p[-1], str)]
        put(doc, draw(st.sampled_from(keyed)), KeyError)
    elif defect == "size":
        doc[size_key] = draw(BAD_SIZES)
    elif defect == "backend":
        doc["backend"] = draw(st.sampled_from(["exact", "float", "quad", 1]))
    elif defect == "text":
        return draw(NOT_AN_OBJECT)
    return json.dumps(doc)


def vectors(length, entries=SCALARS):
    return st.lists(entries, min_size=length, max_size=length)


@st.composite
def polyhedron_documents(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.fixed_dictionaries({"a": vectors(dim), "b": SCALARS}),
                         min_size=1, max_size=6))
    return draw(spoiled({"dim": dim, "rows": rows}, "dim"))


def symmetric(k, off_diagonal, diagonal):
    """A symmetric k x k matrix, row-major, as scalar strings."""
    @st.composite
    def build(draw):
        upper = {(i, j): draw(off_diagonal) for i in range(k) for j in range(i + 1, k)}
        diag = [draw(diagonal) for _ in range(k)]
        return [diag[i] if i == j else upper[min(i, j), max(i, j)]
                for i in range(k) for j in range(k)]
    return build()


@st.composite
def metric_documents(draw):
    n = draw(st.integers(1, 3))
    d2 = draw(symmetric(n + 1, POSITIVE, st.just("0")))
    return draw(spoiled({"dim": n, "d2": d2}, "dim"))


@st.composite
def gram_documents(draw):
    m = draw(st.integers(1, 3))
    g = draw(symmetric(m, SCALARS, POSITIVE))
    return m, draw(spoiled({"m": m, "g": g}, "m"))


@st.composite
def factor_documents(draw, m):
    cols = draw(st.integers(1, 3))
    b = draw(vectors(m * cols, st.sampled_from(["0", "1", "2", "1/2"])))
    doc = {"rows": m, "cols": cols, "b": b}
    if draw(st.booleans()):
        doc["sq_scale"] = draw(POSITIVE)
    return draw(spoiled(doc, "cols"))


POLYHEDRON_COMMANDS = ["is-orthant", "rank", "reduce", "classify2d", "decompose", "embed",
                       "realize"]


@st.composite
def calls(draw):
    """(argv, stdin, factor text or None) for one file-reading subcommand."""
    argv = ["--backend", draw(st.sampled_from(["exact", "float"]))]
    argv += draw(st.sampled_from([[], ["--dump-bang"], ["--affine"]]))
    command = draw(st.sampled_from(POLYHEDRON_COMMANDS + ["simplex", "cone"]))
    factor = None
    if command == "simplex":
        text = draw(metric_documents())
    elif command == "cone":
        m, text = draw(gram_documents())
        factor = draw(st.none() | factor_documents(m))
    else:
        text = draw(polyhedron_documents())
    return argv + [command], text, factor


@st.composite
def gen_calls(draw):
    """argv of one ``gen`` call: one or two sizes for cube, cross and endgo,
    one to four intercepts for simplex."""
    argv = ["--backend", draw(st.sampled_from(["exact", "float"])), "gen"]
    kind = draw(st.sampled_from(["cube", "cross", "endgo", "simplex"]))
    if kind == "simplex":
        params = st.lists(st.one_of(POSITIVE, BAD_SCALARS.map(str), HUGE), min_size=1, max_size=4)
    else:
        params = st.lists(st.one_of(st.integers(1, 4), BAD_SIZES).map(str), min_size=1, max_size=2)
    return argv + [kind] + draw(params)


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@given(calls())
@settings(max_examples=1000, deadline=None)
def test_generated_documents_keep_the_cli_contract(call):
    argv, text, factor = call
    with tempfile.TemporaryDirectory() as tmp:
        if factor is not None:
            path = os.path.join(tmp, "factor.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(factor)
            argv = argv + ["--cp", path]
        code, out, err = run(argv + ["-"], text)
    assert_contract(code, out, err)


@given(gen_calls())
@settings(max_examples=500, deadline=None)
def test_generator_calls_keep_the_cli_contract(argv):
    assert_contract(*run(argv, ""))


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        assert out.endswith("\n") and not err.startswith("error: ")
