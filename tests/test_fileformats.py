"""The text formats: byte-identical round trips on both backends, and a
ParseError (never a traceback) from every reader on malformed files."""

import json
from fractions import Fraction

import pytest

from orthants import Polyhedron
from orthants.cones import GramMatrix
from orthants.context import EXACT, FLOAT
from orthants.errors import ParseError
from orthants.fileformats import (
    factor_from_text,
    gram_from_text,
    metric_from_text,
    polyhedron_from_text,
    polyhedron_to_text,
)
from orthants.simplices import SimplexMetric

THIRD = {EXACT: Fraction(1, 3), FLOAT: 1 / 3}
TINY = {EXACT: Fraction(1, 10**300), FLOAT: 1e-300}
HUGE = {EXACT: Fraction(10**300, 7), FLOAT: 1e300 / 7}
BACKENDS = pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])


def round_trip(obj, write, read, ctx):
    """write -> read -> write is a fixed point, and every scalar survives exactly."""
    text = write(obj)
    back = read(text)
    assert back.ctx == ctx
    assert write(back) == text
    assert write(read(text, ctx)) == text
    return text


@BACKENDS
def test_polyhedron_round_trip(ctx):
    rows = [[1, THIRD[ctx]], [TINY[ctx], -1], [-HUGE[ctx], 2]]
    offsets = [TINY[ctx], -THIRD[ctx], HUGE[ctx]]
    P = Polyhedron.from_rows(rows, offsets, ctx)
    text = round_trip(P, polyhedron_to_text, polyhedron_from_text, ctx)
    back = polyhedron_from_text(text)
    assert [list(r) for r in back.A.data] == [list(r) for r in P.A.data]
    assert list(back.b) == list(P.b)
    assert json.loads(text)["backend"] == ctx.backend


@BACKENDS
def test_metric_round_trip(ctx):
    """Metric JSON written here reads back entry for entry, on both backends."""
    third, huge = THIRD[ctx], HUGE[ctx]
    d2 = [[0, third, huge], [third, 0, 2], [huge, 2, 0]]
    flat = [ctx.format(ctx.coerce(x)) for row in d2 for x in row]
    text = json.dumps({"dim": 2, "backend": ctx.backend, "d2": flat})
    for back in (metric_from_text(text), metric_from_text(text, ctx)):
        assert back.ctx == ctx and back.n == 2
        assert [ctx.format(back.entry(i, j)) for i in range(3) for j in range(3)] == flat
        assert back == SimplexMetric.from_squared_distances(d2, ctx)


@BACKENDS
def test_gram_round_trip(ctx):
    """Gram JSON written here reads back entry for entry, on both backends."""
    third, tiny = THIRD[ctx], TINY[ctx]
    rows = [[1, tiny, -third], [tiny, third, 0], [-third, 0, HUGE[ctx]]]
    flat = [ctx.format(ctx.coerce(x)) for row in rows for x in row]
    text = json.dumps({"m": 3, "backend": ctx.backend, "g": flat})
    for back in (gram_from_text(text), gram_from_text(text, ctx)):
        assert back.ctx == ctx and back.m == 3
        assert back.G.data == GramMatrix.from_rows(rows, ctx).G.data


POLY = {"dim": 2, "rows": [{"a": ["1", "0"], "b": "0"}, {"a": ["0", "1"], "b": "0"}]}
METRIC = {"dim": 1, "d2": ["0", "1", "1", "0"]}
GRAM = {"m": 2, "g": ["1", "0", "0", "1"]}
FACTOR = {"rows": 2, "cols": 1, "b": ["1", "2"], "sq_scale": "1"}


def edited(doc, path, value):
    """A deep copy of doc with the entry at path replaced, or deleted when
    value is None."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


MALFORMED = [
    (polyhedron_from_text, POLY, ("rows",), None),
    (polyhedron_from_text, POLY, ("rows", 1, "b"), None),
    (polyhedron_from_text, POLY, ("rows", 0, "a"), ["1"]),
    (polyhedron_from_text, POLY, ("dim",), "two"),
    (polyhedron_from_text, POLY, ("rows", 0, "a", 0), "x"),
    (polyhedron_from_text, POLY, ("rows", 1, "b"), "1/0"),
    (polyhedron_from_text, POLY, ("rows", 1, "b"), 0),
    (metric_from_text, METRIC, ("d2",), None),
    (metric_from_text, METRIC, ("dim",), None),
    (metric_from_text, METRIC, ("d2",), ["0", "1", "1"]),
    (metric_from_text, METRIC, ("d2", 1), "one"),
    (gram_from_text, GRAM, ("g",), None),
    (gram_from_text, GRAM, ("m",), None),
    (gram_from_text, GRAM, ("g",), ["1", "0", "0", "1", "0"]),
    (gram_from_text, GRAM, ("g", 0), "1e"),
    (factor_from_text, FACTOR, ("cols",), None),
    (factor_from_text, FACTOR, ("b",), None),
    (factor_from_text, FACTOR, ("b",), ["1"]),
    (factor_from_text, FACTOR, ("b", 1), "--2"),
    (factor_from_text, FACTOR, ("sq_scale",), "1/0"),
]


@BACKENDS
@pytest.mark.parametrize(
    "reader, doc, path, value", MALFORMED,
    ids=[f"{r.__name__}-{'.'.join(map(str, p))}-{v!r}" for r, _, p, v in MALFORMED],
)
def test_readers_raise_parse_error(reader, doc, path, value, ctx):
    reader(json.dumps(doc), ctx)
    with pytest.raises(ParseError):
        reader(edited(doc, path, value), ctx)


@pytest.mark.parametrize("reader", [polyhedron_from_text, metric_from_text,
                                    gram_from_text, factor_from_text])
@pytest.mark.parametrize("text", ["", "[1, 2]", '{"dim": 1', '{"backend": "quad"}'])
def test_readers_refuse_what_is_not_a_document(reader, text):
    with pytest.raises(ParseError):
        reader(text)
