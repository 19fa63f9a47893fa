"""The command line as a user runs it: exit codes, stdout JSON, stderr errors."""

import ast
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import cycle

import pytest

from conftest import (
    cayley, rational_rotation, rotated, seeded_grams, seeded_intercepts, seeded_metrics, shear,
)
from oracles import rref_rank
from orthants import (
    Embedding,
    Mat,
    Polyhedron,
    build,
    cli,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    lp,
    verify_embedding,
)
from orthants.context import EXACT
from orthants.errors import ParseError
from orthants.fileformats import bang_to_doc, polyhedron_to_text
from orthants.frames import system_from_primitive
from orthants.hedgehogs import reduce as reduce_hedgehog

FAMILIES = {
    "cube": generate_cube, "cross": generate_cross_polytope, "endgo": generate_max_rank_orthant,
}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def orthants(*argv, stdin=""):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "orthants.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(monkeypatch, capsys, *argv, stdin=""):
    """Run the CLI in this interpreter: (exit code, stdout)."""
    return in_process_streams(monkeypatch, capsys, *argv, stdin=stdin)[:2]


def in_process_streams(monkeypatch, capsys, *argv, stdin=""):
    """Run the CLI in this interpreter: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rotated_text(kind, n, seed):
    """A family member turned by a rational Cayley rotation, as input text."""
    P = FAMILIES[kind](n)
    R = rational_rotation(random.Random(seed), n)
    rows = [R.matvec(P.A.row(i)) for i in range(P.nfacets)]
    return polyhedron_to_text(Polyhedron.from_rows(rows, P.b, EXACT))


# endgo 5 under rotation seed 6 is an input whose float guess ends at a basis
# whose exact point has a negative entry, so its LP is answered by the exact
# Bland route
FALLBACK_INPUT = ("endgo", 5, 6)


@pytest.mark.parametrize(
    "kind, n, seed",
    [("cube", 3, 1), ("cross", 3, 2), ("endgo", 3, 3), ("endgo", 5, 2), FALLBACK_INPUT],
)
def test_is_orthant_stdout_is_byte_stable_on_rotated_inputs(kind, n, seed):
    text = rotated_text(kind, n, seed)
    first = orthants("is-orthant", "-", stdin=text)
    second = orthants("is-orthant", "-", stdin=text)
    assert first[0] == 0, first[2]
    assert first[1] == second[1]
    assert json.loads(first[1])["verdict"] == "Positive"


def counted_bland(monkeypatch):
    """The argument tuples of every exact Bland run from now on."""
    bland = lp._bland_simplex
    runs = []

    def counted(*args):
        runs.append(args)
        return bland(*args)

    monkeypatch.setattr(lp, "_bland_simplex", counted)
    return runs


def test_rotated_endgo5_takes_the_bland_fallback(monkeypatch, capsys):
    runs = counted_bland(monkeypatch)
    text = rotated_text(*FALLBACK_INPUT)
    code, out = in_process(monkeypatch, capsys, "is-orthant", "-", stdin=text)
    assert code == 0 and len(runs) == 1
    assert out == orthants("is-orthant", "-", stdin=text)[1]


@pytest.mark.parametrize("command", ["is-orthant", "realize", "decompose"])
def test_every_rejected_guess_is_answered_by_the_bland_route(command, monkeypatch, capsys):
    # the guess runs, but its status is refused by the proof, so every LP of
    # the command goes through the exact Bland route end to end
    guess = lp._float_guess
    guesses = []

    def rejected(A, b, c):
        guesses.append(c)
        return ("stopped", *guess(A, b, c)[1:])

    for args in [("cube", 3, 1), ("cross", 4, 2), FALLBACK_INPUT]:
        text = rotated_text(*args)
        code, out = in_process(monkeypatch, capsys, command, "-", stdin=text)
        with monkeypatch.context() as m:
            m.setattr(lp, "_float_guess", rejected)
            runs = counted_bland(m)
            guesses.clear()
            fallback_code, fallback_out = in_process(monkeypatch, capsys, command, "-", stdin=text)
        assert len(runs) == len(guesses) > 0, args
        doc, fallback = json.loads(out), json.loads(fallback_out)
        assert fallback_code == code == 0 and fallback.get("verdict") == doc.get("verdict"), args
        if command == "realize":
            assert fallback["target_dim"] == doc["target_dim"]
            assert verify_embedding(embedding_from_report(fallback)), args


def test_cross8_is_orthant_needs_no_bland_run(monkeypatch, capsys):
    # Bland pricing stalled on this degenerate weighting LP for seconds; the
    # guess prices by Dantzig's rule and its basis is proved at once
    runs = counted_bland(monkeypatch)
    _, text = in_process(monkeypatch, capsys, "gen", "cross", "8")
    code, out = in_process(monkeypatch, capsys, "is-orthant", "-", stdin=text)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "Positive" and not runs
    _, canonical = reduce_hedgehog(generate_cross_polytope(8))
    system = system_from_primitive(canonical.primitive_rows, EXACT)
    witness = tuple(Fraction(v) for v in doc["witness"])
    assert lp.verify_outcome(system, lp.PositivityOutcome("Positive", "exact", witness_t=witness))


def test_verdicts_and_ranks_match_the_exact_route(monkeypatch, capsys):
    def no_guess(A, b, c):
        raise OverflowError("no float guess")

    for kind, gen in FAMILIES.items():
        for n in range(2, 7):
            P = gen(n)
            text = polyhedron_to_text(P)
            code, out = in_process(monkeypatch, capsys, "is-orthant", "-", stdin=text)
            verdict = json.loads(out)["verdict"]
            with monkeypatch.context() as m:
                m.setattr(lp, "_float_guess", no_guess)
                expected = lp.decide_positive(build(reduce_hedgehog(P)[1])).verdict
            assert verdict == expected == "Positive" and code == 0, (kind, n)
            _, out = in_process(monkeypatch, capsys, "rank", "-", stdin=text)
            doc = json.loads(out)
            B = build(P)
            assert doc["rank"] == rref_rank(B.Q.data), (kind, n)
            assert doc["consistent"] is True
            _, out = in_process(monkeypatch, capsys, "--dump-bang", "rank", "-", stdin=text)
            dumped = json.loads(out)
            assert dumped.pop("bang") == json.loads(json.dumps(bang_to_doc(B)))
            assert dumped == doc


def test_decompose_endgo4_beyond_twelve_needles():
    code, text, _ = orthants("gen", "endgo", "4")
    assert code == 0
    code, out, err = orthants("decompose", "-", stdin=text)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] == "Orthant"
    assert doc["union_rank"] == 10


@pytest.mark.parametrize("command, target", [("embed", 14), ("realize", 56)])
def test_cube7_beyond_the_ray_guard(command, target):
    code, text, _ = orthants("gen", "cube", "7")
    assert code == 0
    code, out, err = orthants(command, "-", stdin=text)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["target_dim"] == target
    assert "mapped_vertices" not in doc


def test_realize_endgo3_stdout_is_byte_stable():
    _, text, _ = orthants("gen", "endgo", "3")
    first = orthants("realize", "-", stdin=text)
    second = orthants("realize", "-", stdin=text)
    assert first[0] == 0 and first[1] == second[1]
    doc = json.loads(first[1])
    assert doc["target_dim"] == 24
    assert "mapped_vertices" not in doc


def test_realize_endgo5_stdout_is_byte_stable():
    _, text, _ = orthants("gen", "endgo", "5")
    first = orthants("realize", "-", stdin=text)
    second = orthants("realize", "-", stdin=text)
    assert first[0] == 0 and first[1] == second[1]
    assert json.loads(first[1])["target_dim"] == 75


def test_realize_endgo7_beyond_the_ray_guard():
    # the recession cone is tested by Farkas LPs, so no ray is enumerated
    _, text, _ = orthants("gen", "endgo", "7")
    code, out, err = orthants("realize", "-", stdin=text)
    assert code == 0, err
    assert json.loads(out)["target_dim"] == 154


QUADRANT = '{"dim": 2, "rows": [{"a": ["1", "0"], "b": "0"}, {"a": ["0", "1"], "b": "0"}]}'
# a ray whose offset has 4301 digits, and a triangle whose realize offsets pass
# Python's 4300-digit limit on printing an integer
HUGE_RAY = '{"dim": 1, "rows": [{"a": ["1"], "b": "0"}, {"a": ["-1"], "b": "-1e4300"}]}'
HUGE_TRIANGLE = json.dumps({"dim": 2, "rows": [
    {"a": ["1e2200", "0"], "b": "0"}, {"a": ["0", "1e2200"], "b": "0"},
    {"a": ["-1e2200", "-1e2200"], "b": "-1e2200"},
]})


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["is-orthant", "-"], '{"dim": "x", "rows": [{"a": ["1", "0"], "b": "0"}]}'),
        (["is-orthant", "-"], '{"dim": 2, "rows": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}]}'),
        (
            ["--backend", "float", "is-orthant", "-"],
            '{"dim": 2, "rows": [{"a": ["1e400", "0"], "b": "0"}, {"a": ["0", "1"], "b": "0"}]}',
        ),
        (["gen", "cube", "x"], ""),
        (["gen", "cross", "1.5"], ""),
        (["gen", "endgo", ""], ""),
        (["gen", "cube", "2", "3"], ""),
        (["gen", "endgo", "3", "1"], ""),
        (["gen", "cube", "100000000"], ""),
        (["gen", "cross", "40"], ""),
        (["embed", "-"], HUGE_RAY),
        (["realize", "-"], HUGE_RAY),
        (["realize", "-"], HUGE_TRIANGLE),
        (["is-orthant", "-"], HUGE_RAY.replace("1e4300", "1e999999999")),
    ] + [
        (["--backend", "float", "--tol", tol, "is-orthant", "-"], QUADRANT)
        for tol in ("0", "-1", "nan", "inf")
    ],
    ids=[
        "dim-not-an-integer", "numbers-for-scalars", "float-overflow",
        "gen-cube-x", "gen-cross-1.5", "gen-endgo-empty",
        "gen-cube-2-3", "gen-endgo-3-1", "gen-cube-1e8", "gen-cross-40",
        "embed-huge-offset", "realize-huge-offset", "realize-huge-triangle",
        "huge-exponent", "tol-0", "tol-negative", "tol-nan",
        "tol-inf",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, doc):
    code, out, err = orthants(*argv, stdin=doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err
    if "--tol" in argv:
        assert err.startswith("error: --tol ")
    if "1e999999999" in doc:
        assert "exponent beyond 4300" in err
    elif "e2200" in doc or "e4300" in doc:
        assert "4300 digits" in err


@pytest.mark.parametrize("kind, size", [("cube", "100000000"), ("cross", "40")])
def test_gen_refuses_oversized_systems_before_building(kind, size, monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a generator ran")

    for name in ("generate_cube", "generate_cross_polytope", "generate_max_rank_orthant"):
        monkeypatch.setattr(cli, name, refused)
    assert cli.main(["gen", kind, size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: gen {kind} {size} exceeds the size cap")


def test_gen_size_cap_follows_the_closed_form_row_counts():
    # rows x dim: 2n * n for cube, 2^n * n for cross, n(3n - 1)/2 * n for endgo
    for kind, largest in (("cube", 724), ("cross", 16), ("endgo", 88)):
        assert [cli._GEN_ROWS[kind](n) for n in range(1, 6)] == [
            FAMILIES[kind](n).nfacets for n in range(1, 6)
        ]
        assert cli._size(kind, [str(largest)]) == largest
        with pytest.raises(ParseError, match="size cap"):
            cli._size(kind, [str(largest + 1)])


def test_the_shared_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    cube = polyhedron_to_text(generate_cube(2))
    endgo = polyhedron_to_text(generate_max_rank_orthant(3))
    # needles at 0, 45 and 90 degrees span only a quarter turn: not orthant
    corner = polyhedron_to_text(Polyhedron.from_rows([[1, 0], [1, 1], [0, 1]], [0, -1, 0], EXACT))
    calls = [
        (["is-orthant", "-"], cube),
        (["--backend", "float", "is-orthant", "-"], cube),
        (["rank", "-"], endgo),
        (["--backend", "float", "--tol", "1e-6", "rank", "-"], endgo),
        (["is-orthant", "-"], corner),
        (["--dump-bang", "is-orthant", "-"], cube),
        (["is-orthant", "-"], cube),
        (["--dump-bang", "rank", "-"], endgo),
        (["rank", "-"], endgo),
        (["--affine", "embed", "-"], cube),
        (["embed", "-"], cube),
        (["gen", "cube", "2"], ""),
        (["--backend", "quad", "rank", "-"], cube),
        (["rank", "-"], cube),
        (["embed", "-"], endgo),
    ]
    assert cli._parser() is cli._parser()
    codes = set()
    for argv, text in calls:
        alone = orthants(*argv, stdin=text)[:2]
        shared = in_process(monkeypatch, capsys, *argv, stdin=text)
        assert shared == alone, argv
        codes.add(shared[0])
        if "--dump-bang" not in argv and shared[1]:
            assert "bang" not in json.loads(shared[1]), argv
    assert codes == {0, 1, 2}


def test_the_backend_option_overrides_the_file(monkeypatch, capsys):
    marked_float = json.dumps(dict(json.loads(QUADRANT), backend="float"))
    for command in ("is-orthant", "rank"):
        code, out = in_process(monkeypatch, capsys, command, "-", stdin=marked_float)
        assert code == 0 and json.loads(out)["backend"] == "exact", command
        _, out = in_process(monkeypatch, capsys, "--backend", "float", command, "-", stdin=marked_float)
        assert json.loads(out)["backend"] == "float", command


# One cheap call of every subcommand, in an interpreter without site-packages;
# prints the exit codes and the non-standard top-level modules it loaded.
EVERY_SUBCOMMAND = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from orthants import cli
SQUARE = %r
CALLS = [
    (["is-orthant", "-"], SQUARE), (["rank", "-"], SQUARE), (["reduce", "-"], SQUARE),
    (["classify2d", "-"], SQUARE), (["decompose", "-"], SQUARE),
    (["embed", "-"], SQUARE), (["realize", "-"], SQUARE), (["gen", "cube", "2"], ""),
    (["simplex", "-"], '{"dim": 2, "d2": ["0", "2", "2", "2", "0", "2", "2", "2", "0"]}'),
    (["cone", "-"], '{"m": 2, "g": ["1", "0", "0", "1"]}'),
]
codes = {}
for argv, text in CALLS:
    sys.stdin = io.StringIO(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes[argv[0]] = cli.main(argv)
loaded = {name.partition(".")[0] for name in sys.modules} - {"__main__", "orthants"}
print(json.dumps([codes, sorted(loaded - set(sys.stdlib_module_names))]))
""" % polyhedron_to_text(generate_cube(2))


def test_every_subcommand_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", EVERY_SUBCOMMAND],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, foreign = json.loads(proc.stdout)
    assert set(codes) == set(cli._parser()._subparsers._group_actions[0].choices)
    assert set(codes.values()) == {0}, codes
    assert foreign == []


# -- the contract that cli.main owns ----------------------------------------------

SQUARE = polyhedron_to_text(generate_cube(2))
# needles at 0, 45 and 90 degrees span only a quarter turn: not orthant
CORNER = polyhedron_to_text(Polyhedron.from_rows([[1, 0], [1, 1], [0, 1]], [0, -1, 0], EXACT))
METRIC = '{"dim": 2, "d2": ["0", "2", "2", "2", "0", "2", "2", "2", "0"]}'
GRAM = '{"m": 2, "g": ["1", "0", "0", "1"]}'


@pytest.mark.parametrize(
    "argv, stdin, code, summary",
    [
        (["is-orthant", "-"], SQUARE, 0, "is-orthant: Positive"),
        (["is-orthant", "-"], CORNER, 1, "is-orthant: NotPositive"),
        (["rank", "-"], SQUARE, 0, "rank 2, consistent=True"),
        (["reduce", "-"], SQUARE, 0, "reduced to 2 needles"),
        (["classify2d", "-"], SQUARE, 0, "classify2d: OrthantDegenerate"),
        (["simplex", "-"], METRIC, 0, "simplex: OrthantAcuteOrthocentric"),
        (["decompose", "-"], SQUARE, 0, "decompose: Orthant"),
        (["embed", "-"], SQUARE, 0, "embed into dimension 4"),
        (["realize", "-"], SQUARE, 0, "realized in dimension 6"),
        (["gen", "cube", "2"], "", 0, "generated cube with 4 facets"),
        (["cone", "-"], GRAM, 0, "cone: dnn=True"),
    ],
    ids=["is-orthant-yes", "is-orthant-no", "rank", "reduce", "classify2d", "simplex",
         "decompose", "embed", "realize", "gen", "cone"],
)
def test_success_writes_the_report_and_one_timed_summary_line(
    argv, stdin, code, summary, monkeypatch, capsys
):
    got, out, err = in_process_streams(monkeypatch, capsys, *argv, stdin=stdin)
    assert got == code
    assert out.endswith("\n")
    if argv[0] not in ("reduce", "gen"):
        assert json.loads(out)["command"] == argv[0]
    assert re.fullmatch(re.escape(summary) + r"  \[\d+\.\d ms\]\n", err), err


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["is-orthant", "-"], "not structured text"),
        (["rank", "MISSING"], ""),
        (["reduce", "-"], '{"dim": 2, "rows": [{"a": ["0", "0"], "b": "0"}]}'),
        (["classify2d", "-"], polyhedron_to_text(generate_cube(3))),
        (["simplex", "-"], '{"dim": 2, "d2": ["0", "1"]}'),
        (["decompose", "-"], '{"dim": 2, "rows": [{"a": ["1", "0"], "b": "0"}]}'),
        (["embed", "-"], CORNER),
        (["realize", "-"], "[]"),
        (["gen", "cube", "x"], ""),
        (["cone", "--cp", "MISSING", "-"], GRAM),
        (["--backend", "float", "--tol", "0", "rank", "-"], SQUARE),
        (["gen", "cube"], ""),
        (["--backend", "quad", "rank", "-"], SQUARE),
        (["gen", "simplex", "2e200", "3e200", "5e200"], ""),
    ],
    ids=["not-json", "missing-file", "zero-row", "classify2d-3d", "short-metric",
         "degenerate", "embed-not-orthant", "not-an-object", "gen-size-x",
         "missing-factor", "tol-0", "gen-no-size", "backend-quad", "gen-simplex-overflow"],
)
def test_failure_leaves_stdout_empty_and_writes_one_error_line(
    argv, stdin, monkeypatch, capsys, tmp_path
):
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    code, out, err = in_process_streams(monkeypatch, capsys, *argv, stdin=stdin)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize(
    "argv, stdin, stage",
    [
        (["gen", "simplex", "2e200", "3e200", "5e200"], "", "squared distances"),
        (["simplex", "-"],
         json.dumps({"dim": 2, "d2": ["0" if i == j else "1e308" for i in range(3) for j in range(3)]}),
         "edge Gram matrix at vertex 0"),
    ],
    ids=["gen-simplex-squares", "triangle-gram"],
)
def test_float_overflow_in_a_metric_names_float_range(argv, stdin, stage, monkeypatch, capsys):
    # 2e200 squared and 1e308 + 1e308 are inf: the stage that overflowed is
    # named, not a symmetry or realizability test that inf - inf failed
    code, out, err = in_process_streams(monkeypatch, capsys, "--backend", "float", *argv, stdin=stdin)
    assert code == 2 and out == ""
    assert err == f"error: {stage}: an entry exceeds float range\n"


def test_float_simplex_test_compares_squared_lengths_with_tol(monkeypatch, capsys):
    # a regular tetrahedron with squared edge 10^-4, and the simplex on four
    # intercepts of 0.01: their LDL^T pivots are near 10^-4, far above tol,
    # though a Cayley-Menger determinant of four vertices is near 10^-12
    d2 = ["0" if i == j else "1e-4" for i in range(4) for j in range(4)]
    tiny = json.dumps({"dim": 3, "d2": d2})
    code, out = in_process(monkeypatch, capsys, "--backend", "float", "simplex", "-", stdin=tiny)
    assert code == 0
    assert json.loads(out) == {"command": "simplex", "backend": "float",
                               "verdict": "OrthantAcuteOrthocentric", "x": ["5e-05"] * 4}
    code, out = in_process(monkeypatch, capsys, "--backend", "float", "gen", "simplex",
                           "0.01", "0.01", "0.01", "0.01")
    assert code == 0 and json.loads(out)["dim"] == 3 and len(json.loads(out)["rows"]) == 4


def test_only_cli_main_writes_to_the_standard_streams():
    # a print or stream write anywhere else would bypass the one owner of
    # stdout, stderr and the exit code
    def writes(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Name):
            return f.id == "print"
        return (
            isinstance(f, ast.Attribute) and f.attr == "write"
            and isinstance(f.value, ast.Attribute) and f.value.attr in ("stdout", "stderr")
            and isinstance(f.value.value, ast.Name) and f.value.value.id == "sys"
        )

    package = os.path.join(SRC, "orthants")
    found, owner = [], None
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if name == "cli.py":
            owner = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        allowed = {id(n) for n in ast.walk(owner)} if name == "cli.py" else set()
        found += [(name, n.lineno) for n in ast.walk(tree) if writes(n) and id(n) not in allowed]
    assert owner is not None and any(writes(n) for n in ast.walk(owner))
    assert found == []


# x >= 1 and -x >= 0 leave no point, and the unit square has the same normals
EMPTY = polyhedron_to_text(
    Polyhedron.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 0, -1], EXACT)
)
UNIT_SQUARE = polyhedron_to_text(
    Polyhedron.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -1, 0, -1], EXACT)
)


@pytest.mark.parametrize("command", ["is-orthant", "rank", "classify2d", "decompose"])
def test_facet_direction_commands_ignore_offsets_and_emptiness(command, monkeypatch, capsys):
    empty = in_process(monkeypatch, capsys, command, "-", stdin=EMPTY)
    square = in_process(monkeypatch, capsys, command, "-", stdin=UNIT_SQUARE)
    assert empty == square
    assert empty[0] == 0


def embedding_from_report(doc):
    """The Embedding that an embed or realize report describes."""
    rows = doc["rows"]
    return Embedding(
        doc["source_dim"], doc["target_dim"], tuple(Fraction(v) for v in doc["t"]),
        Mat.from_rows([r["a"] for r in rows], EXACT), tuple(Fraction(r["b"]) for r in rows),
        doc["affine"],
    )


@pytest.mark.parametrize("command", ["embed", "realize"])
def test_embed_and_realize_accept_the_empty_system(command, monkeypatch, capsys):
    # the Gram identity involves no offsets, so the map is still an isometry,
    # and the section is the image of P: empty on both sides
    code, out = in_process(monkeypatch, capsys, command, "-", stdin=EMPTY)
    _, square = in_process(monkeypatch, capsys, command, "-", stdin=UNIT_SQUARE)
    assert code == 0
    doc = json.loads(out)
    assert doc["target_dim"] == json.loads(square)["target_dim"]
    assert verify_embedding(embedding_from_report(doc))


# sha256 over "<name>\n<exit code>\n<stdout>" of every input of digest_inputs(),
# recorded before the LP proof moved to the structural block; a change that
# is meant to alter stdout updates these and says why
STDOUT_DIGESTS = {
    "is-orthant": "4b4a79a7ea3be037765d76f9a8a1833d2c1af2968dd48761ab02c93d47366426",
    "rank": "03300ca9a9d2d12bf2b8b6c091e48ff582cf91ff5420c870bbf8305c55353bfe",
    # re-recorded when the padded weighting t (and so scale_factors) came
    # in closed form instead of from an LP; rows and offsets are unchanged
    "realize": "bcd015c3eb3f86abf7e03d0ead4cad012f4db54102d5d42f769c1f914fec6c0e",
    "embed": "389fdde105672c76aa98f0bd889838cb66f8481d8df31baea0b6db4630b81231",
    "decompose": "10c5d2af7d130c0d121906ae0ab5d9d23487b5f2af73546da7ea0a775000952c",
    # recorded before the weighting system moved to integer columns
    "--dump-bang is-orthant": "0fa17b749e2d1246d6fd1bac09b658d7e75b3009a37c6ebe845237001e520b6f",
    "--dump-bang rank": "de945df36b306b499e39127bb5d7f5cd08418babe7a916dae053de6625b7ddf6",
    "classify2d": "a8f00a835a4f13a8ccdb7a7e084345aa5a15fc8809e72d4960ceea71ded9718a",
}
DIGEST_ROTATIONS = [("cube", 3, 1), ("cross", 4, 2), ("endgo", 5, 2)]


def digest_inputs():
    """(name, text): the gen families for n = 2..5, then three rotated copies."""
    inputs = [
        (f"{kind} {n}", polyhedron_to_text(gen(n)))
        for kind, gen in FAMILIES.items()
        for n in range(2, 6)
    ]
    return inputs + [(f"rot {args}", rotated_text(*args)) for args in DIGEST_ROTATIONS]


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_exact_stdout_and_exit_codes_match_their_digest(command, monkeypatch, capsys):
    h = hashlib.sha256()
    for name, text in digest_inputs():
        code, out = in_process(monkeypatch, capsys, *command.split(), "-", stdin=text)
        h.update(f"{name}\n{code}\n{out}".encode())
    assert h.hexdigest() == STDOUT_DIGESTS[command]


# the same digests for `--backend float`, recorded before reduce and
# remove_redundant moved to primitive integer rows
FLOAT_STDOUT_DIGESTS = {
    "is-orthant": "9601943257cafc44151fdc7f15a825faf33329aac4a317bc212dc017b8bc41ea",
    "rank": "01388e666455689e76d8bcaa46bf3ea3f04ef5208869272114fb5733ac7f54ed",
    "decompose": "afe1635e73963c9d2ab4e1a6ab872b575788633a3e1e9a959cabb20f8a965202",
    # re-recorded when the padded weighting t came in closed form
    "realize": "87cf769969fc1620d6cf8bbd2ecc78bacf356c5c9c9071e1489dec0423a83370",
}


@pytest.mark.parametrize("command", sorted(FLOAT_STDOUT_DIGESTS))
def test_float_stdout_and_exit_codes_match_their_digest(command, monkeypatch, capsys):
    h = hashlib.sha256()
    for name, text in digest_inputs():
        code, out = in_process(monkeypatch, capsys, "--backend", "float", command, "-", stdin=text)
        h.update(f"{name}\n{code}\n{out}".encode())
    assert h.hexdigest() == FLOAT_STDOUT_DIGESTS[command]


def flat_strings(rows):
    return [str(x) for row in rows for x in row]


def metric_command_inputs(command):
    """(name, argv tail, stdin) of ``simplex``, ``cone`` or ``gen simplex`` on
    the seeded metrics, Grams and intercepts of conftest."""
    if command == "simplex":
        return [(name, ["-"], json.dumps({"dim": len(d2) - 1, "d2": flat_strings(d2)}))
                for name, d2 in seeded_metrics()]
    if command == "cone":
        return [(name, ["-"], json.dumps({"m": len(G), "g": flat_strings(G)}))
                for name, G in seeded_grams()]
    return [(name, params, "") for name, params in seeded_intercepts()]


# sha256 over "<name>\n<exit code>\n<stdout>" of each command on every input of
# metric_command_inputs(), plus the error line on exit 2; recorded while the
# simplex test still read Cayley-Menger determinants
METRIC_STDOUT_DIGESTS = {
    "exact simplex": "182bfb2ece17f020b8257e7b70da29f76f641cc9cdbb364382adae2e98b36243",
    "float simplex": "05841ee787a1f511cb86cb9b54889e7a47db5faca7a632dec89abc457416b5ae",
    "exact cone": "8a11d5c7402d95fbe3a1f408f0f4d1e17638b383f24fdd41a7c758d3373b6cf1",
    "float cone": "7dd4bd4cd70dc8a291dd48a9267e5fdb8916450b97ffd61b638c9d947654166f",
    "exact gen simplex": "34c711620a0b93a1a8ccd2f32f5dcc1833bf02edb74f632ca5dfea8530758fdc",
    "float gen simplex": "a2cd609a576a4f127f65d0f0fea6607deaa4c10f2f6f42f2f3983dff99e84c60",
}


@pytest.mark.parametrize("command", sorted(METRIC_STDOUT_DIGESTS))
def test_metric_commands_match_their_digest(command, monkeypatch, capsys):
    backend, command_name = command.split(" ", 1)
    h = hashlib.sha256()
    for name, tail, text in metric_command_inputs(command_name):
        code, out, err = in_process_streams(
            monkeypatch, capsys, "--backend", backend, *command_name.split(), *tail, stdin=text
        )
        h.update(f"{name}\n{code}\n{out}".encode())
        if code == 2:
            h.update(err.splitlines()[0].encode())
    assert h.hexdigest() == METRIC_STDOUT_DIGESTS[command]


def unbounded_digest_inputs():
    """(name, text): shear(n) for n = 2..5, each turned by a random Cayley
    rotation (refused: its recession cone leaves the orthant) and by a small
    one, S_ij = (j - i) / 10n for i < j (realized through the Farkas LPs)."""
    inputs = []
    for n in range(2, 6):
        S = [[Fraction(j - i, 10 * n) for j in range(n)] for i in range(n)]
        R = rational_rotation(random.Random(n), n)
        copies = [("", shear(n)), (" random", rotated(shear(n), R)),
                  (" small", rotated(shear(n), cayley(S)))]
        inputs += [(f"shear {n}{kind}", polyhedron_to_text(P)) for kind, P in copies]
    return inputs


# sha256 over "<name>\n<exit code>\n<stdout>" of realize on every input of
# unbounded_digest_inputs(), plus the error line on exit 2, which prints the
# recession direction of the refused multiplier LP; recorded before the
# multiplier LPs read the primitive rows and realize checked them in integers
UNBOUNDED_REALIZE_DIGESTS = {
    # both re-recorded when the padded weighting t came in closed form
    # instead of from an LP; refusals, rows and offsets are unchanged
    "exact": "1cd91a70ce4b13ad1bc467e9b8c5f666ff94ce6aab4b657f5c88025f92e4b90d",
    "float": "fdf7c2a34ba3d549afed3256d7dff86e61598b8bbb6217bc010c1965bd91b8e7",
}


@pytest.mark.parametrize("backend", sorted(UNBOUNDED_REALIZE_DIGESTS))
def test_unbounded_realize_matches_its_digest(backend, monkeypatch, capsys):
    h, codes = hashlib.sha256(), []
    for name, text in unbounded_digest_inputs():
        code, out, err = in_process_streams(
            monkeypatch, capsys, "--backend", backend, "realize", "-", stdin=text
        )
        codes.append(code)
        h.update(f"{name}\n{code}\n{out}".encode())
        if code == 2:
            h.update(err.splitlines()[0].encode())
    assert sorted(set(codes)) == [0, 2]  # both realizations and refusals
    assert h.hexdigest() == UNBOUNDED_REALIZE_DIGESTS[backend]


# sha256 over "<case>\n<exit code>\n<stdout>" of `gen <kind> <n> | <command>`:
# larger and sparser proof blocks than digest_inputs() reaches; recorded
# before the exact elimination went forward-only on primitive rows
SCALE_DIGESTS = {
    # re-recorded when the padded weighting t came in closed form
    "cube 16 realize": "bfb2a2d9e5570a89bc29da2db702fea4c43dc8d0124d9ae1d734eb27270a7b83",
    # re-recorded when the float guess moved to Dantzig pricing: the vertex
    # LPs reach other optimal vertices, so other subsets of the same union rank
    "endgo 8 decompose": "a4a3484614cc3556a29b6e47902202919127f65dc29daa77d0ad66440e6fc268",
    "cross 7 is-orthant": "bd90e0e5ad9d667d1740eafa71f0b3ba7f30921079b2c70c480aa96a166ef520",
    "cross 7 rank": "0ad513eeb1f1b8bdae007cbf5df17c1aa544059733c5a670b06b141898aef054",
}


@pytest.mark.parametrize("case", sorted(SCALE_DIGESTS))
def test_scale_outputs_match_their_digest(case, monkeypatch, capsys):
    kind, n, command = case.split()
    _, text = in_process(monkeypatch, capsys, "gen", kind, n)
    code, out = in_process(monkeypatch, capsys, command, "-", stdin=text)
    assert hashlib.sha256(f"{case}\n{code}\n{out}".encode()).hexdigest() == SCALE_DIGESTS[case]


# ten Cayley rotations: every family at n = 3, 4 and 5, then cube 3 again
FLOAT_ROTATIONS = [
    (kind, 3 + seed // 3 % 3, seed) for seed, kind in zip(range(10), cycle(FAMILIES))
]


@pytest.mark.parametrize(
    "kind, n, seed",
    [(kind, n, None) for kind in FAMILIES for n in range(1, 6)] + FLOAT_ROTATIONS,
)
def test_float_backend_verdicts_match_the_exact_ones(kind, n, seed, monkeypatch, capsys):
    text = polyhedron_to_text(FAMILIES[kind](n)) if seed is None else rotated_text(kind, n, seed)
    exact = in_process(monkeypatch, capsys, "is-orthant", "-", stdin=text)
    floated = in_process(monkeypatch, capsys, "--backend", "float", "is-orthant", "-", stdin=text)
    assert floated[0] == exact[0]
    assert json.loads(floated[1])["verdict"] == json.loads(exact[1])["verdict"]
