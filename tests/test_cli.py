"""The command line as a user runs it: exit codes, stdout JSON, stderr errors."""

import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import rational_rotation
from oracles import rref_rank
from orthants import (
    Polyhedron,
    build,
    cli,
    generate_cross_polytope,
    generate_cube,
    generate_max_rank_orthant,
    lp,
)
from orthants.context import EXACT
from orthants.fileformats import bang_to_doc, polyhedron_to_text
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
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def rotated_text(kind, n, seed):
    """A family member turned by a rational Cayley rotation, as input text."""
    P = FAMILIES[kind](n)
    R = rational_rotation(random.Random(seed), n)
    rows = [R.matvec(P.A.row(i)) for i in range(P.nfacets)]
    return polyhedron_to_text(Polyhedron.from_rows(rows, P.b, EXACT))


# endgo 5 under rotation seed 2 is an input whose float phase 1 stops without
# an optimum, so its LP is answered by the exact Bland route
FALLBACK_INPUT = ("endgo", 5, 2)


@pytest.mark.parametrize(
    "kind, n, seed", [("cube", 3, 1), ("cross", 3, 2), ("endgo", 3, 3), FALLBACK_INPUT]
)
def test_is_orthant_stdout_is_byte_stable_on_rotated_inputs(kind, n, seed):
    text = rotated_text(kind, n, seed)
    first = orthants("is-orthant", "-", stdin=text)
    second = orthants("is-orthant", "-", stdin=text)
    assert first[0] == 0, first[2]
    assert first[1] == second[1]
    assert json.loads(first[1])["verdict"] == "Positive"


def test_rotated_endgo5_takes_the_bland_fallback(monkeypatch, capsys):
    bland = lp._bland_simplex
    runs = []

    def counted(*args):
        runs.append(args)
        return bland(*args)

    monkeypatch.setattr(lp, "_bland_simplex", counted)
    text = rotated_text(*FALLBACK_INPUT)
    code, out = in_process(monkeypatch, capsys, "is-orthant", "-", stdin=text)
    assert code == 0 and len(runs) == 1
    assert out == orthants("is-orthant", "-", stdin=text)[1]


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
    ] + [
        (["--backend", "float", "--tol", tol, "is-orthant", "-"], QUADRANT)
        for tol in ("0", "-1", "nan")
    ],
    ids=[
        "dim-not-an-integer", "numbers-for-scalars", "float-overflow",
        "gen-cube-x", "gen-cross-1.5", "gen-endgo-empty",
        "gen-cube-2-3", "gen-endgo-3-1", "tol-0", "tol-negative", "tol-nan",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, doc):
    code, out, err = orthants(*argv, stdin=doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err



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
        try:
            shared = in_process(monkeypatch, capsys, *argv, stdin=text)
        except SystemExit as exc:
            shared = (exc.code, capsys.readouterr().out)
        assert shared == alone, argv
        codes.add(shared[0])
        if "--dump-bang" not in argv and shared[1]:
            assert "bang" not in json.loads(shared[1]), argv
    assert codes == {0, 1, 2}
