"""The command line as a user runs it: exit codes, stdout JSON, stderr errors."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def orthants(*argv, stdin=""):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "orthants.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


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
    ],
    ids=[
        "dim-not-an-integer", "numbers-for-scalars", "float-overflow",
        "gen-cube-x", "gen-cross-1.5", "gen-endgo-empty",
        "gen-cube-2-3", "gen-endgo-3-1",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, doc):
    code, out, err = orthants(*argv, stdin=doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err

