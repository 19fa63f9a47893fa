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
    ],
    ids=[
        "dim-not-an-integer", "numbers-for-scalars", "float-overflow",
        "gen-cube-x", "gen-cross-1.5", "gen-endgo-empty",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, doc):
    code, out, err = orthants(*argv, stdin=doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err

