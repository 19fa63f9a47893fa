"""The benchmark tracer wraps library functions by name; every name it lists
must exist, so that renaming or deleting one fails here and not only in a
traced benchmark run.  The tracer source is executed in a fresh namespace,
so nothing is written under benchmarks/."""

import importlib
import os
import types

import pytest

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "tracer.py"
)


def tracer_targets():
    module = types.ModuleType("tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module.TARGETS


@pytest.mark.parametrize("module, function", tracer_targets())
def test_every_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"orthants.{module}"), function))
