"""Outside-in tracing: spans around the library's public functions.

The library is not edited.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``orthants`` module that holds it under
any name (``from .matrix import rank`` binds ``rank`` inside
``polyhedra``, ``frames`` and the rest), and ``uninstall`` puts the
originals back.  Spans live in memory as ``Span`` records and are written
out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, function) pairs under ``orthants``; each span is named "module.function".
TARGETS = (
    ("cli", "main"),
    ("fileformats", "polyhedron_from_text"),
    ("hedgehogs", "reduce"),
    ("frames", "build"),
    ("lp", "simplex_standard"),
    ("lp", "solve"),
    ("lp", "decide_positive"),
    ("lp", "verify_outcome"),
    ("polyhedra", "interior_point"),
    ("polyhedra", "functional_min"),
    ("polyhedra", "remove_redundant"),
    ("polyhedra", "recession_rays"),
    ("polyhedra", "vertices"),
    ("matrix", "rank"),
    ("matrix", "solve_linear"),
    ("matrix", "kernel_basis"),
    ("decompose", "find_basic_decomposition"),
    ("realize", "realize_polytope"),
    ("realize", "realize_unbounded"),
    ("realize", "build_embedding"),
    ("realize", "verify_embedding"),
)

# What a span keeps besides its times: the call's arguments and result, for
# the functions whose counters need them.  Counting happens after the run.
_KEEP_ARGS = {"lp.simplex_standard", "polyhedra.remove_redundant",
              "polyhedra.recession_rays", "polyhedra.vertices"}
_KEEP_RESULT = {"lp.simplex_standard", "polyhedra.remove_redundant",
                "polyhedra.recession_rays", "polyhedra.vertices", "hedgehogs.reduce",
                "decompose.find_basic_decomposition", "realize.realize_polytope",
                "realize.realize_unbounded"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "input", "phase", "args", "result")

    def __init__(self, name, parent, input_id, phase):
        self.name = name
        self.parent = parent
        self.input = input_id
        self.phase = phase
        self.start = self.end = 0.0
        self.args = self.result = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans: list = []
        self.input_id = None  # set by the caller before each input
        self.phase = "run"  # "run" for the workload, "check" for the output checker
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_args, keep_result = name in _KEEP_ARGS, name in _KEEP_RESULT

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.input_id, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep_args:
                span.args = args
            if keep_result:
                span.result = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"orthants.{name}") for name, _ in TARGETS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "orthants" or key.startswith("orthants."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_ms(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.ms
        return [s.ms - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, input, phase."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, round(s.start - t0, 7), round(s.end - t0, 7),
                                     s.parent, s.input, s.phase]) + "\n")
