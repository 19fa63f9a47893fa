"""The orthants benchmark: seeded workloads through the public CLI, in-process.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each input is answered only after
the previous one is done, pass after pass over the workload's inputs until
the time budget is spent (whole passes only, at least two).  Every output
is then re-checked exactly (checker.py) and the verdicts are compared with
the committed reference.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of the traced one (see
NOTES.md), writing its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import builder
import calibrate
import checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_CLASS = 10  # inputs a verdict class needs before its median is reported
MIN_PASSES = 2  # so that every per-input latency is a median of at least two
SETUP_RUNS = 21

# Set-up as every CLI call pays it: a fresh interpreter imports orthants.cli
# and runs the cheapest complete command, which builds the argument parser.
# The same interpreter then times the calibration job (calibrate.py).
SETUP_CODE = """\
import contextlib, io, statistics, time
t = time.perf_counter()
import orthants.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    orthants.cli.main(["gen", "cube", "1"])
setup = time.perf_counter() - t
import calibrate
print(setup, statistics.median(calibrate.timed_job() for _ in range(21)))
"""


def call(argv, text):
    """One CLI invocation with ``text`` on stdin: (exit code, stdout, stderr)."""
    from orthants import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# what each workload asks of the program, per input (the timed part)


def answer_decide(inst):
    text = inst.text()
    out = {"is-orthant": call(["is-orthant", "-"], text), "rank": call(["rank", "-"], text)}
    if inst.dim == 2:
        out["classify2d"] = call(["classify2d", "-"], text)
    return out


def answer_realize(inst):
    text = inst.text()
    out = {"is-orthant": call(["is-orthant", "-"], text), "realize": call(["realize", "-"], text)}
    if out["is-orthant"][0] == 0:
        out["embed"] = call(["embed", "-"], text)
    return out


def answer_decompose(inst):
    from orthants import fileformats, polyhedra

    reduced = fileformats.polyhedron_to_text(
        polyhedra.remove_redundant(fileformats.polyhedron_from_text(inst.text()))
    )
    return {
        "remove_redundant": (0, reduced, ""),
        "decompose": call(["decompose", "-"], reduced),
        "is-orthant": call(["is-orthant", "-"], reduced),
    }


ANSWER = {"decide": answer_decide, "realize": answer_realize, "decompose": answer_decompose}


# ---------------------------------------------------------------------------
# exact checks of one input's outputs (untimed)


def canonical_rows(text):
    """Canonical rows of the library's reduction, via the CLI's reduce."""
    code, out, err = call(["reduce", "-"], text)
    checker.require(code == 0, f"reduce failed: {err.strip()}")
    return checker.rows_of(out)[0]


def load(out, name, codes=(0,)):
    code, stdout, stderr = out[name]
    checker.require(code in codes, f"{name} exited {code}: {stderr.strip()}")
    return json.loads(stdout)


def proved_verdict(inst_rows, text, out):
    canon = canonical_rows(text)
    checker.check_canonical(inst_rows, canon)
    doc = load(out, "is-orthant", (0, 1))
    verdict = checker.check_is_orthant(doc, canon)
    checker.require((out["is-orthant"][0] == 0) == (verdict == "Positive"), "exit code")
    return verdict, canon


def check_input(workload, inst, out):
    """The verdict this input's outputs prove; raises CheckError otherwise."""
    if workload == "decompose":
        reduced = out["remove_redundant"][1]
        checker.check_minimal(reduced, inst.minimal)
        verdict, canon = proved_verdict(checker.rows_of(reduced)[0], reduced, out)
        checker.check_decompose(load(out, "decompose"), canon, verdict)
    else:
        verdict, _ = proved_verdict(inst.rows, inst.text(), out)
    if inst.planted:
        checker.require(verdict == "Positive", "planted orthant input not Positive")
    if workload == "decide":
        checker.check_rank(load(out, "rank"), inst.rows, verdict)
        if "classify2d" in out:
            checker.check_classify2d(load(out, "classify2d"), verdict)
    if workload == "realize":
        for name in ("realize", "embed"):
            if name in out:
                checker.check_embedding(load(out, name), inst.rows, inst.offsets)
        checker.require(("embed" in out) == (verdict == "Positive"), "embed coverage")
    return verdict


# ---------------------------------------------------------------------------
# measurement


def run_pass(answer, insts, tracer=None):
    """Answer every input once: (outputs, (start, end) per input, failed indices)."""
    outputs, spans, failed = [], [], set()
    for i, inst in enumerate(insts):
        if tracer is not None:
            tracer.input_id = i
        t0 = perf_counter()
        try:
            out = answer(inst)
        except (Exception, SystemExit):
            out = {"traceback": (None, traceback.format_exc(), "")}
            failed.add(i)
        spans.append((t0, perf_counter()))
        outputs.append(out)
    return outputs, spans, failed


def warm_up(answer, insts):
    """Answer the first input untimed, so lazy imports and first-call set-up
    stay out of the timings; a failure here shows again in the timed pass."""
    try:
        answer(insts[0])
    except (Exception, SystemExit):
        pass


def stable(out):
    """What must repeat byte for byte: exit codes and stdout."""
    return {k: v[:2] for k, v in out.items()}


def measure_setup():
    """Median set-up time of fresh interpreters: (wall s, reference s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE, env.get("PYTHONPATH", "")])
    wall, reference = [], []
    for k in range(SETUP_RUNS + 1):  # the first run may compile bytecode; not counted
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            setup, job = map(float, proc.stdout.split())
            wall.append(setup)
            reference.append(calibrate.to_reference(setup, job))
    return statistics.median(wall), statistics.median(reference)


def self_check_families():
    """The builder's families equal ``orthants gen`` output byte for byte."""
    for kind in builder.FAMILIES:
        for n in range(1, 7):
            code, out, _ = call(["gen", kind, str(n)], "")
            if code != 0 or out != builder.family_text(kind, n):
                return f"builder family {kind} {n} differs from `orthants gen`"
    return None


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def verify_all(workload, insts, outputs, failed, errors):
    """Check every output; returns the per-input verdicts (None where failed)."""
    verdicts = []
    for i, inst in enumerate(insts):
        verdict = None
        if i not in failed:
            try:
                verdict = check_input(workload, inst, outputs[i])
            except Exception as exc:  # a malformed output may fail in any way
                errors.append(f"{inst.name}: {type(exc).__name__}: {exc}")
        elif "traceback" in outputs[i]:
            errors.append(f"{inst.name}: {outputs[i]['traceback'][1].strip().splitlines()[-1]}")
        if verdict is None:
            failed.add(i)
        verdicts.append(verdict)
    return verdicts


def compare_reference(workload, insts, verdicts, errors):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    got = checker.digest((inst.name, v) for inst, v in zip(insts, verdicts))
    if reference.get(workload) != got:
        errors.append(f"verdict digest {got} differs from reference {reference.get(workload)}")


def end_to_end(workload, insts, seconds, errors):
    setup_wall, setup_s = measure_setup()
    answer = ANSWER[workload]
    samples = [[] for _ in insts]
    first, failed = None, set()
    warm_up(answer, insts)
    passes, intervals, started = 0, [], perf_counter()
    with calibrate.Sampler() as sampler:
        while True:
            outputs, spans, bad = run_pass(answer, insts)
            passes += 1
            intervals.append(spans)
            failed |= bad
            if first is None:
                first = outputs
            else:
                for i, out in enumerate(outputs):
                    if stable(out) != stable(first[i]):
                        failed.add(i)
                        errors.append(f"{insts[i].name}: output changed between passes")
            elapsed = perf_counter() - started
            if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
                break
    wall = sum(t1 - t0 for spans in intervals for t0, t1 in spans)
    for spans in intervals:
        for i, (t0, t1) in enumerate(spans):
            samples[i].append(sampler.reference_seconds(t0, t1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = verify_all(workload, insts, first, failed, errors)
    compare_reference(workload, insts, verdicts, errors)

    ms = [statistics.median(s) * 1000.0 for s in samples]
    positive = [x for x, v in zip(ms, verdicts) if v == "Positive"]
    refuted = [x for x, v in zip(ms, verdicts) if v not in (None, "Positive")]
    for label, cls in (("positive", positive), ("refuted", refuted)):
        if len(cls) < MIN_CLASS:
            errors.append(f"only {len(cls)} {label} inputs; need {MIN_CLASS}")
    tail_ms, pct = tail(ms)
    attempted = passes * len(insts)
    answered = attempted - passes * len(failed)
    print(f"{workload}: {len(insts)} inputs x {passes} passes in {elapsed:.2f} s wall "
          f"({wall:.2f} s answering, {answered / wall:.3f} inputs per wall second, "
          f"set-up {setup_wall:.4f} s wall); latency_ms_tail is p{pct:.1f} of {len(ms)} "
          f"per-input medians; {len(positive)} positive, {len(refuted)} refuted")
    metrics = {
        "throughput_per_s": (answered / sum(sum(s) for s in samples), "1/s"),
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "positive_ms_p50": (statistics.median(positive) if positive else 0.0, "ms"),
        "refuted_ms_p50": (statistics.median(refuted) if refuted else 0.0, "ms"),
        "verified_share": (answered / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, attempted - answered, metrics


def traced(workload, insts, seed, errors):
    from tracer import Tracer
    from layers import layer_metrics

    answer = ANSWER[workload]
    warm_up(answer, insts)
    plain, spans, failed = run_pass(answer, insts)
    untraced_s = sum(t1 - t0 for t0, t1 in spans)
    tracer = Tracer()
    with tracer:
        outputs, spans, bad = run_pass(answer, insts, tracer)
        traced_s = sum(t1 - t0 for t0, t1 in spans)
        tracer.phase = "check"
        failed |= bad
        verdicts = verify_all(workload, insts, outputs, failed, errors)
    for i, (a, b) in enumerate(zip(plain, outputs)):
        if stable(a) != stable(b):
            failed.add(i)
            errors.append(f"{insts[i].name}: tracing changed the output")
    compare_reference(workload, insts, verdicts, errors)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    tracer.write(path)
    print(f"{workload}: traced pass {traced_s:.2f} s, untraced {untraced_s:.2f} s, "
          f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    metrics = layer_metrics(tracer, {"overhead_s": traced_s - untraced_s,
                                     "traced_s": traced_s, "untraced_s": untraced_s})
    return 2 * len(insts), 2 * len(failed), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(builder.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orthants", "cli.py")):
        sys.stderr.write("error: the orthants sources are missing under src/\n")
        return 2
    sys.path.insert(0, SRC)

    insts = builder.WORKLOADS[args.workload](args.seed)
    errors = []
    problem = self_check_families()
    if problem:
        errors.append(problem)
    if args.trace:
        attempted, failed, metrics = traced(args.workload, insts, args.seed, errors)
    else:
        attempted, failed, metrics = end_to_end(args.workload, insts, args.seconds, errors)
    for line in errors:
        sys.stderr.write(f"check failed: {line}\n")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
