"""quadexp benchmark: runs one workload, checks every result, prints metrics.

Run from the repository root:

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 16 --trace 0

The workloads are defined in ``workloads.py``. A run is a closed loop in one
process through the public API (``run_case``, ``run_range`` with
``workers=1``, ``verify_symbolic``): one case at a time, so one core does the
work and nothing else in the run contends with it. Passes over the
workload's cases repeat, each in an order drawn from ``--seed``; the number
of passes is ``--seconds`` over the workload's nominal pass time, so both
sides of a comparison do the same work. Every result is compared
with ``expected.json``; a raising call or a differing result is a failed
operation.

Every time is reported in seconds at a reference machine speed: a timer
samples the machine's speed throughout the run and each interval is
normalized by it (``speed.py``), because the host's speed swings by up to
1.7x within seconds. The raw times are kept beside them in the output files.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the first
pass untraced and the others under the span recorder (``spans.py``), and
reports per-layer metrics per pass plus the tracing overhead. The last line
of standard output is the JSON result; the environment block, per-case rows
and spans are written to ``perfbench/out/``.

Set-up time is measured from outside: fresh interpreters are started that
import the program and make a fresh class-polynomial cache directory, and the
median of their start-to-ready times is reported.

Exit status is 0 when the run completed (even with failed operations, which
the result reports) and 1 when it could not run at all, for instance when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Recorder, TracerError
from speed import SpeedSampler
from workloads import WORKLOADS, describe, digest, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED_PATH = BENCH / "expected.json"
SETUP_PROBES = 3
# stop starting passes after this long, whatever the machine's speed
MAX_RUN_S = 100
PROBE_TIMEOUT_S = 60
# a result is comparable with the baseline only if these match expected.json
COMPARED_ENV = ("python", "sympy", "mpmath", "backend")


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


# -- set-up --------------------------------------------------------------------


# A fresh interpreter that imports the program, makes a fresh
# class-polynomial cache directory and says it is ready. It imports nothing of
# the benchmark, so set-up is the program's alone.
SETUP_PROBE = """
import shutil, sys, tempfile
sys.path.insert(0, sys.argv[1])
import quadexp.pipeline
cache_dir = tempfile.mkdtemp(prefix="cache-", dir=sys.argv[2])
print("ready", flush=True)
shutil.rmtree(cache_dir, ignore_errors=True)
"""


def time_setup(sampler) -> tuple[float, float]:
    """Start and ready times of a fresh interpreter importing the program.

    The caller pins itself to one core (the child inherits it), so that the
    speed samples this process takes at the probe's edges are of the core
    the child runs on.
    """
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(OUT)]
    with sampler.paused():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise HarnessError("set-up probe did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"set-up probe failed (exit {proc.returncode})")
    return t0, ready


def import_program():
    if not (SRC / "quadexp" / "__init__.py").is_file():
        raise HarnessError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadexp.pipeline as pipeline

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"quadexp was imported from {pipeline.__file__}, "
                           f"not from {SRC}")
    return pipeline


# -- environment ---------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # not a checkout of its own
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import mpmath
    import sympy

    import quadexp._core

    return {"python": platform.python_version(),
            "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
            "backend": quadexp._core.BACKEND,
            "QUADEXP_STRICT": bool(os.environ.get("QUADEXP_STRICT")),
            "QUADEXP_PURE_PYTHON": bool(os.environ.get("QUADEXP_PURE_PYTHON")),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _git_commit()}


def not_comparable(env: dict, baseline: dict) -> list[str]:
    return [f"{k} {env[k]} (baseline {baseline.get(k)})"
            for k in COMPARED_ENV if env[k] != baseline.get(k)]


# -- the closed loop -----------------------------------------------------------


def _differences(got: dict, want: dict) -> str:
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return ", ".join(f"{k}: got {got.get(k)!r}, expected {want.get(k)!r}"
                     for k in keys)


def run_op(op_id, case, pipeline, cache_dir, expected, recorder,
           sampler) -> dict:
    """One operation, timed from outside and checked against the table."""
    if recorder is not None:
        recorder.case = op_id
        recorder.case_precision = (case.precision
                                   if case.api != "verify_symbolic" else None)
    error = result = None
    sampler.mark()
    t0 = time.perf_counter()
    try:
        result = case.run(pipeline, cache_dir)
    except Exception as exc:  # a raising call is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    sampler.mark()
    row = {"op": op_id, "case": case.key, **describe(case), "t0": t0, "t1": t1}
    if error is None:
        got = summarize(case, result)
        want = expected["cases"].get(case.key)
        if want is None:
            error = "no expected entry"
        elif got != want["expect"]:
            error = "result differs: " + _differences(got, want["expect"])
        if "checks" in got:
            passed = sum(flag for _, flag in got["checks"])
            row["verdict"] = f"{passed}/{len(got['checks'])} checks passed"
        else:
            row["verdict"] = got["verdict"]
            row["timing"] = result.timing
        row["sha256_matches"] = (want is not None
                                 and digest(case, result) == want["sha256"])
    row["error"] = error
    return row


def run_pass(index, order, pipeline, expected, recorder,
             sampler) -> list[dict]:
    """Every case once, with a fresh class-polynomial cache directory."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    try:
        return [run_op(f"{index}.{i}", case, pipeline, cache_dir, expected,
                       recorder, sampler) for i, case in enumerate(order)]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_passes(cases, pipeline, expected, rng, passes, recorder,
               sampler):
    """Run ``passes`` passes, or fewer once ``MAX_RUN_S`` has gone by.

    Returns (untraced pass rows, traced pass rows), each a list per pass.
    With a recorder, the first pass runs untraced and the rest traced.
    """
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    try:
        for index in range(max(passes, 2 if recorder else 1)):
            if index and time.perf_counter() - start > MAX_RUN_S:
                break
            tracing = recorder is not None and index > 0
            if tracing and not traced:
                recorder.install()
            order = list(cases)
            rng.shuffle(order)
            rows = run_pass(index, order, pipeline, expected,
                            recorder if tracing else None, sampler)
            (traced if tracing else plain).append(rows)
        return plain, traced
    finally:
        if recorder is not None:
            recorder.uninstall()


def normalize(rows, sampler) -> None:
    """Replace each row's timestamps by its raw and normalized seconds."""
    for row in rows:
        row["wall_raw_s"], row["wall_s"] = sampler.measure(row.pop("t0"),
                                                           row.pop("t1"))


def pass_wall(rows, key="wall_s") -> float:
    return sum(r[key] for r in rows)


# -- metrics ---------------------------------------------------------------------


def end_to_end(plain, setup) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note), from the untraced passes.

    ``op_p50_s`` is the median over the workload's distinct cases of each
    case's median time, so that it does not jump between two cases when a
    workload has an even number of them.
    """
    rows = [r for p in plain for r in p]
    walls = [pass_wall(p) for p in plain]
    raw = statistics.median(pass_wall(p, "wall_raw_s") for p in plain)
    per_case: dict[str, list[float]] = {}
    for r in rows:
        per_case.setdefault(r["case"], []).append(r["wall_s"])
    case_medians = [statistics.median(v) for v in per_case.values()]
    failed = sum(r["error"] is not None for r in rows)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(walls), "s",
                   f"median of {len(walls)} passes; raw {raw:.4f} s"),
        "op_p50_s": (statistics.median(case_medians), "s",
                     f"median of {len(case_medians)} cases' medians, "
                     f"{len(rows)} operations"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
        "failed_frac": (failed / len(rows), "ratio",
                        f"{failed} of {len(rows)} operations failed"),
    }


def add_top_layers(rows, recorder) -> None:
    by_op = recorder.case_layers()
    for row in rows:
        layers = by_op.get(row["op"])
        if layers:
            name = max(layers, key=layers.get)
            row["top_layer"] = name
            row["top_layer_self_s"] = layers[name]


def layer_shares(metrics, traced_wall) -> list[tuple[str, float, float]]:
    """(target, self share, inclusive share) of the traced pass time."""
    out = []
    for name, (busy, _) in metrics.items():
        if name.endswith(".busy_s") and busy > 0:
            prefix = name[:-len(".busy_s")]
            out.append((prefix, busy / traced_wall,
                        metrics[prefix + ".total_s"][0] / traced_wall))
    run_case = metrics["pipeline.run_case.self_s"][0]
    if run_case > 0:  # its inclusive time is the operation's
        out.append(("pipeline.run_case", run_case / traced_wall, None))
    return sorted(out, key=lambda row: -row[1])


# -- entry point -------------------------------------------------------------------


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None, workloads=WORKLOADS, expected=None) -> int:
    args = parse_args(argv, workloads)
    OUT.mkdir(exist_ok=True)
    try:
        return _run(args, workloads, expected)
    except (HarnessError, TracerError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


def _run(args, workloads, expected) -> int:
    load_start = os.getloadavg()
    pipeline = import_program()
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    env = environment()
    recorder = Recorder() if args.trace else None
    allowed = os.sched_getaffinity(0)
    with SpeedSampler() as sampler:
        os.sched_setaffinity(0, {min(allowed)})
        try:
            probes = [time_setup(sampler) for _ in range(SETUP_PROBES)]
        finally:
            os.sched_setaffinity(0, allowed)
        workload = workloads[args.workload]
        passes = max(1, round(args.seconds / workload.pass_s))
        plain, traced = run_passes(workload.cases, pipeline, expected,
                                   random.Random(args.seed), passes,
                                   recorder, sampler)
    setup = [sampler.measure(a, b)[1] for a, b in probes]
    normalize([r for p in plain + traced for r in p], sampler)
    env["loadavg_start"] = load_start
    env["speed_factor_median"] = sampler.median_factor()
    env["loadavg_end"] = os.getloadavg()
    differing = not_comparable(env, expected["environment"])
    env["comparable"] = not differing

    rows = [r for p in plain + traced for r in p]
    for row in rows:
        row["workload"] = args.workload
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "end_to_end": end_to_end(plain, setup),
              "cases": rows}
    if recorder is not None:
        recorder.finish(lambda a, b: sampler.measure(a, b)[1])
        add_top_layers(rows, recorder)
        layers = recorder.layer_metrics(len(traced))
        traced_wall = statistics.median(pass_wall(p) for p in traced)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (
            traced_wall - result["end_to_end"]["wall_s"][0], "s")
        result["per_layer"] = layers
        result["shares"] = layer_shares(layers, traced_wall)
        recorder.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1,
                                                 default=str))
    print_report(result, differing, plain[0] + (traced[0] if traced else []))
    return 0


def print_report(result, differing, shown) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    rows = result["cases"]
    print("environment " + json.dumps(result["environment"]))
    if differing:
        print("NOT COMPARABLE with the baseline: " + "; ".join(differing))
    for row in shown + [r for r in rows if r["error"] and r not in shown]:
        top = (f" top={row['top_layer']}:{row['top_layer_self_s']:.4f}s"
               if "top_layer" in row else "")
        print(f"case {row['op']} {row['case']} {row.get('verdict')} "
              f"wall={row['wall_s']:.4f}s{top}"
              + (f" FAILED {row['error']}" if row["error"] else ""))
    checked = [r for r in rows if "sha256_matches" in r]
    changed = sum(not r["sha256_matches"] for r in checked)
    print(f"sha256 of the report differs from the table for {changed} of "
          f"{len(checked)} operations (information only)")
    for name, own, whole in result.get("shares", []):
        print(f"share {name} self {own:.1%}"
              + ("" if whole is None else f" total {whole:.1%}"))
    for name, (value, unit, note) in result["end_to_end"].items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    if "per_layer" in result:
        reported = result["per_layer"]
    else:  # failed_frac is carried by "failed" and "attempted"
        reported = {k: (v, u) for k, (v, u, _) in result["end_to_end"].items()
                    if k != "failed_frac"}
    failed = sum(r["error"] is not None for r in rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))


if __name__ == "__main__":
    sys.exit(main())
