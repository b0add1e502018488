"""Self-test of the benchmark harness on a tiny configuration.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py

It runs three small scan cases, one 256-bit recognition case and one
symbolic suite through ``run.main`` and checks that

- every end-to-end metric prints by name with its unit, and the JSON result
  carries exactly the end-to-end metrics of ``BENCHMARK.json``;
- a traced run reports exactly the per-layer metrics of ``BENCHMARK.json``;
- a deliberately corrupted expected entry is counted as a failed operation;
- a trace target that no longer resolves, or an import binding that holds
  another object, stops the traced run instead of reading zero;
- without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run
from spans import Recorder, Target, TracerError
from workloads import IMAG, REAL, Case, Workload

TINY = {"tiny": Workload([Case("run_range", 5, REAL),
                          Case("run_range", 6, REAL),
                          Case("run_range", 10, REAL),
                          Case("run_case", 14, IMAG, 256, recognition=True),
                          Case("verify_symbolic", suite="jacobi")], 1.0)}
# printed end-to-end metrics and their units; failed_frac is printed but not
# part of the JSON metrics, whose values must never be 0
E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "failed_frac": "ratio"}


def tiny_run(trace: int, expected=None) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], TINY, expected)
    assert code == 0, f"exit {code}"
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def check_metrics(spec) -> None:
    text, result = tiny_run(0)
    for name, unit in E2E_UNITS.items():
        assert any(line.startswith(f"metric {name} = ")
                   and line.split()[4] == unit for line in text.splitlines()), \
            f"{name} not printed with unit {unit}"
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] == len(TINY["tiny"].cases)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (got, want)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def check_trace(spec) -> None:
    text, result = tiny_run(1)
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)))
    metrics = result["metrics"]
    assert metrics["core.lll_reduce_rows.calls"]["value"] > 0
    assert metrics["classforms.class_group.calls"]["value"] > 0
    assert metrics["modular.cache.misses"]["value"] > 0
    assert "top=core.lll_reduce_rows" in text, "per-case top layer missing"


def check_corruption() -> None:
    expected = json.loads(run.EXPECTED_PATH.read_text())
    bad = copy.deepcopy(expected)
    bad["cases"][TINY["tiny"].cases[1].key]["expect"]["verdict"] = "corrupted"
    text, result = tiny_run(0, bad)
    assert result["failed"] == 1 and not result["correct"], result
    assert "metric failed_frac = 0.2 ratio" in text, text


def _install_fails(target) -> bool:
    recorder = Recorder([target])
    try:
        recorder.install()
    except TracerError:
        return True
    finally:
        recorder.uninstall()
    return False


def check_blindness() -> None:
    import quadexp.pipeline as pipeline

    assert _install_fails(Target("recognition.gone", "quadexp.recognition",
                                 "no_such_function"))
    shadowed = pipeline.min_poly
    pipeline.min_poly = lambda *args: None  # a local stand-in, never timed
    try:
        assert _install_fails(Target("recognition.min_poly",
                                     "quadexp.recognition", "min_poly",
                                     ("quadexp.pipeline",)))
    finally:
        pipeline.min_poly = shadowed

    recorder = Recorder()
    recorder.install()
    try:
        assert hasattr(pipeline.match_conductor, "__wrapped__")
        assert hasattr(sys.modules["quadexp.recognition"].lll_reduce_rows,
                       "__wrapped__")
    finally:
        recorder.uninstall()
    assert not hasattr(pipeline.match_conductor, "__wrapped__")


def check_bare_directory() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "symbolic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    for check in (check_metrics, check_trace):
        check(spec)
        print(f"ok {check.__name__}", flush=True)
    for check in (check_corruption, check_blindness, check_bare_directory):
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
