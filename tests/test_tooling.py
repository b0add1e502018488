"""The benchmark still binds to the program and still agrees with it.

``perfbench/spans.py`` wraps quadexp functions by module and name when a
traced benchmark run starts. A refactor that renames a traced function, or
leaves an import binding that holds another object, stops that run with a
``TracerError``; these tests install and uninstall the recorder, running
nothing, so such a break fails here first. ``perfbench/expected.json`` pins
the outcome of every benchmark case; a change that alters one fails the
benchmark run, and ``test_benchmark_outcomes`` makes it fail here first.
``tests/data/scan_report_digests.json`` holds the sha256 of every scan and
recognize case's report outside its timing block, the recognize cases run in
benchmark order on one shared cache; ``test_scan_reports_unchanged`` and
``test_recognize_reports_unchanged`` hold them to byte-identical reports,
from the results of the one run of every case that
``test_benchmark_outcomes`` checks. A change that alters a report on purpose
rewrites that file with ``PYTHONPATH=src python tests/test_tooling.py`` and
says why.
The symbolic layer is exact rational arithmetic, so importing it must not
load sympy. sympy is loaded only by ``IntegerPolynomial.factor_irreducible``,
on its first call, and ``run_range`` loads the process pool only for a
parallel range, so an import, a scan, a serial range, the symbolic suites
and the class-field generator load neither;
``test_light_paths_load_neither_sympy_nor_the_pool`` holds them to that.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from inspect import signature
from pathlib import Path

import pytest

import quadexp
from quadexp import _core, modular, pipeline, recognition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "data" / "scan_report_digests.json"
SCANS = ("scan-real", "scan-imag")


def _load(name: str):
    """A perfbench module, loaded by path without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_recorder_installs_and_uninstalls(spans):
    originals = {
        (pipeline, "min_poly"): pipeline.min_poly,
        (recognition, "min_poly"): recognition.min_poly,
        (recognition, "lll_reduce"): recognition.lll_reduce,
        (recognition, "lll_reduce_rows"): recognition.lll_reduce_rows,
        (_core, "lll_reduce_rows"): _core.lll_reduce_rows,
        (modular, "ring_class_polynomial_detailed"):
            modular.ring_class_polynomial_detailed,
    }
    recorder = spans.Recorder()
    recorder.install()  # raises TracerError on a lost or shadowed target
    try:
        for (module, name), fn in originals.items():
            wrapper = getattr(module, name)
            assert wrapper is not fn and wrapper.__wrapped__ is fn, name
    finally:
        recorder.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn, name
    assert recorder.spans == []


def test_traced_signatures():
    # the recorder tells 2p searches apart by min_poly's argument ``p`` and
    # counts cache hits through modular._cache_path(cache_dir, d, f)
    assert "p" in signature(recognition.min_poly).parameters
    # it times evaluate_J through the pipeline's binding, one call per case
    # and precision with every theta of the case
    assert pipeline.evaluate_J is recognition.evaluate_J
    assert next(iter(signature(recognition.evaluate_J).parameters)) == "thetas"
    # it reads the lattice of recognition.lll_reduce from args[0] or
    # kwargs["basis"], and times the exact kernel through recognition's
    # binding; the float kernel that reduces every rung is bound the same
    # way, so a tracer can time it there too
    assert next(iter(signature(recognition.lll_reduce).parameters)) == "basis"
    assert recognition.lll_reduce_rows is _core.lll_reduce_rows
    assert recognition.lll_reduce_rows_float is _core.lll_reduce_rows_float
    assert list(signature(modular._cache_path).parameters) == \
        ["cache_dir", "d", "f"]


def _run_cases(cache_dir: str) -> dict:
    """{case key: (case, result)}, every distinct benchmark case run once.

    The cases run in benchmark order, so the recognize cases share one
    class-polynomial cache in ``cache_dir`` as in a pass.
    """
    workloads = _load("workloads")
    cases = {case.key: case for workload in workloads.WORKLOADS.values()
             for case in workload.cases}
    return {key: (case, case.run(pipeline, cache_dir))
            for key, case in cases.items()}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return _run_cases(str(tmp_path_factory.mktemp("cache")))


def test_benchmark_outcomes(results):
    # every distinct benchmark case once, checked as the benchmark checks it
    workloads = _load("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["cases"]
    assert set(results) == set(expected)
    for key, (case, result) in results.items():
        assert workloads.summarize(case, result) == expected[key]["expect"], \
            key


def _digests(results: dict, names) -> dict:
    """{workload: {case key: sha256 of its report without timing}}."""
    workloads = _load("workloads")
    digests = {}
    for name in names:
        digests[name] = {}
        for case in workloads.WORKLOADS[name].cases:
            text = results[case.key][1].dumps(with_timing=False)
            digests[name][case.key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _pinned(names) -> dict:
    pinned = json.loads(DIGESTS.read_text())
    return {name: pinned[name] for name in names}


def test_scan_reports_unchanged(results):
    assert _digests(results, SCANS) == _pinned(SCANS)


def test_recognize_reports_unchanged(results):
    # the recognition, stability, field and membership blocks, which
    # test_benchmark_outcomes reads only as verdicts and polynomials
    assert _digests(results, ["recognize"]) == _pinned(["recognize"])


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter that imports quadexp from here."""
    src = Path(quadexp.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def test_sklyanin_imports_without_sympy():
    code = "import sys, quadexp.sklyanin; sys.exit('sympy' in sys.modules)"
    res = _fresh_interpreter(code)
    assert res.returncode == 0, "importing quadexp.sklyanin loaded sympy"


LIGHT_PATHS = """
import sys
import quadexp.cli
from quadexp.modular import IntegerPolynomial, hcf_generator
from quadexp.pipeline import (CaseParams, SYMBOLIC_SUITES, run_case, run_range,
                              verify_symbolic)

run_case(15, CaseParams(recognition=False))
for direction in ("real-to-imag", "imag-to-real"):
    run_range(13, 15, CaseParams(conductor_direction=direction,
                                 recognition=False), workers=1)
for suite in SYMBOLIC_SUITES:
    verify_symbolic(suite)
hcf_generator(15, 1, 512)
loaded = [name for name in ("sympy", "concurrent.futures.process")
          if name in sys.modules]
if loaded:
    sys.exit(f"loaded {loaded}")
IntegerPolynomial((0, -2, 0, 1)).factor_irreducible()
if "sympy" not in sys.modules:
    sys.exit("a factorization did not load sympy")
"""


def test_light_paths_load_neither_sympy_nor_the_pool():
    # the factorization at the end is the control: without it a guard that
    # looked for the wrong module name would pass whatever was loaded
    res = _fresh_interpreter(LIGHT_PATHS)
    assert res.returncode == 0, res.stderr


if __name__ == "__main__":  # rewrite the pinned report digests
    with tempfile.TemporaryDirectory() as cache_dir:
        digests = _digests(_run_cases(cache_dir), ("recognize", *SCANS))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
