"""The benchmark still binds to the program and still agrees with it.

``perfbench/spans.py`` wraps quadexp functions by module and name when a
traced benchmark run starts. A refactor that renames a traced function, or
leaves an import binding that holds another object, stops that run with a
``TracerError``; these tests install and uninstall the recorder, running
nothing, so such a break fails here first. ``perfbench/expected.json`` pins
the outcome of every benchmark case; a change that alters one fails the
benchmark run, and ``test_benchmark_outcomes`` makes it fail here first.
The symbolic layer is exact rational arithmetic, so importing it must not
load sympy, which only the modular layer needs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

import quadexp
from quadexp import _core, modular, pipeline, recognition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    # it reads the lattice of recognition.lll_reduce from args[0] or
    # kwargs["basis"], and times the exact kernel through recognition's
    # binding; the float kernel that reduces every rung is bound the same
    # way, so a tracer can time it there too
    assert next(iter(signature(recognition.lll_reduce).parameters)) == "basis"
    assert recognition.lll_reduce_rows is _core.lll_reduce_rows
    assert recognition.lll_reduce_rows_float is _core.lll_reduce_rows_float
    assert list(signature(modular._cache_path).parameters) == \
        ["cache_dir", "d", "f"]


def test_benchmark_outcomes(tmp_path):
    # every distinct benchmark case once, checked as the benchmark checks it;
    # the recognize cases share one class-polynomial cache, as in a pass
    workloads = _load("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["cases"]
    cases = {case.key: case for workload in workloads.WORKLOADS.values()
             for case in workload.cases}
    assert set(cases) == set(expected)
    for key, case in cases.items():
        result = case.run(pipeline, str(tmp_path))
        assert workloads.summarize(case, result) == expected[key]["expect"], \
            key


def test_sklyanin_imports_without_sympy():
    src = Path(quadexp.__file__).resolve().parents[1]
    code = "import sys, quadexp.sklyanin; sys.exit('sympy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, "importing quadexp.sklyanin loaded sympy"
