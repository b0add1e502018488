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
benchmark order on one shared cache, and of every symbolic suite's JSON;
``test_scan_reports_unchanged``, ``test_recognize_reports_unchanged`` and
``test_symbolic_reports_unchanged`` hold them to byte-identical reports,
from the results of the one run of every case that
``test_benchmark_outcomes`` checks. The same file pins every report of a
recognition-off ``run_range(2, 30)`` in each direction at 256 and 1024
bits, outside the benchmark's 512, and of an imag-to-real
``run_range(2900, 2950)`` at 512 bits, whose matched real orders reach
conductor 96 (d = 2921, discriminant 26,919,936);
``test_range_reports_unchanged_at_other_precisions`` holds those too. A
change that alters a report on purpose rewrites that file with
``PYTHONPATH=src python tests/test_tooling.py`` and says why.
J is transcendental, so ``test_no_relation_for_transcendental_values``
holds every recognize case to no relation at p or at 2p and no
membership; the d = 14 case, whose degree-16 lattice noise is recognized
today, is a strict expected failure until recognition rejects it.
The symbolic layer is exact rational arithmetic, so importing it must not
load sympy. sympy is loaded only by ``IntegerPolynomial.factor_irreducible``,
and only for a polynomial that its degree-pattern test cannot prove
irreducible, and the process pool is loaded only by a parallel range and
by the relation searches of a case on more than one usable CPU, so an
import, a scan, a serial range with recognition off, the symbolic suites and
the class-field generator load neither;
``test_light_paths_load_neither_sympy_nor_the_pool`` holds them to that.
Every candidate of the recognition runs of ``run_case(15)`` and of d = 13,
14 and 15 imag-to-real, at 512 bits, is proven irreducible by that test,
so those runs, made on one CPU so that their searches run in the process
that checks, do not load sympy either;
``test_recognition_proves_candidates_without_sympy`` holds them to that.
Case and range runs never load ``sklyanin``, which only the symbolic suites
use, and a run with recognition off does not load ``modular`` either; the
command line module and such a run load no ``traceback``, which only the
error paths import, and no third-party module;
``test_runs_load_only_the_layers_they_use`` holds them to that.
``test_declared_dependencies_match_the_imports`` holds ``pyproject.toml``'s
dependencies to the third-party modules ``src/quadexp`` imports, and its
``test`` extra to those the tests import besides.
``test_modules_parse_with_the_oldest_declared_grammar`` holds every module
of ``src/quadexp`` to the Python 3.10 grammar that ``requires-python``
admits; it checks the grammar only, not the runtime APIs.
No module under ``src/quadexp`` opens a file for reading (the class
polynomial cache is written for inspection only), so a file read arrives
with the verification of what it reads;
``test_no_module_reads_a_file`` holds them to that.
Every module-level private name of ``src/quadexp`` is used inside the
package, not only by the tests; ``test_no_unused_private_name`` holds
them to that. Every public name and every method is reached from the
package or ``perfbench/``, save the two library entry points of
``ENTRY_POINTS``; ``test_no_unused_public_name`` holds them to that.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from inspect import signature
from pathlib import Path

import pytest

import quadexp
from quadexp import _core, modular, pipeline, recognition

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "data" / "scan_report_digests.json"
SCANS = ("scan-real", "scan-imag")
# {digest file key: (direction, bits, lo, hi)}: recognition-off
# run_range(lo, hi); d = 2900-2950 matches real orders up to frak_f = 96
RANGES = {f"range:{direction}:p={bits}": (direction, bits, 2, 30)
          for direction in ("real-to-imag", "imag-to-real")
          for bits in (256, 1024)}
RANGES["range:imag-to-real:p=512:d=2900-2950"] = ("imag-to-real", 512,
                                                  2900, 2950)


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
    # it times evaluate_J through the pipeline's binding: one call per case
    # at p with every theta of the case, and one per J value at 2p
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
    """{workload: {case key: sha256 of its report without timing}}.

    ``workloads.digest`` hashes a symbolic suite's checks as JSON.
    """
    workloads = _load("workloads")
    return {name: {case.key: workloads.digest(case, results[case.key][1])
                   for case in workloads.WORKLOADS[name].cases}
            for name in names}


def _pinned(names) -> dict:
    pinned = json.loads(DIGESTS.read_text())
    return {name: pinned[name] for name in names}


def test_scan_reports_unchanged(results):
    assert _digests(results, SCANS) == _pinned(SCANS)


def test_recognize_reports_unchanged(results):
    # the recognition, stability, field and membership blocks, which
    # test_benchmark_outcomes reads only as verdicts and polynomials
    assert _digests(results, ["recognize"]) == _pinned(["recognize"])


def test_symbolic_reports_unchanged(results):
    # every check of the four suites, whose verdicts alone
    # test_benchmark_outcomes reads
    assert _digests(results, ["symbolic"]) == _pinned(["symbolic"])


@pytest.mark.parametrize("key", [
    "run_case:d=15:real-to-imag:p=512:rec=1",
    "run_case:d=15:real-to-imag:p=384:rec=1",
    pytest.param("run_case:d=14:imag-to-real:p=256:rec=1",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "min_poly recognizes degree-16 lattice noise: one J "
                     "value at p and all four at 2p"))),
])
def test_no_relation_for_transcendental_values(results, key):
    # J is transcendental, so no recognize case may report a relation at
    # p or at 2p, or place a J value in the class field
    report = results[key][1]
    assert [r["verdict"] for r in report.recognition_results] == \
        ["no_relation"] * len(report.j_values)
    assert [e["verdict_2p"] for e in report.stability] == \
        ["no_relation"] * len(report.j_values)
    assert not any(m["found"] for m in report.membership)


def _range_digests() -> dict:
    """{range key: {case key: sha256 of its report without timing}}."""
    workloads = _load("workloads")
    digests = {}
    for name, (direction, bits, lo, hi) in RANGES.items():
        params = pipeline.CaseParams(precision_bits=bits,
                                     conductor_direction=direction,
                                     recognition=False)
        digests[name] = {}
        for report in pipeline.run_range(lo, hi, params, workers=1).reports:
            case = workloads.Case("run_range", report.d, direction, bits)
            digests[name][case.key] = workloads.digest(case, report)
    return digests


def test_range_reports_unchanged_at_other_precisions():
    assert _range_digests() == _pinned(RANGES)


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
hcf_generator(15, 1, 512, cache_dir=None)
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


RECOGNITION = """
import os, sys
# one CPU, so the searches run here and this process sees what they load
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from quadexp.modular import IntegerPolynomial
from quadexp.pipeline import CaseParams, run_case

run_case(15, CaseParams(precision_bits=512))
for d in (13, 14, 15):
    run_case(d, CaseParams(precision_bits=512,
                           conductor_direction="imag-to-real"))
if "sympy" in sys.modules:
    sys.exit("a recognition run loaded sympy")
IntegerPolynomial((0, -2, 0, 1)).factor_irreducible()
if "sympy" not in sys.modules:
    sys.exit("a reducible factorization did not load sympy")
"""


def test_recognition_proves_candidates_without_sympy():
    # x(x^2 - 2) is reducible, so the degree-pattern test cannot prove it
    # and it must reach sympy: the control for the guard above
    res = _fresh_interpreter(RECOGNITION)
    assert res.returncode == 0, res.stderr


LAYERS = """
import os, sys
# one CPU, so the searches run here: the pool's modules load traceback
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
at_start = set(sys.modules)
import quadexp.cli
from quadexp.pipeline import CaseParams, run_case, run_range, verify_symbolic


def loaded():
    return [name for name in ("quadexp.sklyanin", "quadexp.modular")
            if name in sys.modules]


run_case(15, CaseParams(recognition=False))
tops = {name.split(".")[0] for name in set(sys.modules) - at_start}
third_party = sorted(tops - set(sys.stdlib_module_names) - {"quadexp"})
if third_party or "traceback" in sys.modules:
    sys.exit(f"the CLI and a run with recognition off loaded traceback "
             f"or the third-party {third_party}")
for direction in ("real-to-imag", "imag-to-real"):
    run_range(13, 15, CaseParams(conductor_direction=direction,
                                 recognition=False), workers=1)
if loaded():
    sys.exit(f"a run with recognition off loaded {loaded()}")
run_case(15)
if loaded() != ["quadexp.modular"]:
    sys.exit(f"a recognition run loaded {loaded()}, not modular alone")
verify_symbolic("jacobi")
if "quadexp.sklyanin" not in sys.modules:
    sys.exit("the symbolic suites did not load sklyanin")
quadexp.cli.run_case = None  # calling it is a bug, so main prints a traceback
try:
    quadexp.cli.main(["case", "15"])
except SystemExit:
    pass
if "traceback" not in sys.modules:
    sys.exit("the internal-error path did not load traceback")
"""


def test_runs_load_only_the_layers_they_use():
    # the symbolic suite and the internal error at the end are the controls:
    # without them a guard that looked for the wrong module name would pass
    # whatever was loaded
    res = _fresh_interpreter(LAYERS)
    assert res.returncode == 0, res.stderr


def _third_party_imports(directory: Path) -> set[str]:
    """Top-level modules the files in ``directory`` import from outside the
    standard library and ``directory`` itself, function-local imports too."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    local = {path.stem for path in directory.glob("*.py")} | {"quadexp"}
    return {top for top in (name.split(".")[0] for name in names)
            if top not in sys.stdlib_module_names and top not in local}


def test_declared_dependencies_match_the_imports():
    # a distribution's name is its module's name for every dependency here
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_")
                for r in requirements}

    runtime = names(project["dependencies"])
    assert _third_party_imports(ROOT / "src" / "quadexp") == runtime
    test_extra = names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "tests") <= runtime | test_extra


def test_modules_parse_with_the_oldest_declared_grammar():
    """Every module parses with the grammar of Python 3.10, the oldest
    ``requires-python`` admits, where only 3.11 may be installed.

    ``ast.parse`` with ``feature_version`` checks the grammar only: a call
    to a standard-library API that 3.10 lacks still passes.
    """
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">=3.10"
    paths = sorted((ROOT / "src" / "quadexp").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
    # the control: a 3.11 construct must be rejected, or the guard is blind
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def _file_reads(source: str) -> list[int]:
    """Lines of the ``open`` and ``os.fdopen`` calls in source whose mode
    reads: no mode, a mode with "r" or "+", or one not spelled out."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"
                or isinstance(func, ast.Attribute) and func.attr == "fdopen"
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+")):
            lines.append(node.lineno)
    return lines


def test_no_module_reads_a_file():
    # data read back from disk must be verified before use, so a module that
    # reads a file arrives with that verification and an update of this test
    control = ("open(a)\nopen(a, 'rb')\nos.fdopen(fd, mode='r+')\n"
               "open(a, m)\nopen(a, 'w')\nos.fdopen(fd, 'a')\n")
    assert _file_reads(control) == [1, 2, 3, 4]
    reads = {path.name: _file_reads(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "quadexp").glob("*.py")}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level with ``def``, ``class``
    or an assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def _used_names(sources, strings: bool = False) -> set[str]:
    """Every name that ``sources`` load, read as an attribute or import,
    and with ``strings`` every dotted part of a string constant."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.update(node.value.split("."))
    return used


def _unused_private_names(sources: dict[str, str]) -> set[str]:
    """"module.name" for each module-level private name of ``sources``
    (``def _x``, ``class _X``, ``_X = ...``; dunders aside) that no source
    loads, reads as an attribute or imports."""
    used = _used_names(sources.values())
    return {f"{module}.{name}" for module, source in sources.items()
            for name in _module_names(ast.parse(source))
            if name.startswith("_") and not _is_dunder(name)
            and name not in used}


def test_no_unused_private_name():
    # a private helper that nothing in the package uses is dead code, kept
    # alive only by its tests; test code does not count as a use
    control = {"m": "def _dead(): pass\ndef _called(): pass\n_called()\n"
                    "class _Read: pass\nm._Read\n_X = _Y = 1\n"
                    "__all__ = []\n_Z: int = 0\n",
               "n": "from m import _X\nprint(_Y)\n"}
    assert _unused_private_names(control) == {"m._dead", "m._Z"}
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "quadexp").glob("*.py")}
    assert _unused_private_names(sources) == set()


def _unused_public_names(sources: dict[str, str], users) -> set[str]:
    """"module.name" for each module-level public name of ``sources``, and
    "module.Class.name" for each ``def`` in a top-level class body (dunders
    aside), that no source of ``users`` loads, reads as an attribute,
    imports or names in a string constant."""
    used = _used_names(users, strings=True)
    unused = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = [name for name in _module_names(tree)
                 if not name.startswith("_")]
        names += [f"{node.name}.{item.name}" for node in tree.body
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not _is_dunder(item.name)]
        unused.update(f"{module}.{name}" for name in names
                      if name.rpartition(".")[2] not in used)
    return unused


# library functions that no run calls and the tests drive on purpose: the
# paper's map at probe arguments, and reduction over a rule sequence
ENTRY_POINTS = {"recognition.j_function", "sklyanin.reduce"}


def test_no_unused_public_name():
    # a public name that no run, no CLI path and no benchmark file reaches
    # is API kept alive only by its tests; test code does not count as a use
    control = {"m": "def dead(): pass\ndef called(): pass\n"
                    "class Kept:\n    def method(self): pass\n"
                    "    def _helper(self): pass\n"
                    "    def __eq__(self, o): pass\n"
                    "    @property\n    def shape(self): pass\n"
                    "X = Y = 1\n__all__ = []\n_Z = 0\n"}
    users = [control["m"], "called()\nm.Kept().method()\nprint(Y)\n"
             "target = ('pkg.m', 'Kept.shape')\n"]
    assert _unused_public_names(control, users) == \
        {"m.dead", "m.Kept._helper", "m.X"}
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "quadexp").glob("*.py")}
    users = [*sources.values(), *(path.read_text(encoding="utf-8")
                                  for path in PERFBENCH.glob("*.py"))]
    assert _unused_public_names(sources, users) == ENTRY_POINTS


if __name__ == "__main__":  # rewrite the pinned report digests
    with tempfile.TemporaryDirectory() as cache_dir:
        digests = _digests(_run_cases(cache_dir),
                           ("recognize", "symbolic", *SCANS))
    digests.update(_range_digests())
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
