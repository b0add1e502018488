import concurrent.futures
import io
import json
import multiprocessing
import os
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from inspect import signature

import pytest

from quadexp import (_core, classforms, cli, modular, pipeline, recognition,
                     sklyanin, symbolic)
from quadexp.errors import (DomainError, InsufficientPrecision, NotSquareFree,
                           QuadexpError)
from quadexp.modular import IntegerPolynomial
from quadexp.pipeline import (CSV_HEADER, CaseParams, EXCLUDED_D, run_case,
                              run_range, verify_symbolic)
from quadexp.quadfield import QuadraticIrrational, sl2_equivalent
from quadexp.recognition import NoRelation, RecognitionResult, Recognized
from test_tooling import _fresh_interpreter

FAST = CaseParams(precision_bits=256, recognition=False)

PARALLEL_THEN_SERIAL = """
import json, sys
from quadexp.pipeline import CaseParams, run_range

params = CaseParams(precision_bits=256)
out = []
for workers in (2, 1):
    if "sympy" in sys.modules:
        sys.exit(f"sympy loaded before the range with {workers} workers")
    summary = run_range(13, 15, params, workers=workers)
    out.append({"verdicts": [r.verdict() for r in summary.reports],
                "reports": [r.dumps(with_timing=False)
                            for r in summary.reports],
                "csv": summary.csv()})
print(json.dumps(out))
"""


class TestRunCase:
    def test_d15_arithmetic(self):
        r = run_case(15, FAST)
        assert not r.excluded_flag
        assert r.conductors == {"frak_f": 1, "f": 1, "direction": "real-to-imag"}
        assert r.class_numbers["h_real_wide"] == 2
        assert r.class_numbers["h_imag"] == 2
        assert r.class_numbers["h_common"] == 2
        eps = r.epsilon["value"]
        assert (eps["a"], eps["b"], eps["c"], eps["d"]) == (4, 1, 1, 15)
        thetas = [QuadraticIrrational(t["theta"]["a"], t["theta"]["b"],
                                      t["theta"]["c"], t["theta"]["d"])
                  for t in r.theta_list]
        r15 = QuadraticIrrational(0, 1, 1, 15)
        assert any(sl2_equivalent(t, r15).sl2 for t in thetas)
        assert len(r.j_values) == 2
        assert not r.errors

    @pytest.mark.usefixtures("serial_searches")
    @pytest.mark.parametrize("recognize, calls", [(False, 1), (True, 5)])
    def test_unit_side_once_per_precision(self, monkeypatch, recognize,
                                          calls):
        # d = 14's four J values share log epsilon and exp(log log epsilon):
        # one evaluation for the case at p, and one in each J value's task
        # at 2p for the stability search
        counts = {"log_fixed": 0, "exp_fixed": 0}
        for name in counts:
            def spy(*args, name=name, original=getattr(recognition, name)):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(recognition, name, spy)
        r = run_case(14, CaseParams(precision_bits=256, recognition=recognize,
                                    conductor_direction="imag-to-real"))
        assert len(r.j_values) == 4 and not r.errors
        assert (r.stability is not None) == recognize
        assert counts == {"log_fixed": calls, "exp_fixed": calls}

    def test_excluded_shortcircuit(self):
        r = run_case(163, FAST)
        assert r.excluded_flag
        assert r.conductors is None and r.j_values is None
        assert r.verdict() == "excluded"

    def test_not_squarefree(self):
        with pytest.raises(NotSquareFree):
            run_case(12, FAST)

    def test_full_d15_report_complete(self):
        params = CaseParams(precision_bits=320)
        r = run_case(15, params)
        assert len(r.recognition_results) == 2
        for res, stab in zip(r.recognition_results, r.stability):
            assert res["verdict"] in ("recognized", "no_relation")
            assert stab["stable"]
        assert r.conjugacy is not None
        assert r.field_descriptor["degree"] == 4
        assert len(r.membership) == 2
        assert r.verdict() in ("recognized", "no_relation")

    def test_determinism(self):
        a = run_case(15, FAST).dumps(with_timing=False)
        b = run_case(15, FAST).dumps(with_timing=False)
        assert a == b

    def test_imag_to_real_direction(self):
        r = run_case(15, CaseParams(precision_bits=256, recognition=False,
                                    conductor_direction="imag-to-real"))
        assert r.conductors["frak_f"] == 1 and r.conductors["f"] == 1

    def test_bad_direction_rejected(self):
        # an input error when the parameters are built, not a report per case
        with pytest.raises(DomainError, match="got 'sideways'"):
            CaseParams(conductor_direction="sideways")

    def test_precision_past_int_str_limit_rejected(self, monkeypatch):
        # a report writes _digits_for(p) digits of each J value, which the
        # interpreter's int-to-str limit bounds (from Python 3.10.7; 4300
        # digits by default, 0 for none): the last precision within the
        # default runs, and the next is an input error when the parameters
        # are built, not a ValueError when the report is written
        run_case(15, CaseParams(precision_bits=14289, recognition=False))
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300,
                            raising=False)
        assert CaseParams(precision_bits=14289).precision_bits == 14289
        with pytest.raises(DomainError, match="int-to-str limit of 4300"):
            CaseParams(precision_bits=14290)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert CaseParams(precision_bits=14290).precision_bits == 14290

    def test_bad_cache_dir_rejected(self, tmp_path):
        # a cache directory that cannot be written is an input error when the
        # parameters are built, so run_case never starts; a missing one is
        # made by the first cache write, not by the check
        blocker = tmp_path / "file"
        blocker.write_text("")
        for path in (blocker, blocker / "sub"):
            with pytest.raises(DomainError, match=re.escape(
                    f"cannot write {path}: {blocker} is not a writable "
                    f"directory")):
                CaseParams(precision_bits=128, cache_dir=str(path))
        with pytest.raises(DomainError, match="cache_dir must not be empty"):
            CaseParams(cache_dir="")  # os.makedirs("") would fail at the write
        missing = tmp_path / "made" / "later"
        assert CaseParams(cache_dir=str(missing)).cache_dir == str(missing)
        assert not missing.parent.exists()

    @pytest.mark.parametrize("d,direction,bits,recognize,discs", [
        pytest.param(15, "real-to-imag", 512, False, [-15, 60],
                     id="real-to-imag"),
        pytest.param(15, "imag-to-real", 512, False, [-15, 60],
                     id="imag-to-real"),
        # no conductor matches: the case goes on with the given order,
        # which the search enumerated
        pytest.param(41, "real-to-imag", 512, False, [-164, 41],
                     id="no-match"),
        # the class polynomial's order is the matched or given imaginary one
        pytest.param(15, "real-to-imag", 256, True, [-15, 60],
                     id="recognition-real-to-imag"),
        pytest.param(14, "imag-to-real", 256, True, [-56, 56, 896],
                     id="recognition-imag-to-real")])
    def test_each_order_enumerated_once(self, monkeypatch, d, direction, bits,
                                        recognize, discs):
        seen = []

        def counting(enumerate_forms):
            def wrapper(disc):
                seen.append(disc)
                return enumerate_forms(disc)
            return wrapper

        for name in ("_definite_reduced_forms", "_indefinite_reduced_forms"):
            monkeypatch.setattr(classforms, name,
                                counting(getattr(classforms, name)))
        classforms._enumerated_class_group.cache_clear()
        r = run_case(d, CaseParams(precision_bits=bits, recognition=recognize,
                                   conductor_direction=direction))
        assert r.verdict() == ("no_match" if d == 41 else
                               "no_relation" if recognize else
                               "arithmetic_only")
        assert sorted(seen) == discs

    def test_lll_runs_at_reported_delta(self):
        # no LLL entry point takes a delta, so every reduction runs at the
        # kernels' constant, which the report states
        r = run_case(15, FAST)
        assert tuple(r.to_json()["params"]["delta"]) == _core.DELTA
        for kernel, params in ((recognition.lll_reduce, ["basis", "gso"]),
                               (_core.lll_reduce_rows, ["rows", "gso"]),
                               (_core.lll_reduce_rows_float, ["rows"])):
            assert list(signature(kernel).parameters) == params

    @pytest.mark.usefixtures("serial_searches")
    def test_no_float_reaches_sum(self, monkeypatch):
        # float sum() is compensated from Python 3.12 on, so a report resting
        # on one would differ between interpreters: the float kernel and the
        # class polynomial's precision estimate add floats left to right
        # themselves, and sum() sees integers only, exact in any order
        params = CaseParams(precision_bits=256)
        expected = run_case(15, params).dumps(with_timing=False)
        called = set()

        def integer_sum(module):
            def spy(items, start=0):
                items = list(items)
                floats = [x for x in items if isinstance(x, float)]
                if floats:
                    raise AssertionError(f"{module}: float sum() of {floats}")
                called.add(module)
                return sum(items, start)
            return spy

        for module in (_core, modular):
            monkeypatch.setattr(module, "sum", integer_sum(module.__name__),
                                raising=False)
        assert run_case(15, params).dumps(with_timing=False) == expected
        assert called == {"quadexp._core", "quadexp.modular"}

    @pytest.mark.usefixtures("serial_searches")
    def test_default_deg_bound_without_field_descriptor(self, monkeypatch):
        # the default is 4 h_imag, twice the class field's degree, whether
        # or not the descriptor builds; d = 14 has h_imag = 4
        def no_descriptor(*args):
            raise InsufficientPrecision("no descriptor")

        bounds = []

        def recorder(z, deg_bound, height_bound, p, start=None):
            bounds.append(deg_bound)
            return RecognitionResult(NoRelation(1), deg_bound, height_bound,
                                     p, [], 0)

        # the pipeline imports it from modular when recognition starts
        monkeypatch.setattr(modular, "hcf_generator", no_descriptor)
        monkeypatch.setattr(pipeline, "min_poly", recorder)
        r = run_case(14, CaseParams(precision_bits=256,
                                    conductor_direction="imag-to-real"))
        assert r.class_numbers["h_imag"] == 4
        assert r.field_descriptor is None and r.membership is None
        assert bounds == [16] * 2 * len(r.j_values)

    @pytest.mark.usefixtures("serial_searches")
    def test_stability_search_starts_from_p_basis(self, monkeypatch):
        # every search climbs: each p search from the identity at scale 0,
        # each 2p search from the basis its p search returned; rung k reduces
        # C_k [I | X_r] at increasing scales r, C_(k+1) is rung k's reduced
        # coefficient rows, and the top rung's lattice is the cold [I | X_s].
        # The rungs are read through the rung kernel; the exact kernel then
        # reduces the top rung's rows once more into the search's result
        events = []
        power_rows = recognition._power_rows
        kernel = recognition.lll_reduce_rows_float

        def rows_spy(elements, s):
            rows = power_rows(elements, s)  # the rows of X_s
            events.append(("rows", s, rows))
            return rows

        def kernel_spy(rows):
            reduced = kernel(rows)
            events.append(("reduce", rows, reduced))
            return reduced

        results = []

        def search_spy(search):
            def spy(z, deg_bound, height_bound, p, **kwargs):
                events.append(("search", z, (deg_bound, height_bound, p)))
                results.append(search(z, deg_bound, height_bound, p,
                                      **kwargs))
                return results[-1]
            return spy

        monkeypatch.setattr(recognition, "_power_rows", rows_spy)
        monkeypatch.setattr(recognition, "lll_reduce_rows_float", kernel_spy)
        # the p and the 2p searches run through the pipeline's binding
        monkeypatch.setattr(pipeline, "min_poly",
                            search_spy(pipeline.min_poly))
        r = run_case(15, CaseParams(precision_bits=256))
        n = r.recognition_results[0]["deg_bound"] + 1

        def rungs(evs):
            # (scale, power rows, reduced input, reduced output) per reduction
            # of an n-row lattice; membership searches have fewer rows
            evs = [e for e in evs if e[0] != "search" and len(e[2]) == n]
            return [(s, rows, inp, out) for (_, s, rows), (_, inp, out)
                    in zip(evs[::2], evs[1::2])]

        def chained(ladder):
            for (_, _, _, out), (_, _, inp, _) in zip(ladder, ladder[1:]):
                assert [row[:n] for row in inp] == [row[:n] for row in out]

        marks = [i for i, e in enumerate(events) if e[0] == "search"]
        searches = [(events[mark][1:], rungs(events[mark + 1:end]))
                    for mark, end in zip(marks, marks[1:] + [len(events)])]
        # two J values: each one's search at p, then its climb at 2p
        p_searches, climbs = searches[0::2], searches[1::2]
        assert len(p_searches) == len(climbs) == 2
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for ((_, p_args), ladder), ((z, args), climb), result in zip(
                p_searches, climbs, results[0::2]):
            # the p search climbs from the identity at scale RUNG_BITS up
            # to the p scale
            p_scales = [s for s, _, _, _ in ladder]
            assert p_args[2] == 256 and args[2] == 512
            assert p_scales[0] == recognition.RUNG_BITS
            assert [row[:n] for row in ladder[0][2]] == identity
            assert all(a < b for a, b in zip(p_scales, p_scales[1:]))
            assert p_scales[-1] == result.scale_bits
            chained(ladder)
            s_p, _, _, reduced_p = ladder[-1]
            # the p result is the exact reduction of its last rung's rows
            assert result.coefficient_basis == \
                [row[:n] for row in recognition.lll_reduce(reduced_p)]
            # the 2p search climbs from the p result
            scales = [s for s, _, _, _ in climb]
            assert len(climb) > 1
            assert all(a < b for a, b in zip([s_p] + scales, scales))
            assert [row[:n] for row in climb[0][2]] == \
                result.coefficient_basis
            chained(climb)
            # the top rung reduces another basis of the cold 2p lattice
            events.clear()
            recognition.min_poly(z, *args)
            s_cold, cold_rows, _, _ = rungs(events)[-1]
            s_top, _, top, _ = climb[-1]
            assert s_top == s_cold
            assert [[sum(c * x[j] for c, x in zip(row[:n], cold_rows))
                     for j in (0, 1)] for row in top] == \
                [row[n:] for row in top]

    @pytest.mark.parametrize("poly_2p,stable", [((-2, 0, 1), True),
                                                ((-3, 0, 1), False)])
    @pytest.mark.usefixtures("serial_searches")
    def test_stable_compares_polynomials(self, monkeypatch, poly_2p, stable):
        # two recognized verdicts are stable only with the same polynomial
        def recognizes(z, deg_bound, height_bound, p, **kwargs):
            coefficients = (-2, 0, 1) if p == 256 else poly_2p
            found = Recognized(IntegerPolynomial(coefficients), -100.0)
            return RecognitionResult(found, deg_bound, height_bound, p, [], 0)

        monkeypatch.setattr(pipeline, "min_poly", recognizes)
        r = run_case(15, CaseParams(precision_bits=256))
        assert [(e["verdict_p"], e["verdict_2p"]) for e in r.stability] == \
            [("recognized", "recognized")] * 2
        assert [e["same_minpoly"] for e in r.stability] == [stable] * 2
        assert [e["stable"] for e in r.stability] == [stable] * 2

    @pytest.mark.usefixtures("serial_searches")
    def test_error_in_a_task_leaves_its_blocks_empty(self, monkeypatch):
        # a J value's three steps are one task: a typed error at 2p drops
        # the p results with it, and the case's arithmetic stays
        min_poly = pipeline.min_poly

        def fails_at_2p(z, deg_bound, height_bound, p, **kwargs):
            if p == 512:
                raise InsufficientPrecision("no search at 2p")
            return min_poly(z, deg_bound, height_bound, p, **kwargs)

        monkeypatch.setattr(pipeline, "min_poly", fails_at_2p)
        r = run_case(15, CaseParams(precision_bits=256))
        assert r.errors == ["InsufficientPrecision: no search at 2p"]
        assert r.recognition_results is None and r.conjugacy is None
        assert r.stability is None and r.membership is None
        assert r.field_descriptor is not None and len(r.j_values) == 2
        assert r.verdict() == "error"

    @pytest.mark.usefixtures("serial_searches")
    def test_no_2p_evaluation_after_a_failed_p_search(self, monkeypatch):
        # each task evaluates its J value at 2p only after its p search:
        # at 64 bits the p search fails, so J is never evaluated at 128
        precisions = []
        evaluate_J = pipeline.evaluate_J

        def spy(thetas, epsilon, p):
            precisions.append(p)
            return evaluate_J(thetas, epsilon, p)

        monkeypatch.setattr(pipeline, "evaluate_J", spy)
        r = run_case(15, CaseParams(precision_bits=64))
        assert r.verdict() == "error" and r.recognition_results is None
        assert precisions == [64]

    def test_no_match_recorded(self):
        r = run_case(15, CaseParams(precision_bits=256, recognition=False,
                                    search_bound=0))
        assert any("NoMatchWithinBound" in e for e in r.errors)
        assert r.verdict() == "no_match"

    def test_imag_to_real_no_match_reported_once(self):
        # without a real conductor the case stops at its one failure
        r = run_case(23, CaseParams(recognition=False,
                                    conductor_direction="imag-to-real"))
        assert r.errors == ["NoMatchWithinBound: no conductor <= 100 "
                            "matches h=3"]
        assert r.verdict() == "no_match"


class TestRunRange:
    def test_2_to_20(self):
        summary = run_range(2, 20, FAST)
        ds = [r.d for r in summary.reports]
        assert ds == [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
        counts = summary.counts()
        assert counts["excluded"] == 5  # 2, 3, 7, 11, 19
        assert len(summary.reports) == 12

    def test_singleton(self):
        summary = run_range(15, 15, FAST)
        assert len(summary.reports) == 1
        assert summary.reports[0].dumps(with_timing=False) == \
            run_case(15, FAST).dumps(with_timing=False)

    def test_empty_range(self):
        assert run_range(20, 2, FAST).reports == []

    def test_csv_table(self):
        summary = run_range(13, 15, FAST)
        lines = summary.csv().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 3  # 13, 14, 15
        row15 = lines[-1].split(",")
        assert row15[0] == "15" and row15[4] == "(4+1*sqrt(15))/1"

    def test_exclusion_consistency(self):
        summary = run_range(1, 30, FAST)
        for r in summary.reports:
            assert r.excluded_flag == (r.d in EXCLUDED_D)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unexpected_exception_costs_one_d(self, monkeypatch, workers):
        original = pipeline.fundamental_unit
        clean = {d: run_case(d, FAST).dumps(with_timing=False) for d in (13, 15)}
        # run_case records QuadexpError only; anything else is a bug
        for error in (ZeroDivisionError("division by zero"),
                      ValueError("bad value")):
            def crash_at_14(order, error=error):
                if order.d == 14:
                    raise error
                return original(order)

            monkeypatch.setattr(pipeline, "fundamental_unit", crash_at_14)
            summary = run_range(13, 15, FAST, workers=workers)
            assert [r.d for r in summary.reports] == [13, 14, 15]
            r13, r14, r15 = summary.reports
            assert r14.verdict() == "error"
            assert r14.errors == [f"{type(error).__name__}: {error}"]
            # the range's isolation reports it; run_case did not record it
            assert r14.conductors is None
            assert r13.dumps(with_timing=False) == clean[13]
            assert r15.dumps(with_timing=False) == clean[15]

    def test_workers_match_serial(self):
        serial = run_range(2, 8, FAST)
        parallel = run_range(2, 8, FAST, workers=2)
        for a, b in zip(serial.reports, parallel.reports):
            assert a.dumps(with_timing=False) == b.dumps(with_timing=False)

    def test_workers_match_serial_with_recognition(self):
        # d = 15 runs the relation searches, which factor their candidates
        # with sympy. The ranges run in a fresh interpreter, since test
        # collection loads sympy here: that process has not loaded it when
        # the pool starts, nor after the parallel range, so the forked
        # workers loaded it themselves
        res = _fresh_interpreter(PARALLEL_THEN_SERIAL)
        assert res.returncode == 0, res.stderr
        parallel, serial = json.loads(res.stdout)
        assert serial["verdicts"] == ["no_match", "no_match", "no_relation"]
        assert parallel["reports"] == serial["reports"]
        assert parallel["csv"] == serial["csv"]

    def test_pool_sized_to_cases(self, serial_pool):
        # under fork a pool starts all max_workers processes at its first
        # submit, so it must hold no more processes than there are cases
        summary = run_range(13, 15, FAST, workers=8)
        assert [r.d for r in summary.reports] == [13, 14, 15]
        run_range(2, 8, FAST, workers=2)  # d = 2, 3, 5, 6, 7
        run_range(15, 15, FAST, workers=8)  # one case: no pool
        assert serial_pool == [3, 2]

    def test_range_never_nests_pools(self, serial_pool, counted_forks,
                                     monkeypatch):
        # a range's workers run their cases' searches serially, so a range
        # of N workers holds N processes whatever the machine's CPU count
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        params = CaseParams(precision_bits=256)
        run_case(15, params)  # the control: alone, its 2 searches fan out
        assert len(counted_forks) == 1 and serial_pool == []
        summary = run_range(13, 15, params, workers=2)
        assert [r.verdict() for r in summary.reports] == \
            ["no_match", "no_match", "no_relation"]
        assert serial_pool == [2]  # the range's pool alone
        assert len(counted_forks) == 1


@pytest.fixture
def serial_pool(monkeypatch):
    """Sizes of the pools built while the test runs, each a stand-in for
    ``ProcessPoolExecutor`` that runs its tasks in this process as a worker
    would: there ``multiprocessing.parent_process()`` is not None. The
    pools' ``mp_context`` arguments are listed in its ``contexts``."""

    class Sizes(list):
        pass

    sizes = Sizes()
    sizes.contexts = []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)
            sizes.contexts.append(mp_context)

        def map(self, fn, iterable):
            with monkeypatch.context() as worker:
                worker.setattr(multiprocessing, "parent_process", object)
                return list(map(fn, iterable))

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.fixture
def counted_forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts while the test
    runs, as seen from this process."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child():
    # waitpid(-1) raises ChildProcessError only when no child, running or
    # exited and unreaped, is left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the cases of the comparison below: two with every stage, and one whose p
# searches raise InsufficientPrecision
POOLED_CASES = [(14, 256, "imag-to-real"), (15, 384, "real-to-imag"),
                (15, 64, "real-to-imag")]

SERIAL_SEARCHES = f"""
import json, os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from quadexp.pipeline import CaseParams, run_case

reports = [run_case(d, CaseParams(precision_bits=p, conductor_direction=c))
           for d, p, c in {POOLED_CASES!r}]
for module in ("concurrent.futures", "multiprocessing"):
    if module in sys.modules:
        sys.exit(f"a recognition run on one CPU loaded {{module}}")
print(json.dumps([r.dumps(with_timing=False) for r in reports]))
"""

# a case's searches on one CPU, then fanned out over two
FORKED_SEARCHES = """
import json, os, sys
from quadexp import pipeline
from quadexp.pipeline import CaseParams, run_case

params = CaseParams(precision_bits=256)
pipeline._usable_cpus = lambda: 1
serial = run_case(15, params).dumps(with_timing=False)
forks = []
fork = os.fork

def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counted_fork
pipeline._usable_cpus = lambda: 2
forked = run_case(15, params).dumps(with_timing=False)
print(json.dumps({"forks": len(forks), "same": forked == serial,
                  "loaded": [m for m in ("concurrent.futures",
                                         "multiprocessing")
                             if m in sys.modules]}))
"""


class TestSearchPool:
    @pytest.mark.parametrize("platform", ["linux", "darwin"])
    def test_pool_forks_on_linux(self, serial_pool, monkeypatch, platform):
        # fork on Linux, where Python 3.14 defaults to forkserver, which
        # would re-import quadexp in every worker and leave a server
        # process; elsewhere the platform's default start method
        monkeypatch.setattr(pipeline.sys, "platform", platform)
        assert pipeline._process_map(abs, [1, -2], 2) == [1, 2]
        assert serial_pool == [2]
        context, = serial_pool.contexts
        if platform == "linux":
            assert context.get_start_method() == "fork"
        else:
            assert context is None

    def test_case_tasks_pool_off_linux(self, serial_pool, counted_forks,
                                       monkeypatch):
        monkeypatch.setattr(pipeline.sys, "platform", "darwin")
        assert pipeline._fork_map(abs, [1, -2], 2) == [1, 2]
        assert serial_pool == [2] and counted_forks == []

    def test_fan_out_keeps_order_and_first_failure(self, counted_forks):
        assert pipeline._fork_map(abs, [-1, 2, -3, 4, -5], 3) == \
            [1, 2, 3, 4, 5]
        assert len(counted_forks) == 2  # this process runs tasks 0 and 3

        def fails_at_1_and_2(i):
            if i in (1, 2):  # 1 in the child, 2 here
                raise (ValueError if i == 1 else KeyError)(i)
            return i

        with pytest.raises(ValueError):
            pipeline._fork_map(fails_at_1_and_2, [0, 1, 2, 3], 2)
        _assert_no_child()

    def test_interrupt_kills_children(self):
        def interrupted_here(i):
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # in the child, until it is killed

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            pipeline._fork_map(interrupted_here, [0, 1], 2)
        assert time.monotonic() - t0 < 30
        _assert_no_child()

    def test_pooled_reports_match_serial(self, counted_forks, monkeypatch):
        # the serial side runs on one CPU in a fresh interpreter, which
        # then must not load the pool at all
        res = _fresh_interpreter(SERIAL_SEARCHES)
        assert res.returncode == 0, res.stderr
        serial = json.loads(res.stdout)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        pooled = [run_case(d, CaseParams(precision_bits=p,
                                         conductor_direction=c))
                  for d, p, c in POOLED_CASES]
        assert len(counted_forks) == 3  # one child per case, beside us
        assert pooled[-1].errors == ["InsufficientPrecision: only 62 bits "
                                     "trusted; the lattice needs at least 72"]
        assert [r.dumps(with_timing=False) for r in pooled] == serial

    def test_fan_out_loads_no_pool(self):
        # forked in a fresh interpreter, which has not loaded the pool's
        # modules for collecting these tests
        res = _fresh_interpreter(FORKED_SEARCHES)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"forks": 1, "same": True,
                                          "loaded": []}

    def test_case_leaves_no_process(self, monkeypatch):
        # every child is reaped when run_case returns: normally, after a
        # typed error raised in a child, and after a bug raised in one
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        _assert_no_child()
        r = run_case(15, CaseParams(precision_bits=256))
        assert r.verdict() == "no_relation" and not r.errors
        _assert_no_child()
        r = run_case(15, CaseParams(precision_bits=64))
        assert r.errors[0].startswith("InsufficientPrecision:")
        _assert_no_child()
        min_poly = pipeline.min_poly
        parent = os.getpid()

        def fails_at_2p_in_a_child(z, deg_bound, height_bound, p, **kwargs):
            # the forked children inherit this stub; here it searches
            if p == 512 and os.getpid() != parent:
                raise ZeroDivisionError("division by zero")
            return min_poly(z, deg_bound, height_bound, p, **kwargs)

        monkeypatch.setattr(pipeline, "min_poly", fails_at_2p_in_a_child)
        with pytest.raises(ZeroDivisionError):
            run_case(15, CaseParams(precision_bits=256))
        _assert_no_child()

    def test_dead_child_is_a_typed_error(self, monkeypatch):
        # a child that ends without reporting, as an out-of-memory kill
        # would end it, costs its case's searches, not the run
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        min_poly = pipeline.min_poly
        parent = os.getpid()

        def dies_in_a_child(z, deg_bound, height_bound, p, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return min_poly(z, deg_bound, height_bound, p, **kwargs)

        monkeypatch.setattr(pipeline, "min_poly", dies_in_a_child)
        r = run_case(15, CaseParams(precision_bits=256))
        assert r.errors == ["WorkerLost: the process running tasks [1] "
                            "ended with exit code 1 before reporting"]
        assert r.recognition_results is None and r.stability is None
        _assert_no_child()


class TestCacheCoherence:
    def test_cold_warm_equal(self, tmp_path):
        params = CaseParams(precision_bits=320, cache_dir=str(tmp_path))
        cold = run_case(15, params).dumps(with_timing=False)
        warm = run_case(15, params).dumps(with_timing=False)
        bypass = run_case(15, CaseParams(precision_bits=320)).dumps(with_timing=False)
        assert cold == warm == bypass
        # the recognize benchmark's order: a report never depends on what
        # ran before in its directory
        cache = str(tmp_path / "benchmark-order")
        run_case(15, CaseParams(cache_dir=cache))
        warm = run_case(15, CaseParams(precision_bits=384, cache_dir=cache))
        bypass = run_case(15, CaseParams(precision_bits=384))
        assert warm.dumps(with_timing=False) == bypass.dumps(with_timing=False)


class TestVerifySymbolic:
    def test_remark1(self):
        checks = verify_symbolic("remark1")
        assert len(checks) == 4
        assert all(c.passed for c in checks)

    def test_lemma1(self):
        checks = verify_symbolic("lemma1")
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "lemma1.eq11_constraints" in names
        assert "lemma1.eq12_collapse_to_eq9" in names

    def test_lemma2(self):
        checks = verify_symbolic("lemma2")
        assert all(c.passed for c in checks)

    def test_jacobi(self):
        checks = verify_symbolic("jacobi")
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("suite,completions", [("remark1", 1), ("lemma2", 3)])
    def test_each_system_completed_once(self, monkeypatch, suite, completions):
        names = []
        original = sklyanin.complete

        def counting(system, *args, **kwargs):
            names.append(system.name)
            return original(system, *args, **kwargs)

        monkeypatch.setattr(sklyanin, "complete", counting)
        assert all(c.passed for c in verify_symbolic(suite))
        assert len(names) == completions == len(set(names))

    def test_pole_detection_needs_pole_error(self, monkeypatch):
        # a crash at the pole is not a detected pole
        original = symbolic.jacobi_coefficients

        def crash_at_pole(alpha, beta, gamma):
            if beta == -1:
                raise ZeroDivisionError("division by zero")
            return original(alpha, beta, gamma)

        monkeypatch.setattr(symbolic, "jacobi_coefficients", crash_at_pole)
        with pytest.raises(ZeroDivisionError):
            verify_symbolic("jacobi")


def run_cli(*argv: str) -> tuple[int, str]:
    """``cli.main(argv)`` in process: its exit code and stdout with stderr."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue()
    return 0, out.getvalue()


class TestCLI:
    def test_case_json(self, tmp_path):
        out = tmp_path / "r.json"
        code, output = run_cli("case", "15", "--precision-bits", "256",
                               "--skip-recognition", "--json", str(out))
        assert code == 0, output
        blob = json.loads(out.read_text())
        assert blob["schema"] == 1 and blob["d"] == 15

    def test_case_below_lattice_precision_records_error(self, tmp_path):
        # too few bits for the relation lattice is a typed failure of the
        # case, recorded in its report, not an input error
        out = tmp_path / "r.json"
        code, output = run_cli("case", "15", "--precision-bits", "40",
                               "--json", str(out))
        assert code == 0, output
        errors = json.loads(out.read_text())["errors"]
        assert errors and all(e.startswith("InsufficientPrecision: ")
                              for e in errors)

    def test_case_not_squarefree_exit1(self):
        code, output = run_cli("case", "12")
        assert code == 1, output
        assert "input error: 12 is not a square-free positive integer" \
            in output

    def test_range_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        code, output = run_cli("range", "13", "15", "--precision-bits", "256",
                               "--skip-recognition", "--csv", str(out))
        assert code == 0, output
        assert out.read_text().startswith(",".join(CSV_HEADER))

    def test_symbolic(self):
        code, output = run_cli("symbolic", "remark1")
        assert code == 0
        assert output.count("PASS") == 4

    def test_help_exit0(self):
        for argv in (["--help"], ["case", "--help"], ["range", "--help"],
                     ["symbolic", "--help"]):
            code, output = run_cli(*argv)
            assert code == 0, (argv, output)
            assert output.startswith("usage: quadexp"), (argv, output)

    def test_options_follow_case_params(self, tmp_path):
        # every default comes from CaseParams, every suite from the pipeline,
        # whose names are those of the suites the symbolic module runs
        out = tmp_path / "r.json"
        code, output = run_cli("case", "15", "--skip-recognition",
                               "--json", str(out))
        assert code == 0, output
        assert json.loads(out.read_text())["params"] == \
            CaseParams(recognition=False).to_json()
        suite, = (action for action in cli.COMMANDS.choices["symbolic"]._actions
                  if action.dest == "suite")
        assert list(suite.choices) == sorted(pipeline.SYMBOLIC_SUITES)
        assert list(symbolic.SUITES) == list(pipeline.SYMBOLIC_SUITES)

    @pytest.mark.parametrize("argv", [
        [], ["case", "abc"], ["case", "15", "--bogus"],
        ["case", "15", "--conductor-direction", "sideways"], ["range", "2"],
        ["symbolic", "nosuch"], ["case", "15", "--prec", "256"],
        ["case", "15", "-h"],
    ])
    def test_malformed_command_line_exit1(self, monkeypatch, argv):
        # a command line the parser rejects is an input error, not a bug,
        # and abbreviated or short options are not accepted
        def crash(*args, **kwargs):
            raise RuntimeError("ran a malformed command line")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        monkeypatch.setattr(cli, "verify_symbolic", crash)
        code, output = run_cli(*argv)
        assert code == 1, output
        assert "input error: " in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("argv", [
        ["case", "15", "--json"], ["range", "13", "15", "--json"],
        ["range", "13", "15", "--csv"], ["symbolic", "jacobi", "--json"],
    ])
    def test_unwritable_output_exit1(self, monkeypatch, tmp_path, argv):
        # an output path that cannot be written is an input error, found
        # before any work, not after the run has been paid for
        def crash(*args, **kwargs):
            raise RuntimeError("ran with an unwritable output path")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        monkeypatch.setattr(cli, "verify_symbolic", crash)
        for path in (tmp_path / "missing" / "out", tmp_path):
            code, output = run_cli(*argv, str(path))
            assert code == 1, output
            assert f"input error: argument {argv[-1]}: cannot write {path}" \
                in output
            assert "Traceback" not in output
        assert list(tmp_path.iterdir()) == []

    def test_output_written_only_after_the_run(self, monkeypatch, tmp_path):
        # the check before the run neither truncates an existing file nor
        # leaves a new one behind when the run fails
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_case", crash)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text("kept")
        for path in (old, new):
            code, output = run_cli("case", "15", "--json", str(path))
            assert code == 2, output
        assert old.read_text() == "kept" and not new.exists()

    @pytest.mark.parametrize("bits", [0, -8, 14290])
    @pytest.mark.parametrize("command", [["case", "15"], ["range", "13", "15"]])
    def test_bad_precision_exit1(self, monkeypatch, command, bits):
        # a nonpositive precision, or one whose report digits pass the
        # default int-to-str limit, is an input error, found before any work
        def crash(*args, **kwargs):
            raise RuntimeError("ran with a bad precision")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300,
                            raising=False)
        code, output = run_cli(*command, "--precision-bits", str(bits),
                               "--skip-recognition")
        assert code == 1, output
        assert "input error: precision_bits " + (
            "must be positive" if bits < 1 else
            "14290 needs more report digits") in output
        with pytest.raises(QuadexpError):
            CaseParams(precision_bits=bits)

    @pytest.mark.parametrize("command", [["case", "15"], ["range", "13", "15"]])
    def test_bad_cache_dir_exit1(self, monkeypatch, tmp_path, command):
        # a cache directory that cannot be made or written is an input
        # error, found before any work, not at the first cache write
        def crash(*args, **kwargs):
            raise RuntimeError("ran with a bad cache directory")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for path in (blocker, blocker / "sub"):
            code, output = run_cli(*command, "--cache-dir", str(path),
                                   "--precision-bits", "128")
            assert code == 1, output
            assert f"input error: cannot write " \
                f"{path}: {blocker} is not a writable directory" in output
            assert "Traceback" not in output
        missing = tmp_path / "made" / "later"
        assert CaseParams(cache_dir=str(missing)).cache_dir == str(missing)
        assert CaseParams(cache_dir=str(tmp_path)).cache_dir == str(tmp_path)
        assert not missing.parent.exists()

    @pytest.mark.parametrize("option,value,least,message", [
        ("--search-bound", -5, 0, "search_bound must be nonnegative, got -5"),
        ("--given-conductor", 0, 1, "given_conductor must be positive, got 0"),
        ("--deg-bound", 0, 1, "deg_bound must be positive, got 0"),
        ("--height-bound", 0, 1, "height_bound must be positive, got 0"),
    ])
    @pytest.mark.parametrize("command", [["case", "15"], ["range", "13", "15"]])
    def test_bad_bound_exit1(self, monkeypatch, command, option, value, least,
                             message):
        # an out-of-domain bound is an input error, found before any work
        def crash(*args, **kwargs):
            raise RuntimeError("ran with a bad bound")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        code, output = run_cli(*command, option, str(value),
                               "--skip-recognition")
        assert code == 1, output
        assert f"input error: {message}" in output
        field = option[2:].replace("-", "_")
        with pytest.raises(QuadexpError):
            CaseParams(**{field: value})
        CaseParams(**{field: least})

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_exit1(self, monkeypatch, workers):
        # fewer than one worker is an input error, found before any case runs
        def crash(*args, **kwargs):
            raise RuntimeError("ran with a bad worker count")

        monkeypatch.setattr(pipeline, "_run_case_isolated", crash)
        code, output = run_cli("range", "13", "15", "--workers", str(workers),
                               "--skip-recognition")
        assert code == 1, output
        assert f"input error: workers must be positive, got {workers}" \
            in output
        with pytest.raises(QuadexpError):
            run_range(13, 15, FAST, workers=workers)

    def test_untyped_failure_exit2(self, monkeypatch):
        # a ValueError inside a case is a bug, not a recorded failure
        def crash(order):
            raise ValueError("bad value")

        monkeypatch.setattr(pipeline, "fundamental_unit", crash)
        code, output = run_cli("case", "14")
        assert code == 2, output
        assert "internal error: ValueError: bad value" in output

    def test_error_in_a_symbolic_suite_exit2(self, monkeypatch):
        # the suite name is the command's only input, and the parser checks
        # it, so a typed error raised inside a suite is internal
        def crash(*args, **kwargs):
            raise DomainError("boom")

        monkeypatch.setattr(sklyanin, "complete", crash)
        code, output = run_cli("symbolic", "remark1")
        assert code == 2, output
        assert "internal error: DomainError: boom" in output
        assert "input error" not in output

    def test_unexpected_exception_exit2(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        monkeypatch.setattr(cli, "verify_symbolic", crash)
        for args in (["case", "15"], ["range", "13", "15"],
                     ["symbolic", "jacobi"]):
            code, output = run_cli(*args)
            assert code == 2, (args, output)
            assert "internal error: RuntimeError: boom" in output
            assert "Traceback" in output
