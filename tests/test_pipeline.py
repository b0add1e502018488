import concurrent.futures
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from quadexp import classforms, cli, pipeline, recognition, sklyanin
from quadexp.cli import main
from quadexp.errors import DomainError, NotSquareFree, QuadexpError
from quadexp.modular import IntegerPolynomial
from quadexp.pipeline import (CSV_HEADER, CaseParams, EXCLUDED_D, run_case,
                              run_range, verify_symbolic)
from quadexp.quadfield import QuadraticIrrational, sl2_equivalent
from quadexp.recognition import RecognitionResult, Recognized
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
        r15 = QuadraticIrrational.sqrt_of(15)
        assert any(sl2_equivalent(t, r15).sl2 for t in thetas)
        assert len(r.j_values) == 2
        assert not r.errors

    @pytest.mark.parametrize("recognize, calls", [(False, 1), (True, 2)])
    def test_unit_side_once_per_precision(self, monkeypatch, recognize,
                                          calls):
        # d = 14's four J values share log epsilon and exp(log log epsilon):
        # one evaluation at p, and one at 2p for the stability stage
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

    @pytest.mark.parametrize("d,direction", [
        pytest.param(15, "real-to-imag", id="real-to-imag"),
        pytest.param(15, "imag-to-real", id="imag-to-real"),
        # no conductor matches: the case goes on with the given order's
        # summary that the search built
        pytest.param(41, "real-to-imag", id="no-match")])
    def test_each_order_enumerated_once(self, monkeypatch, d, direction):
        seen = []
        original = classforms.class_group

        def counting(order, *args, **kwargs):
            seen.append((order.field_kind, order.d, order.conductor))
            return original(order, *args, **kwargs)

        monkeypatch.setattr(classforms, "class_group", counting)
        monkeypatch.setattr(pipeline, "class_group", counting)
        r = run_case(d, CaseParams(recognition=False,
                                   conductor_direction=direction))
        assert r.verdict() == ("no_match" if d == 41 else "arithmetic_only")
        assert sorted(seen) == [("imaginary", d, 1), ("real", d, 1)]

    def test_lll_runs_at_reported_delta(self, monkeypatch):
        deltas = []
        original = recognition.lll_reduce

        def spy(basis, delta=recognition.DEFAULT_DELTA):
            deltas.append(delta)
            return original(basis, delta)

        monkeypatch.setattr(recognition, "lll_reduce", spy)
        r = run_case(15, CaseParams(precision_bits=256))
        reported = Fraction(*r.to_json()["params"]["delta"])
        assert deltas and set(deltas) == {reported}

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

        def kernel_spy(rows, *delta):
            reduced = kernel(rows, *delta)
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
        # two J values: one search each at p, then one climb each at 2p
        p_searches, climbs = searches[:2], searches[2:]
        assert len(p_searches) == len(climbs) == 2
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for ((_, p_args), ladder), ((z, args), climb), result in zip(
                p_searches, climbs, results):
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

    def test_pool_sized_to_cases(self, monkeypatch):
        # under fork a pool starts all max_workers processes at its first
        # submit, so it must hold no more processes than there are cases
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        summary = run_range(13, 15, FAST, workers=8)
        assert [r.d for r in summary.reports] == [13, 14, 15]
        run_range(2, 8, FAST, workers=2)  # d = 2, 3, 5, 6, 7
        run_range(15, 15, FAST, workers=8)  # one case: no pool
        assert sizes == [3, 2]


class TestCacheCoherence:
    def test_cold_warm_equal(self, tmp_path):
        params = CaseParams(precision_bits=320, cache_dir=str(tmp_path))
        cold = run_case(15, params).dumps(with_timing=False)
        warm = run_case(15, params).dumps(with_timing=False)
        bypass = run_case(15, CaseParams(precision_bits=320)).dumps(with_timing=False)
        assert cold == warm == bypass


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
        original = pipeline.jacobi_coefficients

        def crash_at_pole(alpha, beta, gamma):
            if beta == -1:
                raise ZeroDivisionError("division by zero")
            return original(alpha, beta, gamma)

        monkeypatch.setattr(pipeline, "jacobi_coefficients", crash_at_pole)
        with pytest.raises(ZeroDivisionError):
            verify_symbolic("jacobi")


class TestCLI:
    def test_case_json(self, tmp_path):
        out = tmp_path / "r.json"
        res = CliRunner().invoke(main, ["case", "15", "--precision-bits", "256",
                                        "--skip-recognition", "--json", str(out)])
        assert res.exit_code == 0, res.output
        blob = json.loads(out.read_text())
        assert blob["schema"] == 1 and blob["d"] == 15

    def test_case_not_squarefree_exit1(self):
        res = CliRunner().invoke(main, ["case", "12"])
        assert res.exit_code == 1

    def test_range_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        res = CliRunner().invoke(main, ["range", "13", "15", "--precision-bits",
                                        "256", "--skip-recognition",
                                        "--csv", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().startswith(",".join(CSV_HEADER))

    def test_symbolic(self):
        res = CliRunner().invoke(main, ["symbolic", "remark1"])
        assert res.exit_code == 0
        assert res.output.count("PASS") == 4

    def test_options_follow_case_params(self, tmp_path):
        # every default comes from CaseParams, every suite from the pipeline
        out = tmp_path / "r.json"
        res = CliRunner().invoke(main, ["case", "15", "--skip-recognition",
                                        "--json", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["params"] == \
            CaseParams(recognition=False).to_json()
        suites = cli.symbolic.params[0].type.choices
        assert list(suites) == sorted(pipeline.SYMBOLIC_SUITES)

    @pytest.mark.parametrize("bits", [0, -8])
    @pytest.mark.parametrize("command", [["case", "15"], ["range", "13", "15"]])
    def test_bad_precision_exit1(self, monkeypatch, command, bits):
        # a nonpositive precision is an input error, found before any work
        def crash(*args, **kwargs):
            raise RuntimeError("ran with a bad precision")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        res = CliRunner().invoke(main, [*command, "--precision-bits", str(bits),
                                        "--skip-recognition"])
        assert res.exit_code == 1, res.output
        assert "input error: precision_bits must be positive" in res.output
        with pytest.raises(QuadexpError):
            CaseParams(precision_bits=bits)

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
        res = CliRunner().invoke(main, [*command, option, str(value),
                                        "--skip-recognition"])
        assert res.exit_code == 1, res.output
        assert f"input error: {message}" in res.output
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
        res = CliRunner().invoke(main, ["range", "13", "15", "--workers",
                                        str(workers), "--skip-recognition"])
        assert res.exit_code == 1, res.output
        assert f"input error: workers must be positive, got {workers}" \
            in res.output
        with pytest.raises(QuadexpError):
            run_range(13, 15, FAST, workers=workers)

    def test_untyped_failure_exit2(self, monkeypatch):
        # a ValueError inside a case is a bug, not a recorded failure
        def crash(order):
            raise ValueError("bad value")

        monkeypatch.setattr(pipeline, "fundamental_unit", crash)
        res = CliRunner().invoke(main, ["case", "14"])
        assert res.exit_code == 2, res.output
        assert "internal error: ValueError: bad value" in res.output

    def test_unexpected_exception_exit2(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_case", crash)
        monkeypatch.setattr(cli, "run_range", crash)
        monkeypatch.setattr(cli, "verify_symbolic", crash)
        for args in (["case", "15"], ["range", "13", "15"],
                     ["symbolic", "jacobi"]):
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 2, (args, res.output)
            assert "internal error: RuntimeError: boom" in res.output
            assert "Traceback" in res.output
