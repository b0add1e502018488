import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from quadexp import classforms, cli, pipeline, recognition, sklyanin
from quadexp.cli import main
from quadexp.errors import NotSquareFree
from quadexp.pipeline import (CSV_HEADER, CaseParams, EXCLUDED_D, run_case,
                              run_range, verify_symbolic)
from quadexp.quadfield import QuadraticIrrational, sl2_equivalent

FAST = CaseParams(precision_bits=256, recognition=False)


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

    def test_bad_direction_recorded(self):
        r = run_case(15, CaseParams(precision_bits=256, recognition=False,
                                    conductor_direction="sideways"))
        assert r.errors == ["DomainError: bad direction sideways"]

    @pytest.mark.parametrize("direction", ["real-to-imag", "imag-to-real"])
    def test_each_order_enumerated_once(self, monkeypatch, direction):
        seen = []
        original = classforms.class_group

        def counting(order, *args, **kwargs):
            seen.append((order.field_kind, order.d, order.conductor))
            return original(order, *args, **kwargs)

        monkeypatch.setattr(classforms, "class_group", counting)
        monkeypatch.setattr(pipeline, "class_group", counting)
        r = run_case(15, CaseParams(recognition=False,
                                    conductor_direction=direction))
        assert not r.errors
        assert sorted(seen) == [("imaginary", 15, 1), ("real", 15, 1)]

    def test_lll_runs_at_reported_delta(self, monkeypatch):
        deltas = []
        original = recognition.lll_reduce

        def spy(basis, delta=recognition.DEFAULT_DELTA, check_transform=None):
            deltas.append(delta)
            return original(basis, delta, check_transform)

        monkeypatch.setattr(recognition, "lll_reduce", spy)
        r = run_case(15, CaseParams(precision_bits=256))
        reported = Fraction(*r.to_json()["params"]["delta"])
        assert deltas and set(deltas) == {reported}

    def test_no_match_recorded(self):
        r = run_case(15, CaseParams(precision_bits=256, recognition=False,
                                    search_bound=0))
        assert any("NoMatchWithinBound" in e for e in r.errors)
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

    def test_workers_match_serial(self):
        serial = run_range(2, 8, FAST)
        parallel = run_range(2, 8, FAST, workers=2)
        for a, b in zip(serial.reports, parallel.reports):
            assert a.dumps(with_timing=False) == b.dumps(with_timing=False)


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
