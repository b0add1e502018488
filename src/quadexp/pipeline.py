"""End-to-end case runner: arithmetic objects, J values, recognition, report.

A case never asserts the headline algebraicity claim; it records Recognized
or NoRelation outcomes with all parameters so that either confirmation or
numeric counter-evidence is a reportable result. Typed failures
(``QuadexpError``: no conductor match inside the bound, precision ceilings)
are recorded in the report rather than aborting the run; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from . import sklyanin
from .classforms import class_group, match_conductor, pseudo_lattice_reps
from .errors import (DomainError, NoMatchWithinBound, NotSquareFree, PoleError,
                     QuadexpError)
from .modular import hcf_generator
from .quadfield import OrderDescriptor, fundamental_unit, is_squarefree
from .recognition import (DEFAULT_DELTA, DEFAULT_HEIGHT_BOUND, evaluate_J,
                          member_of_field, min_poly)
from .sklyanin import (NCPolynomial, ONE, RelationSystem, ZETA_C, ZETA_INV, MU_C,
                       build_system, check_derivation, jacobi_coefficients, star,
                       star_invariance_constraints, substitute_coefficients,
                       systems_equivalent, systems_identical)

SCHEMA_VERSION = 1
EXCLUDED_D = frozenset({1, 2, 3, 7, 11, 19, 43, 67, 163})
DIRECTIONS = ("real-to-imag", "imag-to-real")


@dataclass(frozen=True)
class CaseParams:
    precision_bits: int = 512
    deg_bound: int | None = None  # defaults to twice the field degree
    height_bound: int = DEFAULT_HEIGHT_BOUND
    conductor_direction: str = "real-to-imag"
    search_bound: int = 100
    cache_dir: str | None = None
    given_conductor: int = 1
    recognition: bool = True

    def __post_init__(self):
        for name in ("precision_bits", "deg_bound", "height_bound",
                     "given_conductor"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.search_bound < 0:
            raise DomainError(f"search_bound must be nonnegative, "
                              f"got {self.search_bound}")
        if self.conductor_direction not in DIRECTIONS:
            raise DomainError(f"conductor_direction must be "
                              f"{' or '.join(DIRECTIONS)}, "
                              f"got {self.conductor_direction!r}")

    def to_json(self) -> dict:
        return {"precision_bits": self.precision_bits,
                "deg_bound": self.deg_bound,
                "height_bound": str(self.height_bound),
                "conductor_direction": self.conductor_direction,
                "search_bound": self.search_bound,
                "given_conductor": self.given_conductor,
                "recognition": self.recognition,
                "delta": [DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator]}


@dataclass
class CaseReport:
    d: int
    excluded_flag: bool
    params: CaseParams
    conductors: dict | None = None
    class_numbers: dict | None = None
    epsilon: dict | None = None
    mu: str | None = None
    theta_list: list | None = None
    j_values: list | None = None
    recognition_results: list | None = None
    stability: list | None = None
    conjugacy: dict | None = None
    field_descriptor: dict | None = None
    membership: list | None = None
    errors: list[str] = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def to_json(self, with_timing: bool = True) -> dict:
        out = {"schema": SCHEMA_VERSION,
               "d": self.d,
               "excluded_flag": self.excluded_flag,
               "params": self.params.to_json(),
               "conductors": self.conductors,
               "class_numbers": self.class_numbers,
               "epsilon": self.epsilon,
               "mu": self.mu,
               "theta_list": self.theta_list,
               "j_values": self.j_values,
               "recognition": self.recognition_results,
               "stability": self.stability,
               "conjugacy": self.conjugacy,
               "field": self.field_descriptor,
               "membership": self.membership,
               "errors": self.errors}
        if with_timing:
            out["timing"] = self.timing
        return out

    def dumps(self, with_timing: bool = True) -> str:
        return json.dumps(self.to_json(with_timing), sort_keys=True, indent=2)

    # -- summary row for the CSV table ------------------------------------

    def verdict(self) -> str:
        if self.excluded_flag:
            return "excluded"
        if any("NoMatchWithinBound" in e for e in self.errors):
            return "no_match"
        if not self.recognition_results:
            return "arithmetic_only" if not self.errors else "error"
        verdicts = {r["verdict"] for r in self.recognition_results}
        return "recognized" if verdicts == {"recognized"} else "no_relation"

    def csv_row(self) -> list[str]:
        def blank(v):
            return "" if v is None else str(v)

        h = blank(self.class_numbers["h_common"]) if self.class_numbers else ""
        f_imag = blank(self.conductors["f"]) if self.conductors else ""
        f_real = blank(self.conductors["frak_f"]) if self.conductors else ""
        eps = ""
        if self.epsilon:
            v = self.epsilon["value"]
            eps = f"({v['a']}+{v['b']}*sqrt({v['d']}))/{v['c']}"
        deg = res = ""
        if self.recognition_results:
            first = self.recognition_results[0]
            if first["verdict"] == "recognized":
                deg = str(len(first["minpoly"]) - 1)
                res = f"{first['residual_log10']:.1f}"
        return [str(self.d), h, f_imag, f_real, eps,
                self.verdict(), deg, res]


CSV_HEADER = ["d", "h", "f", "frak_f", "epsilon", "verdict",
              "minpoly_degree", "residual_log10"]


def _digits_for(p: int) -> int:
    return max(16, (p * 301) // 1000)


def run_case(d: int, params: CaseParams = CaseParams()) -> CaseReport:
    """Full experiment for one square-free d; see module docstring."""
    if not is_squarefree(d):
        raise NotSquareFree(f"{d} is not a square-free positive integer")
    t_start = time.perf_counter()
    report = CaseReport(d, d in EXCLUDED_D, params)
    if report.excluded_flag:
        report.timing["total_s"] = time.perf_counter() - t_start
        return report

    p = params.precision_bits
    digits = _digits_for(p)
    try:
        t0 = time.perf_counter()
        f_imag, real_summary = _match(d, params, report)
        report.timing["conductor_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        eps = fundamental_unit(real_summary.order)
        report.epsilon = eps.to_json()
        thetas = pseudo_lattice_reps(real_summary)
        report.theta_list = [r.to_json() for r in thetas]
        report.timing["lattices_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        jvals = evaluate_J([r.theta for r in thetas], eps, p)
        report.mu = jvals[0].mu.to_decimal(digits) if jvals else None
        report.j_values = [jv.to_json(digits) for jv in jvals]
        report.timing["evaluate_s"] = time.perf_counter() - t0

        if params.recognition and f_imag is not None:
            _recognition_stage(d, f_imag, eps, jvals, params, report)
    except QuadexpError as exc:
        report.errors.append(f"{type(exc).__name__}: {exc}")
    report.timing["total_s"] = time.perf_counter() - t_start
    return report


def _match(d: int, params: CaseParams, report: CaseReport):
    """Record the matched conductors and class numbers in the report.

    Returns the imaginary conductor (None without a match) and the real
    order's ``class_group``, which the pseudo-lattices are built from.
    Without a real conductor the case cannot go on, so the imag-to-real
    ``NoMatchWithinBound`` propagates.
    """
    given = OrderDescriptor(
        "real" if params.conductor_direction == "real-to-imag" else "imaginary",
        d, params.given_conductor)
    try:
        match = match_conductor(given, params.search_bound)
    except NoMatchWithinBound as exc:
        if given.field_kind == "imaginary":
            raise  # no real order to go on with; run_case records it
        report.errors.append(f"NoMatchWithinBound: {exc}")
        matched = h_common = None
        known = [exc.given_classes]
    else:
        matched, h_common = match.matched_conductor, match.h_common
        known = [match.given_classes, match.opposite_maximal_classes]
    if given.field_kind == "real":
        frak_f, f_imag = given.conductor, matched
    else:
        frak_f, f_imag = matched, given.conductor
    real_summary = _summary(known, OrderDescriptor("real", d, frak_f))
    imag_summary = (_summary(known, OrderDescriptor("imaginary", d, f_imag))
                    if f_imag is not None else None)
    report.conductors = {"frak_f": frak_f, "f": f_imag,
                         "direction": params.conductor_direction}
    report.class_numbers = {
        "h_real_wide": real_summary.h,
        "h_real_proper": real_summary.h_proper,
        "h_imag": imag_summary.h if imag_summary else None,
        "h_common": h_common,
        "real_representatives": [q.to_json() for q in real_summary.representatives],
        "imag_representatives": ([q.to_json() for q in imag_summary.representatives]
                                 if imag_summary else None)}
    return f_imag, real_summary


def _summary(known, order: OrderDescriptor):
    """The order's ``class_group``, reused from the ``known`` summaries."""
    for summary in known:
        if summary.order == order:
            return summary
    return class_group(order)


def _recognition_stage(d, f_imag, eps, jvals, params, report):
    p = params.precision_bits
    t0 = time.perf_counter()
    try:
        descriptor = hcf_generator(d, f_imag, 2 * p, params.cache_dir)
        report.field_descriptor = descriptor.to_json()
    except QuadexpError as exc:
        report.errors.append(f"{type(exc).__name__}: {exc}")
        descriptor = None
    report.timing["class_field_s"] = time.perf_counter() - t0

    deg_bound = params.deg_bound
    if deg_bound is None:
        deg_bound = 2 * (descriptor.degree if descriptor else 4)

    t0 = time.perf_counter()
    results = [min_poly(jv.value, deg_bound, params.height_bound, p)
               for jv in jvals]
    report.recognition_results = [r.to_json() for r in results]
    report.conjugacy = _conjugacy(results)
    report.timing["recognition_s"] = time.perf_counter() - t0

    # stability: redo each value at doubled precision and compare verdicts;
    # the 2p search climbs from the basis and scale the p search reduced at
    t0 = time.perf_counter()
    stability = []
    jvals2 = evaluate_J([jv.theta for jv in jvals], eps, 2 * p)
    for jv2, res in zip(jvals2, results):
        res2 = min_poly(jv2.value, deg_bound, params.height_bound, 2 * p,
                        start=res)
        entry = {"verdict_p": res.to_json()["verdict"],
                 "verdict_2p": res2.to_json()["verdict"]}
        if res.recognized and res2.recognized:
            entry["same_minpoly"] = (res.verdict.minpoly.coefficients ==
                                     res2.verdict.minpoly.coefficients)
            entry["residual_log10_p"] = res.verdict.residual_log10
            entry["residual_log10_2p"] = res2.verdict.residual_log10
        # two recognized verdicts agree only on the same polynomial
        entry["stable"] = (entry["verdict_p"] == entry["verdict_2p"]
                           and entry.get("same_minpoly", True))
        stability.append(entry)
    report.stability = stability
    report.timing["stability_s"] = time.perf_counter() - t0

    if descriptor is not None:
        t0 = time.perf_counter()
        membership = []
        for jv in jvals:
            m = member_of_field(jv.value, descriptor, p, params.height_bound)
            membership.append(m.to_json())
        report.membership = membership
        report.timing["membership_s"] = time.perf_counter() - t0


def _conjugacy(results: list) -> dict:
    """Values grouped by a shared recognized minimal polynomial.

    ``classes`` lists each polynomial, in order of its coefficients, with
    the indices of its values; ``unresolved`` indexes the values without a
    relation.
    """
    buckets: dict[tuple, list[int]] = {}
    unresolved = []
    for i, r in enumerate(results):
        if r.recognized:
            buckets.setdefault(r.verdict.minpoly.coefficients, []).append(i)
        else:
            unresolved.append(i)
    return {"classes": [{"minpoly": list(k), "members": idx}
                        for k, idx in sorted(buckets.items())],
            "unresolved": unresolved}


def _run_case_isolated(d: int, params: CaseParams) -> CaseReport:
    """run_case for one d of a range: a failure costs that d only.

    ``run_case`` already records typed failures in its report; anything else
    is a bug, which becomes an ``error`` report with its traceback on stderr,
    so the other d of the range still run.
    """
    try:
        return run_case(d, params)
    except Exception as exc:
        traceback.print_exc()
        return CaseReport(d, d in EXCLUDED_D, params,
                          errors=[f"{type(exc).__name__}: {exc}"])


@dataclass
class RangeSummary:
    reports: list[CaseReport]

    def counts(self) -> dict:
        out = {"recognized": 0, "no_relation": 0, "excluded": 0,
               "no_match": 0, "error": 0, "arithmetic_only": 0}
        for r in self.reports:
            out[r.verdict()] += 1
        return out

    def csv(self) -> str:
        lines = [",".join(CSV_HEADER)]
        lines += [",".join(r.csv_row()) for r in self.reports]
        return "\n".join(lines) + "\n"


def run_range(d_min: int, d_max: int, params: CaseParams = CaseParams(),
              workers: int = 1) -> RangeSummary:
    """All square-free d in [d_min, d_max]; non-square-free values skipped.

    An unexpected exception in one d becomes that d's ``error`` report.
    With ``workers > 1`` the cases run in a process pool of at most one
    process per case; ``workers < 1`` raises ``DomainError``.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    ds = [d for d in range(max(1, d_min), d_max + 1) if is_squarefree(d)]
    if workers > 1 and len(ds) > 1:
        # imported here so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(ds))) as pool:
            reports = list(pool.map(_run_case_isolated, ds, [params] * len(ds)))
    else:
        reports = [_run_case_isolated(d, params) for d in ds]
    return RangeSummary(reports)


# -- symbolic suites ---------------------------------------------------------------


@dataclass
class SymbolicCheck:
    name: str
    passed: bool
    detail: dict

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _remark1_checks() -> list[SymbolicCheck]:
    eq2 = build_system("torus_eq2")
    premises = RelationSystem(
        "eq2_lines_1_5_6",
        [eq2.relations[0], eq2.relations[4], eq2.relations[5]])
    word = NCPolynomial.word
    targets = [
        ("line2_vstar_ustar", word((4, 2)), word((2, 4), ZETA_C)),
        ("line3_vstar_u", word((4, 1)), word((1, 4), ZETA_INV)),
        ("line4_v_ustar", word((3, 2)), word((2, 3), ZETA_INV)),
        ("worked_ustar_v_u_vstar", word((2, 3, 1, 4)), NCPolynomial.unit(ZETA_C)),
    ]
    completed = sklyanin.complete(premises)
    out = []
    for name, lhs, rhs in targets:
        res = check_derivation(completed, lhs, rhs)
        out.append(SymbolicCheck(f"remark1.{name}", res.ok, res.to_json()))
    return out


def _lemma1_checks() -> list[SymbolicCheck]:
    eq10 = build_system("generic_eq10")
    by_symbol = star_invariance_constraints(eq10)
    expected = {
        "q13": sklyanin.Coeff.monomial(1, {"q24~": -1}),
        "q24": sklyanin.Coeff.monomial(1, {"q13~": -1}),
        "q14": sklyanin.Coeff.monomial(1, {"q23~": -1}),
        "q23": sklyanin.Coeff.monomial(1, {"q14~": -1}),
        "q12": sklyanin.Coeff.monomial(1, {"q12~": 1}),
        "q34": sklyanin.Coeff.monomial(1, {"q34~": 1}),
    }
    out = [SymbolicCheck("lemma1.eq11_constraints", by_symbol == expected,
                         {"derived": {k: v.to_json() for k, v in by_symbol.items()}})]

    # involution squared is the identity on a sample polynomial
    probe = (NCPolynomial.word((3, 1, 4), ZETA_C) +
             NCPolynomial.word((2,), MU_C) + NCPolynomial.unit(ONE))
    out.append(SymbolicCheck("lemma1.involution_squared",
                             star(star(probe)) == probe, {}))

    # eq12 collapse onto the one-parameter family q = mu zeta
    q13 = MU_C * ZETA_C
    mapping = {"q13": q13, "q14": q13.conjugate(),
               "q24": q13.conjugate().inverse(), "q23": q13.inverse(),
               "q12": ONE, "q34": ONE}
    collapsed = substitute_coefficients(eq10, mapping)
    eq9 = build_system("sklyanin_eq9")
    out.append(SymbolicCheck("lemma1.eq12_collapse_to_eq9",
                             systems_identical(collapsed, eq9), {}))
    return out


def _lemma2_checks() -> list[SymbolicCheck]:
    eq13, eq17, eq18 = (sklyanin.complete(build_system(kind)) for kind in
                        ("torus_eq13", "scaled_eq17", "reduced_eq18"))
    out = []
    for name, a, b in (("eq13_eq17", eq13, eq17), ("eq17_eq18", eq17, eq18)):
        v = systems_equivalent(a, b)
        out.append(SymbolicCheck(f"lemma2.{name}", v.mod_unit_scale, v.to_json()))
    return out


def _jacobi_checks() -> list[SymbolicCheck]:
    out = []
    j = jacobi_coefficients(Fraction(0), Fraction(0), Fraction(0))
    out.append(SymbolicCheck("jacobi.symmetric_point",
                             j.a_coeff == 1 and j.b_coeff == 1 and j.constraint_holds,
                             j.to_json()))
    j = jacobi_coefficients(Fraction(1, 2), Fraction(-1, 5), Fraction(-1, 3))
    out.append(SymbolicCheck(
        "jacobi.rational_point",
        j.a_coeff == Fraction(5, 8) and j.b_coeff == Fraction(9, 8) and j.constraint_holds,
        j.to_json()))
    try:
        jacobi_coefficients(Fraction(1), Fraction(-1), Fraction(0))
        out.append(SymbolicCheck("jacobi.pole_detection", False, {}))
    except PoleError:
        out.append(SymbolicCheck("jacobi.pole_detection", True, {}))
    return out


SYMBOLIC_SUITES = {
    "remark1": _remark1_checks,
    "lemma1": _lemma1_checks,
    "lemma2": _lemma2_checks,
    "jacobi": _jacobi_checks,
}


def verify_symbolic(suite: str) -> list[SymbolicCheck]:
    """Run one of the fixed machine-checkable derivation suites."""
    if suite not in SYMBOLIC_SUITES:
        raise QuadexpError(f"unknown suite {suite!r}; "
                           f"choose from {sorted(SYMBOLIC_SUITES)}")
    return SYMBOLIC_SUITES[suite]()
