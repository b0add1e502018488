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
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from .classforms import class_group, match_conductor, pseudo_lattice_reps
from .errors import DomainError, NoMatchWithinBound, NotSquareFree, QuadexpError
from .quadfield import OrderDescriptor, fundamental_unit, is_squarefree
from .recognition import (DEFAULT_DELTA, DEFAULT_HEIGHT_BOUND, evaluate_J,
                          member_of_field, min_poly)

if TYPE_CHECKING:
    from .symbolic import SymbolicCheck

SCHEMA_VERSION = 1
EXCLUDED_D = frozenset({1, 2, 3, 7, 11, 19, 43, 67, 163})
DIRECTIONS = ("real-to-imag", "imag-to-real")


@dataclass(frozen=True)
class CaseParams:
    precision_bits: int = 512
    deg_bound: int | None = None  # defaults to 4 h_imag of the matched order
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
    """Full experiment for one square-free d; see module docstring.

    With recognition on, the relation searches of the case's J values may
    run in worker processes (see ``_recognition_stage``), all of which have
    exited when it returns, also on error. The report, results and their
    order do not depend on the number of workers.
    """
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
    else:
        matched, h_common = match.matched_conductor, match.h_common
    if given.field_kind == "real":
        frak_f, f_imag = given.conductor, matched
    else:
        frak_f, f_imag = matched, given.conductor
    real_summary = class_group(OrderDescriptor("real", d, frak_f))
    imag_summary = (class_group(OrderDescriptor("imaginary", d, f_imag))
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


def _recognition_stage(d, f_imag, eps, jvals, params, report):
    """Recognition, stability at 2p and membership of every J value.

    Each stage runs one relation search per J value, in worker processes
    when more than one CPU is usable (``_search_map``), and ends before the
    next starts: the 2p values are evaluated in this process, and each 2p
    search starts from its own p result. Results come back in J-value order,
    so the report does not depend on the number of workers, and a
    ``QuadexpError`` raised in a worker reaches the report as it would
    serially.
    """
    # imported here so that runs with recognition off never load modular
    from .modular import hcf_generator

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
    if deg_bound is None:  # twice the class field's degree 2 h_imag
        deg_bound = 4 * report.class_numbers["h_imag"]
    bounds = {"deg_bound": deg_bound, "height_bound": params.height_bound}
    values = [jv.value for jv in jvals]

    t0 = time.perf_counter()
    with _search_map(len(jvals)) as search_map:
        results = list(search_map(partial(_search, p=p, **bounds), values))
        report.recognition_results = [r.to_json() for r in results]
        report.conjugacy = _conjugacy(results)
        report.timing["recognition_s"] = time.perf_counter() - t0

        # stability: redo each value at doubled precision and compare
        # verdicts; the 2p search climbs from the basis and scale the p
        # search reduced at
        t0 = time.perf_counter()
        jvals2 = evaluate_J([jv.theta for jv in jvals], eps, 2 * p)
        results2 = search_map(partial(_search, p=2 * p, **bounds),
                              [jv2.value for jv2 in jvals2], results)
        report.stability = [_stability(res, res2)
                            for res, res2 in zip(results, results2)]
        report.timing["stability_s"] = time.perf_counter() - t0

        if descriptor is not None:
            t0 = time.perf_counter()
            report.membership = list(search_map(
                partial(_membership, descriptor=descriptor, p=p,
                        height_bound=params.height_bound), values))
            report.timing["membership_s"] = time.perf_counter() - t0


# False in a range's pool workers, whose cases then search serially
_pool_searches = True


def _serial_searches() -> None:
    """Initializer of a range's pool workers: no pool inside a pool."""
    global _pool_searches
    _pool_searches = False


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _search_map(n_values: int):
    """The ``map`` that runs one case's searches of ``n_values`` J values.

    A process pool of one worker per usable CPU, at most one per value, or,
    with a single worker, the built-in ``map`` in this process, which then
    never loads the pool's modules. The pool is shut down on leaving, also
    on error.
    """
    workers = min(_usable_cpus(), n_values) if _pool_searches else 1
    if workers < 2:
        yield map
        return
    # imported here so that serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # the default start method, as run_range's: on Linux (to Python 3.13)
    # fork, which starts a pool in milliseconds and leaves no process
    # behind, where spawn and forkserver leave a resource tracker running
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _search(z, start=None, *, deg_bound, height_bound, p):
    """One J value's relation search: a task of ``_search_map``."""
    return min_poly(z, deg_bound, height_bound, p, start=start)


def _membership(z, *, descriptor, p, height_bound) -> dict:
    """One J value's membership test: a task of ``_search_map``."""
    return member_of_field(z, descriptor, p, height_bound).to_json()


def _stability(res, res2) -> dict:
    """One J value's verdicts at p and 2p, and whether they agree."""
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
    return entry


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
        import traceback  # loaded on this path only
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
    process per case, and each runs its relation searches serially, so the
    range never holds more than ``workers`` processes; ``workers < 1``
    raises ``DomainError``.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    ds = [d for d in range(max(1, d_min), d_max + 1) if is_squarefree(d)]
    if workers > 1 and len(ds) > 1:
        # imported here so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(ds)),
                                 initializer=_serial_searches) as pool:
            reports = list(pool.map(_run_case_isolated, ds, [params] * len(ds)))
    else:
        reports = [_run_case_isolated(d, params) for d in ds]
    return RangeSummary(reports)


# -- symbolic suites ---------------------------------------------------------------


SYMBOLIC_SUITES = ("remark1", "lemma1", "lemma2", "jacobi")


def verify_symbolic(suite: str) -> list[SymbolicCheck]:
    """Run one of the fixed machine-checkable derivation suites."""
    if suite not in SYMBOLIC_SUITES:
        raise QuadexpError(f"unknown suite {suite!r}; "
                           f"choose from {sorted(SYMBOLIC_SUITES)}")
    # imported here so that case and range runs never load the symbolic layer
    from .symbolic import SUITES
    return SUITES[suite]()
