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
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from ._core import DELTA
from .classforms import class_group, match_conductor, pseudo_lattice_reps
from .errors import (DomainError, NoMatchWithinBound, NotSquareFree,
                     QuadexpError, WorkerLost)
from .quadfield import OrderDescriptor, fundamental_unit, is_squarefree
from .recognition import (DEFAULT_HEIGHT_BOUND, evaluate_J, member_of_field,
                          min_poly)

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
    # receives each certified class polynomial, for inspection; no run
    # reads it back, and a path that is neither a writable directory nor
    # missing under one is a DomainError here, before any work
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
        if self.cache_dir == "":
            raise DomainError("cache_dir must not be empty")
        if self.cache_dir is not None:
            existing = os.path.abspath(self.cache_dir)
            while not os.path.lexists(existing):
                existing = os.path.dirname(existing)
            if not (os.path.isdir(existing) and os.access(existing, os.W_OK)):
                raise DomainError(f"cannot write {self.cache_dir}: {existing} "
                                  f"is not a writable directory")

    def to_json(self) -> dict:
        return {"precision_bits": self.precision_bits,
                "deg_bound": self.deg_bound,
                "height_bound": str(self.height_bound),
                "conductor_direction": self.conductor_direction,
                "search_bound": self.search_bound,
                "given_conductor": self.given_conductor,
                "recognition": self.recognition,
                "delta": list(DELTA)}


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

    Every theta is evaluated at p here, in one batch. With recognition on,
    each J value's 2p evaluation and searches are one task. With more than
    one usable CPU the tasks fan out (see ``_recognition_stage``): on Linux
    to forked children while this process runs one stripe of them, and
    elsewhere to a process pool. Every child has exited when it returns,
    also on error; called in a ``multiprocessing`` worker, it runs them all
    there. The report, results and their order do not depend on the number
    of processes.
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
            _recognition_stage(d, f_imag, jvals, params, report)
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
        matched, h_common = match_conductor(given, params.search_bound)
    except NoMatchWithinBound as exc:
        if given.field_kind == "imaginary":
            raise  # no real order to go on with; run_case records it
        report.errors.append(f"NoMatchWithinBound: {exc}")
        matched = h_common = None
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
        "real_representatives": [list(q) for q in real_summary.representatives],
        "imag_representatives": ([list(q) for q in imag_summary.representatives]
                                 if imag_summary else None)}
    return f_imag, real_summary


def _recognition_stage(d, f_imag, jvals, params, report):
    """Recognition, stability at 2p and membership of every J value.

    Each J value is one task, ``_recognize``, of ``_fork_map`` over the
    usable CPUs: a case has a few tasks of near-equal cost, so on Linux
    this process runs one stripe of them and forked children the others,
    which loads no pool machinery; other platforms use ``_process_map``.
    The report does not depend on the number of processes. A
    ``QuadexpError`` in any task, or ``WorkerLost`` for a child that died,
    reaches the report as it would serially and leaves the recognition,
    conjugacy, stability and membership blocks empty. A stage's time sums
    its step over the tasks.
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

    task = partial(_recognize, p=p, deg_bound=deg_bound,
                   height_bound=params.height_bound, descriptor=descriptor)
    entries = _fork_map(task, jvals, _usable_cpus())
    recognized, stability, membership, seconds = map(list, zip(*entries))
    seconds = [sum(column) for column in zip(*seconds)]
    report.recognition_results = recognized
    report.conjugacy = _conjugacy(recognized)
    report.stability = stability
    report.timing["recognition_s"] = seconds[0]
    report.timing["stability_s"] = seconds[1]
    if descriptor is not None:
        report.membership = membership
        report.timing["membership_s"] = seconds[2]


def _recognize(jv, *, p, deg_bound, height_bound, descriptor):
    """One J value's task: the search at p, then J evaluated afresh at 2p
    and the stability search there, which climbs from the p result, and,
    with a descriptor, the membership test at p. A failed p search raises
    before any 2p work. Returns the recognition dict, stability entry,
    membership dict and step seconds; the 2p step includes its evaluation.
    """
    t0 = time.perf_counter()
    res = min_poly(jv.value, deg_bound, height_bound, p)
    t1 = time.perf_counter()
    z2 = evaluate_J([jv.theta], jv.epsilon, 2 * p)[0].value
    res2 = min_poly(z2, deg_bound, height_bound, 2 * p, start=res)
    t2 = time.perf_counter()
    membership = (member_of_field(jv.value, descriptor, p,
                                  height_bound).to_json()
                  if descriptor is not None else None)
    seconds = (t1 - t0, t2 - t1, time.perf_counter() - t2)
    recognition = res.to_json()
    stability = {"verdict_p": recognition["verdict"],
                 "verdict_2p": "recognized" if res2.recognized
                 else "no_relation"}
    if res.recognized and res2.recognized:
        stability["same_minpoly"] = (res.verdict.minpoly.coefficients ==
                                     res2.verdict.minpoly.coefficients)
        stability["residual_log10_p"] = res.verdict.residual_log10
        stability["residual_log10_2p"] = res2.verdict.residual_log10
    # two recognized verdicts agree only on the same polynomial
    stability["stable"] = (stability["verdict_p"] == stability["verdict_2p"]
                           and stability.get("same_minpoly", True))
    return recognition, stability, membership, seconds


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_pool_worker() -> bool:
    """Whether this process is a ``multiprocessing`` worker, asked without
    loading ``multiprocessing``: a process that has not loaded it is none."""
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and \
        multiprocessing.parent_process() is not None


def _fork_map(fn, items: list, workers: int) -> list:
    """``list(map(fn, items))`` for a case's J-value tasks, over
    w = min(workers, len(items)) processes.

    With w ≥ 2 on Linux, this process runs tasks 0, w, 2w, … and each of
    w − 1 forked children runs one other stripe, then pickles its outcomes
    into a pipe. On a 2-CPU host with sympy loaded, two trivial tasks took
    2.2–2.5 ms so and 9.7–10.4 ms in a process pool, and this loads only
    ``pickle`` (0.2 MB resident) where the pool loads 23 more modules
    (1.1 MB). A case's few tasks cost nearly the same, so fixed
    stripes lose nothing to the pool's dynamic assignment; ranges keep the
    pool (``_process_map``), and so do other platforms. With w = 1, or in
    a ``multiprocessing`` worker, the tasks run here, so processes never
    nest and the serial path imports nothing.

    Results keep the items' order, and the first failing task in that
    order raises its own exception; a child that ends without reporting
    counts as failing at its first task, with ``WorkerLost``. Every child
    has been reaped when this returns, and on an abnormal exit, such as
    ``KeyboardInterrupt``, killed first.
    """
    workers = min(workers, len(items))
    if workers < 2 or _in_pool_worker():
        return list(map(fn, items))
    if sys.platform != "linux":
        return _process_map(fn, items, workers)
    import pickle  # here, so that serial runs never load it
    import signal

    stripes = [range(k, len(items), workers) for k in range(workers)]
    children = {}  # pid -> (read end of its pipe, its stripe), until reaped
    try:
        for stripe in stripes[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: it never returns into the caller
                status = 1
                try:
                    os.close(read)
                    data = memoryview(pickle.dumps(
                        _run_stripe(fn, items, stripe)))
                    while data:
                        data = data[os.write(write, data):]
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = (read, stripe)
            os.close(write)
        outcomes = [(stripes[0], _run_stripe(fn, items, stripes[0]))]
        for pid, (read, stripe) in list(children.items()):
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(read)
            if code == 0:
                outcomes.append((stripe, pickle.loads(b"".join(chunks))))
            else:
                outcomes.append((stripe, ([], WorkerLost(
                    f"the process running tasks {list(stripe)} ended with "
                    f"exit code {code} before reporting"))))
    finally:
        for pid, (read, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)

    results = [None] * len(items)
    failures = []
    for stripe, (values, error) in outcomes:
        for i, value in zip(stripe, values):
            results[i] = value
        if error is not None:
            failures.append((stripe[len(values)], error))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _run_stripe(fn, items: list,
                stripe: range) -> tuple[list, Exception | None]:
    """``fn`` over ``items[i]`` for i in ``stripe`` up to the first task
    that raises: the values before it and its exception (None if none)."""
    values = []
    for i in stripe:
        try:
            values.append(fn(items[i]))
        except Exception as exc:
            return values, exc
    return values, None


def _process_map(fn, items: list, workers: int) -> list:
    """``list(map(fn, items))`` in a pool of min(workers, len(items))
    processes, or here when that is 1, which never loads multiprocessing,
    or when this process is a pool's worker, so pools never nest. Results
    keep the items' order, a task's exception is raised here, and the pool
    has shut down when this returns.

    A range's cases go through here, and a case's J-value tasks do off
    Linux. A range has many cases of unequal cost, which the pool hands
    out as workers come free: ``run_range(2, 30)`` imag-to-real at 512
    bits on 2 workers took 22.4 s and 24.7 s so, against 25.9 s and
    25.1 s with the cases striped round-robin as ``_fork_map`` stripes a
    case's tasks.
    """
    workers = min(workers, len(items))
    if workers > 1 and not _in_pool_worker():
        import multiprocessing  # here, so that serial runs never load it
        from concurrent.futures import ProcessPoolExecutor
        # fork on Linux, which starts in milliseconds, re-imports
        # nothing and leaves no process behind; Python 3.14 defaults
        # to forkserver there. Elsewhere the platform's default.
        context = (multiprocessing.get_context("fork")
                   if sys.platform == "linux" else None)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            return list(pool.map(fn, items))
        finally:
            pool.shutdown(cancel_futures=True)
    return list(map(fn, items))


def _conjugacy(results: list[dict]) -> dict:
    """Values grouped by a shared recognized minimal polynomial.

    ``results`` are the values' recognition dicts. ``classes`` lists each
    polynomial, in order of its coefficients, with the indices of its
    values; ``unresolved`` indexes the values without a relation.
    """
    buckets: dict[tuple, list[int]] = {}
    unresolved = []
    for i, r in enumerate(results):
        if r["verdict"] == "recognized":
            buckets.setdefault(tuple(r["minpoly"]), []).append(i)
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
    With ``workers > 1`` the cases run in a pool of at most one process per
    case (``_process_map``), whose workers run their cases' J-value tasks
    serially, so the range never holds more than ``workers`` processes;
    ``workers < 1`` raises ``DomainError``.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    ds = [d for d in range(max(1, d_min), d_max + 1) if is_squarefree(d)]
    reports = _process_map(partial(_run_case_isolated, params=params), ds,
                           workers)
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
