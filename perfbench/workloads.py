"""Benchmark workloads: the cases each one runs and how a result is checked.

Each workload stresses one layer and the layers it bypasses are named beside
it, so a change to one layer shows on one workload and not on another:

- ``recognize``: exact LLL does nearly all the work. Three ``run_case`` calls
  with recognition on share one fresh class-polynomial cache per pass, so the
  second d=15 case reads the entry the first one wrote. Every case ends in
  the report verdict no_relation: d=15 at h=2 with 5-row lattices, d=14 at
  h=4 with 17-row lattices, at 512, 384 and 256 bits. The report verdict
  ``recognized`` is not exercised. The one J value that ``min_poly``
  recognizes (d=14 at 256 bits, degree 16) is a precision artifact.
- ``scan-real``: ``run_range`` over square-free d in 2..60, real-to-imag,
  recognition off. Enumerating definite reduced forms in ``match_conductor``
  does nearly all the work; LLL does none.
- ``scan-imag``: the same ``classforms`` layer through the other path,
  imag-to-real over 2..30: indefinite cycles merged through
  ``quadfield.sl2_equivalent``. A change that speeds the definite side at the
  indefinite side's cost shows here.
- ``symbolic``: 40 rounds of the four ``verify_symbolic`` suites, the only
  workload that reaches ``sklyanin``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

REAL = "real-to-imag"
IMAG = "imag-to-real"
SEARCH_BOUND = 100


@dataclass(frozen=True)
class Case:
    """One operation: a call into the public API with fixed inputs."""

    api: str                  # "run_case", "run_range" or "verify_symbolic"
    d: int = 0
    direction: str = REAL
    precision: int = 512
    recognition: bool = False
    suite: str = ""

    @property
    def key(self) -> str:
        if self.api == "verify_symbolic":
            return f"verify_symbolic:{self.suite}"
        return (f"{self.api}:d={self.d}:{self.direction}:p={self.precision}"
                f":rec={int(self.recognition)}")

    def run(self, pipeline, cache_dir: str):
        """Call the program; returns a CaseReport or a list of checks."""
        if self.api == "verify_symbolic":
            return pipeline.verify_symbolic(self.suite)
        params = pipeline.CaseParams(
            precision_bits=self.precision,
            conductor_direction=self.direction,
            search_bound=SEARCH_BOUND,
            recognition=self.recognition,
            cache_dir=cache_dir if self.recognition else None)
        if self.api == "run_case":
            return pipeline.run_case(self.d, params)
        reports = pipeline.run_range(self.d, self.d, params, workers=1).reports
        if len(reports) != 1:
            raise ValueError(f"run_range({self.d}, {self.d}) gave "
                             f"{len(reports)} reports, expected 1")
        return reports[0]


def summarize(case: Case, result) -> dict:
    """The outcome checked against the expected table."""
    if case.api == "verify_symbolic":
        return {"checks": [[c.name, c.passed] for c in result]}
    report = result.to_json(with_timing=False)
    conductors = report["conductors"] or {}
    classes = report["class_numbers"] or {}
    recognition = report["recognition"]
    membership = report["membership"]
    return {
        "verdict": result.verdict(),
        "f": conductors.get("f"),
        "frak_f": conductors.get("frak_f"),
        "h_common": classes.get("h_common"),
        "epsilon": report["epsilon"],
        "minpolys": None if recognition is None else [
            r["minpoly"] if r["verdict"] == "recognized" else "no_relation"
            for r in recognition],
        "found": None if membership is None else [m["found"]
                                                  for m in membership],
    }


def digest(case: Case, result) -> str:
    """sha256 of the reproducible part of a result (information only)."""
    if case.api == "verify_symbolic":
        text = json.dumps([c.to_json() for c in result], sort_keys=True,
                          default=str)
    else:
        text = result.dumps(with_timing=False)
    return hashlib.sha256(text.encode()).hexdigest()


def describe(case: Case) -> dict:
    """Fields of the per-case row."""
    if case.api == "verify_symbolic":
        return {"suite": case.suite}
    return {"d": case.d, "direction": case.direction,
            "precision": case.precision}


def _squarefree(n: int) -> bool:
    return n > 0 and all(n % (k * k) for k in range(2, int(n ** 0.5) + 1))


def _scan(lo: int, hi: int, direction: str) -> list[Case]:
    return [Case("run_range", d, direction) for d in range(lo, hi + 1)
            if _squarefree(d)]


@dataclass(frozen=True)
class Workload:
    cases: list
    pass_s: float  # nominal seconds of one pass at the reference speed


SYMBOLIC_ROUNDS = 40
SUITES = ("remark1", "lemma1", "lemma2", "jacobi")

WORKLOADS: dict[str, Workload] = {
    "recognize": Workload([
        Case("run_case", 15, REAL, 512, recognition=True),
        Case("run_case", 15, REAL, 384, recognition=True),
        Case("run_case", 14, IMAG, 256, recognition=True),
    ], 7.5),
    "scan-real": Workload(_scan(2, 60, REAL), 5.5),
    "scan-imag": Workload(_scan(2, 30, IMAG), 6.0),
    "symbolic": Workload([Case("verify_symbolic", suite=s) for s in SUITES]
                         * SYMBOLIC_ROUNDS, 2.5),
}
