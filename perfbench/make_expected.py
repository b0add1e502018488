"""Regenerate ``expected.json``, the table the benchmark checks results against.

Run from the repository root:

    python3 perfbench/make_expected.py

Every distinct case of every workload runs once. Its outcome (verdict,
conductors, common class number, unit, minimal polynomial or no_relation per
J value, membership flags; pass flags for the symbolic suites) is recorded
with the sha256 of its reproducible report, which the benchmark reports but
does not gate on. Matched class numbers and units are cross-checked against
the independent oracles in ``tests/oracles.py``; a disagreement aborts before
anything is written. Regenerate only for a change that is meant to alter
results, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import COMPARED_ENV, EXPECTED_PATH, OUT, ROOT, environment, \
    import_program
from workloads import WORKLOADS, digest, summarize


def cross_check(case, got: dict) -> bool:
    """Oracle check of a matched case; False when nothing matched."""
    if got.get("h_common") is None:
        return False
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import definite_class_number_orbit, min_unit_power_in_suborder

    from quadexp.quadfield import (OrderDescriptor, QuadraticIrrational,
                                   pell_min_solution)

    imag = OrderDescriptor("imaginary", case.d, got["f"])
    h = definite_class_number_orbit(imag.discriminant)
    if h != got["h_common"]:
        raise SystemExit(f"{case.key}: h_common {got['h_common']}, "
                         f"oracle class number {h}")
    maximal = OrderDescriptor("real", case.d, 1)
    disc = maximal.fundamental_discriminant
    t, u = pell_min_solution(disc)
    eps1 = QuadraticIrrational(t, u * (1 if disc == case.d else 2), 2, case.d)
    unit = min_unit_power_in_suborder(
        eps1, OrderDescriptor("real", case.d, got["frak_f"]))
    if unit.to_json() != got["epsilon"]["value"]:
        raise SystemExit(f"{case.key}: epsilon {got['epsilon']['value']}, "
                         f"oracle unit {unit.to_json()}")
    return True


def main() -> int:
    pipeline = import_program()
    OUT.mkdir(exist_ok=True)
    cases = {}
    checked = 0
    for workload in WORKLOADS.values():
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        try:
            for case in workload.cases:
                if case.key in cases:
                    continue
                result = case.run(pipeline, cache_dir)
                got = summarize(case, result)
                checked += cross_check(case, got)
                cases[case.key] = {"expect": got,
                                   "sha256": digest(case, result)}
                print(case.key, got.get("verdict", ""), flush=True)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    env = environment()
    table = {"environment": {k: env[k] for k in COMPARED_ENV},
             "cases": dict(sorted(cases.items()))}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(cases)} cases written, {checked} cross-checked against "
          "the oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
