"""The fixed machine-checkable derivation suites over the Sklyanin layer.

Each suite rechecks one of the paper's symbolic lemmas with ``sklyanin``
and returns its checks. ``pipeline.verify_symbolic`` imports this module on
its first call, so case and range runs never load the symbolic layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import sklyanin
from .errors import PoleError
from .sklyanin import (NCPolynomial, ONE, RelationSystem, ZETA_C, ZETA_INV, MU_C,
                       build_system, check_derivation, jacobi_coefficients, star,
                       star_invariance_constraints, substitute_coefficients,
                       systems_equivalent, systems_identical)


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


# keyed by the names in ``pipeline.SYMBOLIC_SUITES``
SUITES = {
    "remark1": _remark1_checks,
    "lemma1": _lemma1_checks,
    "lemma2": _lemma2_checks,
    "jacobi": _jacobi_checks,
}
