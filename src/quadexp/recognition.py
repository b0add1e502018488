"""Evaluation of the exponential map J and lattice-based algebraic recognition.

J(x, y) = exp(2 pi i x + log log y) is evaluated along two independent
routes (the product form (log y) e^{2 pi i x} and the exponential form)
which must agree within their combined error bounds. Recognition builds
an algdep-style integer lattice from scaled real and imaginary parts of
the elements, reduces it exactly, and only accepts a candidate relation
after it survives irreducibility, height, and a certified residual bound,
evaluated on the same working-precision elements the lattice was built
from. The residual is certified at that working precision only: a value
that is correct to fewer bits than it claims cannot be told apart here.
Evidence at doubled precision comes from the caller re-evaluating the
value at 2p and searching again (the pipeline's stability stage).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from ._core import lll_reduce_rows
from .errors import (DegenerateBasis, DomainError, InputRational,
                     InsufficientPrecision)
from .modular import ClassFieldDescriptor, IntegerPolynomial
from .numerics import (FixedComplex, FixedReal, GUARD_BITS, _ceil_div,
                       _log_positive, _rshift_round, exp_cis, exp_fixed,
                       log_fixed)
from .quadfield import QuadraticIrrational, UnitElement

DEFAULT_DELTA = Fraction(99, 100)
DEFAULT_HEIGHT_BOUND = 10**40
LOG10_2 = 0.30102999566398119


def _strict_checks() -> bool:
    return bool(os.environ.get("QUADEXP_STRICT"))


# -- J evaluation ----------------------------------------------------------------


def _j_routes(x: FixedReal, y: FixedReal, w: int):
    """J in product form plus mu = log y, both at scale w.

    The exponential form is computed too; disagreement beyond the combined
    bounds means a numerics bug and raises.
    """
    mu = log_fixed(y, w)
    phase = exp_cis(x, w)
    product = phase * mu
    expform = phase * exp_fixed(_log_positive(mu, w), w)
    if not product.indistinguishable(expform):
        raise DomainError("independent J evaluation routes disagree")
    return product, mu


def j_function(x: FixedReal, y: FixedReal, p: int) -> FixedComplex:
    """Raw transcendental map for probe arguments; y > 1 required.

    Both evaluation routes are computed and must agree (see ``_j_routes``).
    """
    w = p + GUARD_BITS
    product, _mu = _j_routes(x.rescale(w), y.rescale(w), w)
    return product.rescale(p)


@dataclass
class JValue:
    theta: QuadraticIrrational
    epsilon: UnitElement
    mu: FixedReal
    value: FixedComplex
    precision: int

    def to_json(self, digits: int = 40) -> dict:
        return {"theta": self.theta.to_json(),
                "epsilon": self.epsilon.to_json(),
                "mu": self.mu.to_decimal(digits),
                "value_re": self.value.re.to_decimal(digits),
                "value_im": self.value.im.to_decimal(digits),
                "err_ulps": max(self.value.re.err_ulps, self.value.im.err_ulps),
                "precision_bits": self.precision}


def evaluate_J(theta: QuadraticIrrational, epsilon: UnitElement, p: int,
               allow_rational_theta: bool = False) -> JValue:
    """J(theta, epsilon) with the dual-route consistency check.

    theta must be irrational outside of test probes; epsilon.value > 1 so
    that log log is defined.
    """
    if epsilon.value.cmp(1) <= 0:
        raise DomainError("epsilon must exceed 1")
    if theta.is_rational and not allow_rational_theta:
        raise InputRational("theta must be a quadratic irrational")
    w = p + GUARD_BITS
    x = theta.to_fixed(w)
    y = epsilon.value.to_fixed(w)
    product, mu = _j_routes(x, y, w)
    value = product.rescale(p)
    jv = JValue(theta, epsilon, mu.rescale(p), value, p)
    # |J| must match mu within bounds (modulus is derived, never stored)
    if not jv.value.abs2().indistinguishable(jv.mu * jv.mu):
        raise DomainError("|J| does not match log epsilon within bounds")
    return jv


# -- exact LLL wrapper ------------------------------------------------------------


@dataclass
class LLLResult:
    basis: list[list[int]]
    transform: list[list[int]]


def _int_det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def lll_reduce(basis, delta: Fraction = DEFAULT_DELTA,
               check_transform: bool | None = None) -> LLLResult:
    """Exact integer LLL; returns the reduced rows and the unimodular map."""
    if not (Fraction(1, 4) < delta < 1):
        raise DomainError("delta must lie in (1/4, 1)")
    try:
        reduced, transform = lll_reduce_rows(
            [list(map(int, r)) for r in basis],
            delta.numerator, delta.denominator)
    except ValueError as exc:
        raise DegenerateBasis(str(exc)) from exc
    if check_transform is None:
        check_transform = _strict_checks()
    if check_transform and transform:
        det = _int_det(transform)
        if det not in (1, -1):
            raise DegenerateBasis(f"transform determinant {det}, expected +-1")
    return LLLResult(reduced, transform)


# -- recognition ----------------------------------------------------------------


@dataclass
class Recognized:
    minpoly: IntegerPolynomial
    residual_log10: float


@dataclass
class NoRelation:
    deg_bound: int
    height_bound: int
    exclusion_height: int = 0


@dataclass
class RecognitionResult:
    verdict: Recognized | NoRelation
    deg_bound: int
    height_bound: int
    precision_bits: int

    @property
    def recognized(self) -> bool:
        return isinstance(self.verdict, Recognized)

    def to_json(self) -> dict:
        if self.recognized:
            return {"verdict": "recognized",
                    "minpoly": self.verdict.minpoly.to_json(),
                    "residual_log10": self.verdict.residual_log10,
                    "deg_bound": self.deg_bound,
                    "height_bound": self.height_bound,
                    "precision_bits": self.precision_bits}
        return {"verdict": "no_relation",
                "minpoly": None,
                "residual_log10": None,
                "exclusion_height": self.verdict.exclusion_height,
                "deg_bound": self.deg_bound,
                "height_bound": self.height_bound,
                "precision_bits": self.precision_bits}


def _trusted_bits(z: FixedComplex, p: int) -> int:
    err = max(z.re.err_ulps, z.im.err_ulps)
    trusted = p if err == 0 else p - err.bit_length()
    if 10 * trusted < 9 * p:
        raise InsufficientPrecision(
            f"only {trusted} of {p} bits trusted; need 90%")
    return trusted


def _scale_for(deg_bound: int, height_bound: int, trusted: int) -> int:
    cap = (13 * (deg_bound + 1) * (height_bound.bit_length() + 1)) // 10 + 160
    return max(64, min(trusted - 8, cap))


def _power_rows(elements: list[FixedComplex], s: int) -> list[list[int]]:
    n = len(elements)
    rows = []
    for k, z in enumerate(elements):
        row = [0] * n
        row[k] = 1
        row.append(_rshift_round(z.re.mantissa, z.re.scale_bits - s))
        row.append(_rshift_round(z.im.mantissa, z.im.scale_bits - s))
        rows.append(row)
    return rows


def _exclusion_height(first_row: list[int], n: int) -> int:
    norm2 = sum(v * v for v in first_row)
    # ||b1|| <= 2^((n-1)/2) lambda_1; any relation vector is at least lambda_1
    lam2 = norm2 >> (n - 1)
    return isqrt(max(0, lam2 // max(1, n)))


def _relation_search(z: FixedComplex, p: int, elements: list[FixedComplex],
                     height_bound: int, delta: Fraction):
    """Exact LLL on the scaled lattice of elements built from z.

    The trusted bits of the p-bit input z set the lattice scale and the
    acceptance threshold. Returns the coefficient parts of the first (at
    most six) reduced rows, the threshold in decimal digits (a candidate's
    residual must fall below 10**-threshold), and the exclusion height
    implied by the first reduced row.
    """
    trusted = _trusted_bits(z, p)
    threshold_digits = (8 * int(trusted * LOG10_2)) // 10
    n = len(elements)
    s = _scale_for(n - 1, height_bound, trusted)
    basis = lll_reduce(_power_rows(elements, s), delta).basis
    return ([row[:n] for row in basis[:6]], threshold_digits,
            _exclusion_height(basis[0], n))


def _below_threshold(ulps: int, scale: int, digits10: int) -> bool:
    """ulps * 2**-scale < 10**-digits10, decided in exact integer arithmetic."""
    if ulps == 0:
        return True
    return ulps * 10**digits10 < 1 << scale


def _residual_log10(ulps: int, scale: int) -> float:
    if ulps == 0:
        return float("-inf")
    return (ulps.bit_length() - scale) * LOG10_2


def min_poly(z: FixedComplex, deg_bound: int, height_bound: int, p: int,
             delta: Fraction = DEFAULT_DELTA) -> RecognitionResult:
    """Integer minimal polynomial of z, or a bounded exclusion.

    Candidates come from exact LLL on the scaled-power lattice; acceptance
    requires an irreducible polynomial of height at most height_bound whose
    certified residual at z, evaluated at the lattice's working precision
    (p + GUARD_BITS), clears the 10**(-0.8 digits) threshold.
    """
    if deg_bound < 1:
        raise DomainError("deg_bound must be >= 1")
    w = p + GUARD_BITS
    zw = z.rescale(w)
    powers = [FixedComplex.from_int(1, w)]
    for _ in range(deg_bound):
        powers.append(powers[-1] * zw)
    rows, threshold_digits, excl = _relation_search(
        z, p, powers, height_bound, delta)

    for coeffs in rows:
        if not any(coeffs):
            continue
        candidate = IntegerPolynomial(tuple(coeffs))
        for fac in _unique(candidate.factor_irreducible()):
            poly = fac.normalized() if fac.leading < 0 else fac
            if poly.height > height_bound:
                continue
            ulps = poly.eval_complex(zw).abs_upper_ulps()
            if _below_threshold(ulps, w, threshold_digits):
                return RecognitionResult(
                    Recognized(poly, _residual_log10(ulps, w)),
                    deg_bound, height_bound, p)
    return RecognitionResult(NoRelation(deg_bound, height_bound, excl),
                             deg_bound, height_bound, p)


def _unique(polys):
    seen = set()
    out = []
    for f in polys:
        if f.coefficients not in seen:
            seen.add(f.coefficients)
            out.append(f)
    return out


@dataclass
class ConjugacyPartition:
    classes: list[tuple[IntegerPolynomial, list[int]]]
    unresolved: list[int]
    results: list[RecognitionResult]

    def to_json(self) -> dict:
        return {"classes": [{"minpoly": p.to_json(), "members": idx}
                            for p, idx in self.classes],
                "unresolved": self.unresolved}


def conjugacy_classes(values: list[JValue], deg_bound: int,
                      height_bound: int) -> ConjugacyPartition:
    """Group values by a shared recognized minimal polynomial."""
    precisions = {v.precision for v in values}
    if len(precisions) > 1:
        raise DomainError("values must share one precision")
    results = [min_poly(v.value, deg_bound, height_bound, v.precision)
               for v in values]
    buckets: dict[tuple, list[int]] = {}
    unresolved = []
    for i, r in enumerate(results):
        if r.recognized:
            buckets.setdefault(r.verdict.minpoly.coefficients, []).append(i)
        else:
            unresolved.append(i)
    classes = [(IntegerPolynomial(k), idx) for k, idx in sorted(buckets.items())]
    return ConjugacyPartition(classes, unresolved, results)


@dataclass
class Membership:
    coordinates: list[Fraction]
    residual_log10: float

    def to_json(self) -> dict:
        return {"found": True,
                "coordinates": [[c.numerator, c.denominator]
                                for c in self.coordinates],
                "residual_log10": self.residual_log10}


@dataclass
class NotFound:
    height_bound: int
    exclusion_height: int = 0

    def to_json(self) -> dict:
        return {"found": False, "height_bound": self.height_bound,
                "exclusion_height": self.exclusion_height}


def member_of_field(z: FixedComplex, field_desc: ClassFieldDescriptor, p: int,
                    height_bound: int = DEFAULT_HEIGHT_BOUND,
                    delta: Fraction = DEFAULT_DELTA) -> Membership | NotFound:
    """Coordinates of z in the power basis of the field generator, if any.

    Searches an integer relation among {z, 1, gamma, ..., gamma^(m-1)}; a
    hit is accepted when its certified residual, evaluated on those same
    elements at the lattice's working precision (p + GUARD_BITS), clears the
    10**(-0.8 digits) threshold, and the exact rational coordinates are
    returned.
    """
    m = field_desc.degree
    w = p + GUARD_BITS
    gamma = field_desc.embedding_at(p).rescale(w)
    elements = [z.rescale(w), FixedComplex.from_int(1, w)]
    for _ in range(m - 1):
        elements.append(elements[-1] * gamma)
    rows, threshold_digits, excl = _relation_search(
        z, p, elements, height_bound, delta)

    for vec in rows:
        b = vec[0]
        if b == 0 or any(abs(v) > height_bound for v in vec):
            continue
        combo = elements[0] * b
        for a, e in zip(vec[1:], elements[1:]):
            combo = combo + e * a
        ulps = combo.abs_upper_ulps()
        # need |combo| / |b| below the threshold
        if _below_threshold(_ceil_div(ulps, abs(b)), w, threshold_digits):
            coords = [Fraction(-a, b) for a in vec[1:]]
            return Membership(coords, _residual_log10(ulps, w))
    return NotFound(height_bound, excl)
