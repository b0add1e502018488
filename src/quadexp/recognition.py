"""Evaluation of the exponential map J and lattice-based algebraic recognition.

J(x, y) = exp(2 pi i x + log log y) is evaluated along one route, the
product e^{2 pi i x} mu with mu = log y. The values of a case share
y = epsilon, so ``evaluate_J`` takes all their x at once and evaluates mu
once per call, checking once that exp(log mu) = mu within the combined
error bounds; each value's |J|^2 = mu^2 check tests its phase. Recognition
builds an algdep-style integer lattice from scaled real and imaginary parts
of the elements, reduces it in floating-point rungs and finally with the exact
kernel (see ``_relation_search``), and only accepts a candidate relation
after it survives irreducibility, height, and a certified residual bound,
evaluated on the same working-precision elements the lattice was built
from. The residual is certified at that working precision only: a value
that is correct to fewer bits than it claims cannot be told apart here.
Evidence at doubled precision comes from the caller re-evaluating the
value at 2p and searching again (the pipeline's stability stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

from ._core import (FloatBreakdown, _gram_schmidt, lll_reduce_rows,
                    lll_reduce_rows_float)
from .errors import (DegenerateBasis, DomainError, InputRational,
                     InsufficientPrecision)
from .numerics import (FixedComplex, FixedReal, GUARD_BITS, _ceil_div,
                       _log_positive, exp_cis, exp_fixed, log_fixed)
from .quadfield import QuadraticIrrational, UnitElement

if TYPE_CHECKING:
    from .modular import ClassFieldDescriptor, IntegerPolynomial

DEFAULT_HEIGHT_BOUND = 10**40
LOG10_2 = 0.30102999566398119
# scale step between the rungs of a relation search
RUNG_BITS = 64


# -- J evaluation ----------------------------------------------------------------


def _unit_side(y: FixedReal, w: int) -> FixedReal:
    """mu = log y at scale w, checked once against exp(log mu); y > 1.

    Each J value is e^{2 pi i x} mu, so values that share y share mu and
    this check. Disagreement beyond the combined bounds means a numerics
    bug and raises; since |cos| and |sin| are at most 1, mu passing it
    means e^{2 pi i x} mu and e^{2 pi i x} exp(log mu) agree for every x.
    """
    mu = log_fixed(y, w)
    if not mu.indistinguishable(exp_fixed(_log_positive(mu, w), w)):
        raise DomainError("independent J evaluation routes disagree")
    return mu


def j_function(x: FixedReal, y: FixedReal, p: int) -> FixedComplex:
    """Raw transcendental map for probe arguments; y > 1 required.

    One route, e^{2 pi i x} mu; mu = log y is checked against exp(log mu)
    once (see ``_unit_side``).
    """
    w = p + GUARD_BITS
    return (exp_cis(x.rescale(w), w) * _unit_side(y.rescale(w), w)).rescale(p)


@dataclass
class JValue:
    theta: QuadraticIrrational
    epsilon: UnitElement
    mu: FixedReal
    value: FixedComplex
    precision: int

    def to_json(self, digits: int) -> dict:
        return {"theta": self.theta.to_json(),
                "epsilon": self.epsilon.to_json(),
                "mu": self.mu.to_decimal(digits),
                "value_re": self.value.re.to_decimal(digits),
                "value_im": self.value.im.to_decimal(digits),
                "err_ulps": max(self.value.re.err_ulps, self.value.im.err_ulps),
                "precision_bits": self.precision}


def evaluate_J(thetas: list[QuadraticIrrational], epsilon: UnitElement,
               p: int) -> list[JValue]:
    """J(theta, epsilon) = e^{2 pi i theta} mu, mu = log epsilon, per theta.

    Every theta must be a quadratic irrational (``InputRational``
    otherwise; probe arguments go through ``j_function``), and
    epsilon.value > 1 so that log log is defined. The unit side (mu, its
    exp(log mu) = mu check and mu^2) is evaluated once per call, at
    p + GUARD_BITS; each theta then costs one ``exp_cis``, one product and
    the |J|^2 = mu^2 check, which tests that theta's phase.
    """
    if epsilon.value.cmp(1) <= 0:
        raise DomainError("epsilon must exceed 1")
    if any(theta.is_rational for theta in thetas):
        raise InputRational("theta must be a quadratic irrational")
    w = p + GUARD_BITS
    mu_w = _unit_side(epsilon.value.to_fixed(w), w)
    mu = mu_w.rescale(p)
    mu2 = mu * mu
    out = []
    for theta in thetas:
        value = (exp_cis(theta.to_fixed(w), w) * mu_w).rescale(p)
        # |J| must match mu within bounds (modulus is derived, never stored)
        if not value.abs2().indistinguishable(mu2):
            raise DomainError("|J| does not match log epsilon within bounds")
        out.append(JValue(theta, epsilon, mu, value, p))
    return out


# -- LLL wrapper -----------------------------------------------------------------


def lll_reduce(basis, gso=None) -> list[list[int]]:
    """Exact integer LLL at ``DELTA``; returns the reduced rows.

    The rows are integer combinations of the input rows; a search that
    needs the combination reads it from its lattice's coefficient columns.
    ``gso`` is the basis's ``_gram_schmidt`` data, if the caller holds it.
    """
    try:
        return lll_reduce_rows(basis, gso)
    except ValueError as exc:
        raise DegenerateBasis(str(exc)) from exc


# -- recognition ----------------------------------------------------------------


@dataclass
class Recognized:
    minpoly: IntegerPolynomial
    residual_log10: float


@dataclass
class NoRelation:
    exclusion_height: int


@dataclass
class RecognitionResult:
    verdict: Recognized | NoRelation
    deg_bound: int
    height_bound: int
    precision_bits: int
    # coefficient parts of all reduced rows: a unimodular matrix, the
    # transform of the search; a warm start for a search at higher precision
    coefficient_basis: list[list[int]] = field(repr=False)
    # the lattice scale (bits) the coefficient basis was reduced at
    scale_bits: int = field(repr=False)

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
    """trusted - 8 bits, capped by degree and height; at least 64 or raise."""
    if trusted - 8 < 64:
        raise InsufficientPrecision(f"only {trusted} bits trusted; the "
                                    "lattice needs at least 72")
    cap = (13 * (deg_bound + 1) * (height_bound.bit_length() + 1)) // 10 + 160
    return min(trusted - 8, cap)


def _power_rows(elements: list[FixedComplex], s: int) -> list[list[int]]:
    """The rows of X_s: each element's real and imaginary part times 2**s,
    rounded to integers."""
    return [[z.re.rescale(s).mantissa, z.im.rescale(s).mantissa]
            for z in elements]


def _exclusion_height(first_row: list[int], n: int) -> int:
    norm2 = sum(v * v for v in first_row)
    # ||b1|| <= 2^((n-1)/2) lambda_1; any relation vector is at least lambda_1
    lam2 = norm2 >> (n - 1)
    return isqrt(max(0, lam2 // max(1, n)))


def _tails(c: list[int], scaled: list[list[int]]) -> list[int]:
    """Residual columns of the lattice row with coefficient part c."""
    return [sum(a * x[j] for a, x in zip(c, scaled)) for j in (0, 1)]


def _relation_search(z: FixedComplex, p: int, elements: list[FixedComplex],
                     height_bound: int,
                     start: RecognitionResult | None = None):
    """LLL at ``DELTA`` on the scaled lattice of elements.

    The trusted bits of the p-bit input z set the lattice scale s and the
    acceptance threshold. The lattice has the rows [I | X_s], with X_s
    from ``_power_rows``. Every search climbs to it from an n x n start C
    reduced at scale s_0: the ``coefficient_basis`` and ``scale_bits`` of
    ``start``, or the identity at scale 0 without one. Rung k reduces
    C_k [I | X_r] at r = s_0 + k RUNG_BITS below s, then at s itself, with
    C_1 = C and C_(k+1) the coefficient parts of rung k's reduced rows.
    Each rung starts from a basis reduced at most RUNG_BITS of scale lower,
    so it needs few swaps.

    Every rung is reduced by the float kernel ``lll_reduce_rows_float``,
    which keeps the rows and their Gram matrix exact; a rung on which it
    breaks down (``FloatBreakdown``) is reduced by the exact kernel
    instead. One ``_gram_schmidt`` of the top rung's rows gives their
    certificate its determinant and ``lll_reduce`` its data for a last
    exact pass (few swaps or none), after which the rows meet the Lovász
    condition at ``DELTA`` exactly, as ``_exclusion_height`` assumes.

    The top rung is certified, and again if the exact pass changes it: its
    rows must be C [I | X_s] for their coefficient parts C, det C = +-1, so
    they are a basis of the cold lattice [I | X_s]. Each C_(k+1) is U_k C_k
    for an integer U_k, so this also proves the start and every rung
    unimodular. Any other C spans a sublattice, whose reduction would
    overstate the exclusion height; ``DegenerateBasis`` is raised instead.

    Returns the coefficient parts of all reduced rows (the candidates come
    first), the threshold in decimal digits (a candidate's residual must
    fall below 10**-threshold), the exclusion height implied by the first
    reduced row, and s.
    """
    trusted = _trusted_bits(z, p)
    threshold_digits = (8 * int(trusted * LOG10_2)) // 10
    n = len(elements)
    s = _scale_for(n - 1, height_bound, trusted)
    if start is None:
        coeffs, s_0 = [[int(i == j) for j in range(n)] for i in range(n)], 0
    else:
        coeffs, s_0 = start.coefficient_basis, start.scale_bits
        if len(coeffs) != n or any(len(row) != n for row in coeffs):
            raise DegenerateBasis(f"warm start must be {n} x {n}")
    for r in [*range(s_0 + RUNG_BITS, s, RUNG_BITS), s]:
        scaled = _power_rows(elements, r)
        rows = [list(c) + _tails(c, scaled) for c in coeffs]
        try:
            basis = lll_reduce_rows_float(rows)
        except FloatBreakdown:
            basis = lll_reduce(rows)
        coeffs = [row[:n] for row in basis]
    gso = _gram_schmidt(basis)
    coeffs = _certified(basis, scaled, gso[0][n])
    reduced = lll_reduce(basis, gso)
    if reduced != basis:
        coeffs = _certified(reduced, scaled, _gram_schmidt(reduced)[0][n])
    return coeffs, threshold_digits, _exclusion_height(reduced[0], n), s


def _certified(basis: list[list[int]], scaled: list[list[int]],
               gram_det: int):
    """The coefficient parts C of rows proven a basis of [I | X].

    X is given by the tail columns ``scaled``: the rows must be C [I | X],
    and their Gram determinant ``gram_det``, det(C)^2 det(I_2 + X^T X) by
    Sylvester's identity, must be det(I_2 + X^T X); else ``DegenerateBasis``.
    """
    n = len(scaled)
    coeffs = [row[:n] for row in basis]
    if len(basis) != n or any(row[n:] != _tails(c, scaled)
                              for row, c in zip(basis, coeffs)):
        raise DegenerateBasis("reduced rows are not C [I | X_s]")
    g00, g11, g01 = map(sum, zip(*((x * x, y * y, x * y) for x, y in scaled)))
    x_det = (1 + g00) * (1 + g11) - g01 * g01  # det(I_2 + X^T X)
    if gram_det != x_det:
        raise DegenerateBasis(f"reduced coefficient Gram determinant "
                              f"{gram_det // x_det}, expected 1 (det C = +-1)")
    return coeffs


def _below_threshold(ulps: int, scale: int, digits10: int) -> bool:
    """ulps * 2**-scale < 10**-digits10, decided in exact integer arithmetic."""
    return ulps * 10**digits10 < 1 << scale


def _residual_log10(ulps: int, scale: int) -> float:
    if ulps == 0:
        return float("-inf")
    return (ulps.bit_length() - scale) * LOG10_2


def min_poly(z: FixedComplex, deg_bound: int, height_bound: int, p: int,
             start: RecognitionResult | None = None) -> RecognitionResult:
    """Integer minimal polynomial of z, or a bounded exclusion.

    Candidates come from LLL on the scaled-power lattice, whose final
    basis the exact kernel reduces and certifies; acceptance requires an
    irreducible polynomial of height at most height_bound whose certified
    residual at z, evaluated at the lattice's working precision
    (p + GUARD_BITS), clears the 10**(-0.8 digits) threshold.

    The search climbs to its own scale in rungs of ``RUNG_BITS``: each rung
    reduces the previous rung's coefficient rows times [I | X_r], a small
    step from a reduced basis, in the float kernel, and the top rung
    reduces a basis of the cold lattice [I | X_s], which the exact kernel
    then reduces once more and every search certifies. ``start`` is the
    result of a search with the same deg_bound on a nearby value at lower
    precision, typically the same value evaluated at half of p; the climb
    begins from its unimodular ``coefficient_basis`` at its
    ``scale_bits``. Without it the climb begins from the identity at
    scale 0.
    The threshold and exclusion bound are those of one cold reduction of
    [I | X_s], but an LLL basis is not unique: a genuine relation is found
    either way, while spurious short vectors (noise at the scale) and the
    exclusion height read from the first row may differ.
    ``DegenerateBasis`` is raised when the top rung's reduced rows are not
    certified as a basis of [I | X_s], as when the basis of ``start`` is
    not unimodular.
    """
    # imported here so that J evaluation alone never loads modular
    from .modular import IntegerPolynomial

    if deg_bound < 1:
        raise DomainError("deg_bound must be >= 1")
    w = p + GUARD_BITS
    zw = z.rescale(w)
    powers = [FixedComplex.from_int(1, w)]
    for _ in range(deg_bound):
        powers.append(powers[-1] * zw)
    basis, threshold_digits, excl, scale = _relation_search(
        z, p, powers, height_bound, start)

    for coeffs in basis[:6]:
        for poly in IntegerPolynomial(tuple(coeffs)).factor_irreducible():
            if poly.height > height_bound:
                continue
            ulps = poly.eval_complex(zw).abs_upper_ulps()
            if _below_threshold(ulps, w, threshold_digits):
                return RecognitionResult(
                    Recognized(poly, _residual_log10(ulps, w)),
                    deg_bound, height_bound, p, basis, scale)
    return RecognitionResult(NoRelation(excl),
                             deg_bound, height_bound, p, basis, scale)


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
    exclusion_height: int

    def to_json(self) -> dict:
        return {"found": False, "height_bound": self.height_bound,
                "exclusion_height": self.exclusion_height}


def member_of_field(z: FixedComplex, field_desc: ClassFieldDescriptor, p: int,
                    height_bound: int) -> Membership | NotFound:
    """Coordinates of z in the power basis of the field generator, if any.

    Searches an integer relation among {z, 1, gamma, ..., gamma^(m-1)},
    climbing from the identity at scale 0 in float-reduced rungs of
    ``RUNG_BITS`` to a basis of its cold lattice that the exact kernel
    reduces and certifies, as ``min_poly`` does; a hit is
    accepted when its certified residual, evaluated on those same elements
    at the lattice's working precision (p + GUARD_BITS), clears the
    10**(-0.8 digits) threshold, and the exact rational coordinates are
    returned.
    """
    m = field_desc.degree
    w = p + GUARD_BITS
    gamma = field_desc.embedding_at(p).rescale(w)
    elements = [z.rescale(w), FixedComplex.from_int(1, w)]
    for _ in range(m - 1):
        elements.append(elements[-1] * gamma)
    basis, threshold_digits, excl, _scale = _relation_search(
        z, p, elements, height_bound)

    for vec in basis[:6]:
        b = vec[0]
        if b == 0 or any(abs(v) > height_bound for v in vec):
            continue
        combo = elements[0] * b
        for a, e in zip(vec[1:], elements[1:]):
            combo = combo + e * a
        # |combo| / |b| is tested against the threshold and reported
        ulps = _ceil_div(combo.abs_upper_ulps(), abs(b))
        if _below_threshold(ulps, w, threshold_digits):
            coords = [Fraction(-a, b) for a in vec[1:]]
            return Membership(coords, _residual_log10(ulps, w))
    return NotFound(height_bound, excl)
