"""j-invariant, ring class polynomials and a generator of the target field.

j is evaluated from the Eisenstein q-series with a certified truncation
tail folded into the error bound; class polynomial coefficients are only
rounded to integers when the certified distance to the nearest integer
is below the rounding-gap threshold, otherwise precision escalates.

sympy is loaded by ``_load_sympy`` on the first class-field resultant or
factorization, so importing this module, the scans and the symbolic runs
never load it.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from math import gcd

from .classforms import class_group
from .errors import DomainError, InsufficientPrecision
from .numerics import (FixedComplex, FixedReal, GUARD_BITS, exp_cis,
                       exp_fixed, pi_fixed, sqrt_fixed, _ceil_div)
from .quadfield import OrderDescriptor

ROUNDING_GAP_BITS = 32
MAX_ESCALATIONS = 4  # attempts, at doubling precision, before giving up


def _load_sympy():
    """The sympy module, imported on first use; later calls find it in
    ``sys.modules``."""
    import sympy
    return sympy


@dataclass
class IntegerPolynomial:
    """Dense integer polynomial, lowest-degree coefficient first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> int:
        return self.coefficients[-1]

    @property
    def content(self) -> int:
        g = 0
        for c in self.coefficients:
            g = gcd(g, abs(c))
        return g

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coefficients)

    def primitive(self) -> "IntegerPolynomial":
        g = self.content
        if g <= 1:
            return self
        return IntegerPolynomial(tuple(c // g for c in self.coefficients))

    def normalized(self) -> "IntegerPolynomial":
        p = self.primitive()
        if p.leading < 0:
            p = IntegerPolynomial(tuple(-c for c in p.coefficients))
        return p

    def _sympy(self):
        sympy = _load_sympy()
        return sympy.Poly(list(reversed(self.coefficients)), sympy.Symbol("x"))

    def factor_irreducible(self) -> list["IntegerPolynomial"]:
        """Irreducible integer factors of positive degree (content dropped)."""
        out = []
        for fac, mult in self.primitive()._sympy().factor_list()[1]:
            coeffs = [int(c) for c in reversed(fac.all_coeffs())]
            poly = IntegerPolynomial(tuple(coeffs))
            if poly.degree >= 1:
                out.extend([poly] * mult)
        return out

    def is_squarefree(self) -> bool:
        p = self._sympy()
        return p.gcd(p.diff()).degree() == 0

    def eval_complex(self, z: FixedComplex) -> FixedComplex:
        p = z.re.scale_bits
        acc = FixedComplex.from_int(self.coefficients[-1], p)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * z + FixedComplex.from_int(c, p)
        return acc

    def to_json(self) -> list[int]:
        return list(self.coefficients)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coefficients):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return " + ".join(reversed(terms)) or "0"


def _sigma_table(k: int, n_max: int) -> list[int]:
    """sigma_k(n) for n = 1..n_max by divisor sieving."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d**k
        for m in range(d, n_max + 1, d):
            table[m] += dk
    return table[1:]


def _q_from_tau(tau: FixedComplex, w: int) -> FixedComplex:
    two_pi = pi_fixed(w) * 2
    radial = exp_fixed(-(two_pi * tau.im), w)
    angular = exp_cis(tau.re, w)
    return angular * radial


def j_invariant(tau: FixedComplex, p: int) -> FixedComplex:
    """Klein j from E4 and E6 q-series; tau must be in the upper half plane.

    The caller supplies tau already reduced to the standard fundamental
    domain (the pipeline always does); anything with moderate imaginary
    part still evaluates, only more slowly.
    """
    if not tau.im.definitely_positive():
        raise DomainError("j requires Im(tau) > 0")
    w = p + GUARD_BITS
    tau = tau.rescale(w)
    q = _q_from_tau(tau, w)
    # certified |q| upper bound as a power of two
    q_hi = q.abs2()
    bits = -_ceil_div(q_hi.log2_abs_upper(), 2)  # |q| <= 2**-bits
    if bits < 2:
        raise DomainError("Im(tau) too small for certified q-series bounds")
    n_terms = (w + 48) // bits + 4
    sig3 = _sigma_table(3, n_terms)
    sig5 = _sigma_table(5, n_terms)

    e4 = _eisenstein(q, sig3, 240, w, bits, n_terms, 4)
    e6 = _eisenstein(q, sig5, -504, w, bits, n_terms, 6)
    e4c = e4 * e4 * e4
    delta = (e4c - e6 * e6) / 1728
    return (e4c / delta).rescale(p)


def _eisenstein(q: FixedComplex, sig, factor: int, w: int, bits: int,
                n_terms: int, weight: int) -> FixedComplex:
    acc = FixedComplex.from_int(0, w)
    qp = FixedComplex.from_int(1, w)
    for n in range(1, n_terms + 1):
        qp = qp * q
        acc = acc + qp * sig[n - 1]
    acc = acc * factor
    one = FixedComplex.from_int(1, w)
    res = one + acc
    # tail: sum_{n > N} sigma_k(n) |q|^n <= 2 (N+1)^(k+1) 2^(-bits (N+1))
    tail_log2 = (weight + 1) * (n_terms + 1).bit_length() + 2 - bits * (n_terms + 1)
    tail_ulps = 1 << max(0, tail_log2 + w + abs(factor).bit_length())
    re = res.re
    im = res.im
    return FixedComplex(
        FixedReal(re.mantissa, w, re.err_ulps + tail_ulps),
        FixedReal(im.mantissa, w, im.err_ulps + tail_ulps))


def tau_from_form(a: int, b: int, c: int, p: int) -> FixedComplex:
    """Root (-b + sqrt(disc))/(2a) of a definite form, in the upper half plane."""
    disc = b * b - 4 * a * c
    if disc >= 0 or a <= 0:
        raise DomainError("definite form with a > 0 required")
    w = p + 32
    im = sqrt_fixed(-disc, w).div_int(2 * a)
    re = FixedReal.from_ratio(-b, 2 * a, w)
    return FixedComplex(re, im).rescale(p)


@dataclass
class ClassPolynomialResult:
    polynomial: IntegerPolynomial
    precision_bits: int
    gap_bits: int  # certified: every coefficient within 2**-gap_bits of an int
    j_embeddings: list[FixedComplex]


def ring_class_polynomial_detailed(d: int, f: int, p: int,
                                   cache_dir: str | None = None) -> ClassPolynomialResult:
    """Monic integer polynomial with roots j(tau_Q) over the class forms.

    Rounding is certified: each coefficient (plus its error bound) must sit
    within 2**-ROUNDING_GAP_BITS of an integer or the computation retries at
    doubled precision, at most ``MAX_ESCALATIONS`` attempts in all.
    """
    order = OrderDescriptor("imaginary", d, f)
    summary = class_group(order)
    forms = summary.representatives

    work = max(p, _coefficient_bits_estimate(order.discriminant, forms) + 96)
    cached = _cache_read(cache_dir, d, f, order.discriminant, summary.h)
    # an entry certified above the most the miss loop reaches is a miss:
    # its header alone would otherwise set the cost of the hit
    if cached is not None and cached[1] <= work << (MAX_ESCALATIONS - 1):
        # callers still want the embeddings: recompute them at the precision
        # the entry was certified at, as a miss does (at p alone they can
        # lose all their bits; j is large where |disc| is), and trust the
        # entry only if the polynomial rebuilt from them is the file's; any
        # other entry is a miss, which rewrites it
        poly, certified_at = cached
        try:
            result = _class_poly_attempt(forms, max(work, certified_at), p)
        except InsufficientPrecision:
            result = None
        if result is not None and result.polynomial == poly:
            return result

    for _ in range(MAX_ESCALATIONS):
        try:
            result = _class_poly_attempt(forms, work, p)
            _cache_write(cache_dir, d, f, order.discriminant, summary.h,
                         result)
            return result
        except InsufficientPrecision:
            work *= 2
    raise InsufficientPrecision(
        f"class polynomial for (d={d}, f={f}) did not certify at {work} bits")


def _coefficient_bits_estimate(disc: int, forms) -> int:
    """Crude upper estimate of coefficient size: pi sqrt|disc| sum(1/a) nats."""
    s = sum(1.0 / q.a for q in forms)
    import math
    return int(math.pi * math.sqrt(abs(disc)) * s / math.log(2)) + 16 * len(forms)


def _j_embeddings(forms, work: int) -> list[FixedComplex]:
    return [j_invariant(tau_from_form(q.a, q.b, q.c, work + GUARD_BITS), work)
            for q in forms]


def _class_poly_attempt(forms, work: int, p: int) -> ClassPolynomialResult:
    embs = _j_embeddings(forms, work)
    coeffs = [FixedComplex.from_int(1, work)]
    for j in embs:
        nxt = [FixedComplex.from_int(0, work) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * j
        coeffs = nxt
    ints = []
    gap_bits = 1 << 30
    for c in coeffs:
        val, gap = _certified_integer(c, work)
        if gap < ROUNDING_GAP_BITS:
            raise InsufficientPrecision("rounding gap too small")
        gap_bits = min(gap_bits, gap)
        ints.append(val)
    poly = IntegerPolynomial(tuple(ints))
    return ClassPolynomialResult(poly, work,
                                 min(gap_bits, work),
                                 [e.rescale(p) for e in embs])


def _certified_integer(c: FixedComplex, w: int) -> tuple[int, int]:
    """Nearest integer and certified -log2 distance (including error bounds)."""
    re, im = c.re, c.im
    n = (re.mantissa + (1 << (w - 1))) >> w
    dist_ulps = abs(re.mantissa - (n << w)) + re.err_ulps \
        + abs(im.mantissa) + im.err_ulps
    if dist_ulps == 0:
        return int(n), w
    gap = w - dist_ulps.bit_length()
    return int(n), gap


# -- disk cache ----------------------------------------------------------------

CACHE_VERSION = 2


def _cache_path(cache_dir: str, d: int, f: int) -> str:
    return os.path.join(cache_dir, f"classpoly_d{d}_f{f}.txt")


def _cache_read(cache_dir, d, f, disc, h):
    """(polynomial, precision_bits) of a well-formed entry, else None."""
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, d, f)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != h + 3:
        return None
    magic = re.fullmatch(
        rf"quadexp-classpoly {CACHE_VERSION} precision=(\d+) gap=\d+",
        lines[0])
    if not magic or lines[1].split() != [f"disc={disc}", f"degree={h}"] \
            or not all(re.fullmatch(r"-?\d+", v) for v in lines[2:]):
        return None
    coeffs = tuple(int(v) for v in lines[2:])
    return IntegerPolynomial(coeffs), int(magic[1])


def _cache_write(cache_dir, d, f, disc, h, result: ClassPolynomialResult):
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, d, f)
    body = [f"quadexp-classpoly {CACHE_VERSION} "
            f"precision={result.precision_bits} gap={result.gap_bits}",
            f"disc={disc} degree={h}"]
    body += [str(c) for c in result.polynomial.coefficients]
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write("\n".join(body) + "\n")
        os.replace(tmp, path)  # concurrent writers never expose partial files
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- field generator -----------------------------------------------------------


@dataclass
class ClassFieldDescriptor:
    """Primitive generator data for the ring class field of (d, f)."""

    d: int
    f: int
    generator_minpoly: IntegerPolynomial
    generator_embedding: FixedComplex
    degree: int
    j_minpoly: IntegerPolynomial
    translate: int  # gamma = j(tau_1) + translate * f * sqrt(-d)
    precision_bits: int

    def embedding_at(self, p: int) -> FixedComplex:
        if p <= self.precision_bits:
            return self.generator_embedding.rescale(p)
        raise InsufficientPrecision(
            f"descriptor holds {self.precision_bits} bits, {p} requested")

    def to_json(self) -> dict:
        return {"d": self.d, "f": self.f,
                "generator_minpoly": self.generator_minpoly.to_json(),
                "degree": self.degree,
                "j_minpoly": self.j_minpoly.to_json(),
                "translate": self.translate,
                "precision_bits": self.precision_bits}


def hcf_generator(d: int, f: int, p: int,
                  cache_dir: str | None = None) -> ClassFieldDescriptor:
    """gamma = j(tau_1) + t f sqrt(-d) with squarefree degree-2h minpoly.

    The minimal polynomial is the resultant Res_y(Hj(y), (x-y)^2 + t^2 f^2 d),
    computed exactly; t is the least positive integer making it squarefree.
    """
    detail = ring_class_polynomial_detailed(d, f, p, cache_dir)
    hj = detail.polynomial
    h = hj.degree
    sympy = _load_sympy()
    x, y = sympy.symbols("x y")
    hj_sym = sympy.Poly(list(reversed(hj.coefficients)), y)
    m = f * f * d
    for t in range(1, 64):
        quad = (x - y) ** 2 + t * t * m
        res = sympy.resultant(hj_sym.as_expr(), quad, y)
        res_poly = sympy.Poly(sympy.expand(res), x)
        coeffs = [int(c) for c in reversed(res_poly.all_coeffs())]
        cand = IntegerPolynomial(tuple(coeffs))
        if cand.degree == 2 * h and cand.is_squarefree():
            emb = _gamma_embedding(detail, t, f, d, p)
            return ClassFieldDescriptor(d, f, cand.normalized(), emb,
                                        2 * h, hj, t, p)
    raise InsufficientPrecision("no squarefree translate found below 64")


def _gamma_embedding(detail: ClassPolynomialResult, t: int, f: int, d: int,
                     p: int) -> FixedComplex:
    j1 = detail.j_embeddings[0].rescale(p)
    root = sqrt_fixed(d, p)
    im = root * (t * f)
    return FixedComplex(j1.re, j1.im + im)
