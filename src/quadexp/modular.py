"""j-invariant, ring class polynomials and a generator of the target field.

j is evaluated from the Eisenstein q-series with a certified truncation
tail folded into the error bound; class polynomial coefficients are only
rounded to integers when the certified distance to the nearest integer
is below the rounding-gap threshold, otherwise precision escalates.
Every build starts from its own estimate; a cache directory receives each
certified polynomial for inspection, and no run reads it back
(``CaseParams`` rejects a directory that cannot be written before any work).

The class-field generator is built in exact integers.
``IntegerPolynomial.factor_irreducible`` first tries to prove its polynomial
irreducible from the degrees of its factors modulo small primes, in plain
ints; sympy is imported only to factor a polynomial that this test cannot
prove irreducible, so importing this module, the scans, the symbolic runs,
``hcf_generator`` and a recognition whose candidates are all proven never
load it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import permutations
from math import gcd, log, pi, sqrt
from operator import mul

from .classforms import class_group
from .errors import DomainError, InsufficientPrecision
from .numerics import (FixedComplex, FixedReal, GUARD_BITS, exp_cis,
                       exp_fixed, pi_fixed, sqrt_fixed, _ceil_div)
from .quadfield import OrderDescriptor

ROUNDING_GAP_BITS = 32
MAX_ESCALATIONS = 4  # attempts, at doubling precision, before giving up
# the degree-pattern test of factor_irreducible tries every one of these
# primes in turn, skipping any that divides the leading coefficient or leaves
# a reduction that is not squarefree, and gives up to sympy after the last
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


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

    def factor_irreducible(self) -> list["IntegerPolynomial"]:
        """The distinct irreducible integer factors of positive degree
        (content and multiplicities dropped), each once, primitive with a
        positive leading coefficient.

        A primitive part that ``_irreducible_by_degree_pattern`` proves
        irreducible is returned as its own one factor, normalized as sympy
        returns it. Any other goes to sympy's factorization: the program's
        one use of sympy, imported only then. Its ``factor_list`` lists each
        distinct factor once, in its own order, and moves the sign into the
        content; every factor it lists has positive degree, since the
        primitive part has degree at least 1.
        """
        prim = self.primitive()
        if prim.degree < 1:
            return []
        if _irreducible_by_degree_pattern(prim.coefficients):
            return [prim.normalized()]
        import sympy
        sym = sympy.Poly(list(reversed(prim.coefficients)), sympy.Symbol("x"))
        return [IntegerPolynomial(tuple(map(int, reversed(fac.all_coeffs()))))
                for fac, _ in sym.factor_list()[1]]

    def eval_complex(self, z: FixedComplex) -> FixedComplex:
        p = z.re.scale_bits
        acc = FixedComplex.from_int(self.coefficients[-1], p)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * z + FixedComplex.from_int(c, p)
        return acc

    def to_json(self) -> list[int]:
        return list(self.coefficients)


def _irreducible_by_degree_pattern(coeffs: tuple[int, ...]) -> bool:
    """True only if the integer polynomial coeffs, of degree n >= 1, is
    irreducible over Q.

    A factor of degree a has degree a modulo every prime q that does not
    divide the leading coefficient, so a is a sum of the degrees of the
    irreducible factors mod q. Once the sets of such sums, over the usable
    primes, meet only in {0, n}, no proper factor exists (Musser, J. ACM 25,
    1978). False proves nothing: the polynomial may be reducible, not
    squarefree, or split modulo every prime, as x^4 + 1 does.
    """
    n = len(coeffs) - 1
    proven = 1 | 1 << n
    common = (1 << n + 1) - 1  # bit a set: a factor of degree a may exist
    for q in _PATTERN_PRIMES:
        degrees = _factor_degrees_mod(coeffs, q)
        if degrees is None:
            continue
        sums = 1
        for a in degrees:
            sums |= sums << a
        common &= sums
        if common == proven:
            return True
    return False


def _factor_degrees_mod(coeffs: tuple[int, ...], q: int) -> list[int] | None:
    """Degrees of the irreducible factors of coeffs modulo the prime q.

    Distinct-degree factorization (Cohen, GTM 138, Alg. 3.4.3): the factors
    of degree dividing i are those of gcd(f, x^(q^i) - x). Both q-th power
    maps mod f are linear over GF(q), so each is applied as a matrix of
    residues in plain lists, through its columns. None when q divides the
    leading coefficient or the reduction is not squarefree.
    """
    lead = coeffs[-1] % q
    if lead == 0:
        return None
    inv = pow(lead, -1, q)
    f = [c * inv % q for c in coeffs]  # monic
    n = len(f) - 1
    if _gcd_degree_mod(f, [i * f[i] % q for i in range(1, n + 1)], q):
        return None
    # shifted[k] = x^(q+k) mod f, so x^q r = sum_k r_k shifted[k] mod f
    shifted, power = [], [1] + [0] * (n - 1)
    for k in range(q + n - 1):
        top = power[-1]
        power = [(a - top * b) % q for a, b in zip([0] + power[:-1], f)]
        if k >= q - 1:
            shifted.append(power)
    # rows[j] = x^(jq) mod f, so h^q = sum_j h_j rows[j] mod f
    cols = list(zip(*shifted))
    rows = [[1] + [0] * (n - 1)]
    while len(rows) < n:
        rows.append([sum(map(mul, rows[-1], c)) % q for c in cols])
    cols = list(zip(*rows))
    degrees = []
    h = [0, 1] + [0] * (n - 2)  # x^(q^i) mod f; used only when n >= 2
    i = 0
    while n - sum(degrees) >= 2 * (i + 1):
        i += 1
        h = [sum(map(mul, h, c)) % q for c in cols]
        g = h[:]
        g[1] = (g[1] - 1) % q
        # deg gcd(f, x^(q^i) - x) sums the degrees d | i of f's factors
        k = _gcd_degree_mod(f, g, q) - sum(d for d in degrees if i % d == 0)
        degrees += [i] * (k // i)
    if n > sum(degrees):
        degrees.append(n - sum(degrees))
    return degrees


def _gcd_degree_mod(a: list[int], b: list[int], q: int) -> int:
    """Degree of gcd(a, b) over GF(q), a nonzero; lowest degree first."""
    a, b = _trim(a), _trim(b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            # cancel a's top term; zip stops short of b's
            c = a.pop() * inv % q
            s = len(a) - len(b) + 1
            a[s:] = [(x - c * y) % q for x, y in zip(a[s:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


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
                                   cache_dir: str | None) -> ClassPolynomialResult:
    """Monic integer polynomial with roots j(tau_Q) over the class forms.

    Rounding is certified: each coefficient (plus its error bound) must sit
    within 2**-ROUNDING_GAP_BITS of an integer or the computation retries at
    doubled precision, up to 2**(MAX_ESCALATIONS - 1) times the estimate's.
    With ``cache_dir``, every certified polynomial is written there for
    inspection; no build reads an entry back. ``CaseParams`` rejects a
    directory that cannot be written before any work; called directly with
    one, the build raises ``OSError`` at its write.
    """
    order = OrderDescriptor("imaginary", d, f)
    summary = class_group(order)
    forms = summary.representatives

    work = max(p, _coefficient_bits_estimate(order.discriminant, forms) + 96)
    ceiling = work << (MAX_ESCALATIONS - 1)
    while work <= ceiling:
        try:
            result = _class_poly_attempt(forms, work, p)
            _cache_write(cache_dir, d, f, order.discriminant, summary.h,
                         result)
            return result
        except InsufficientPrecision:
            work *= 2
    raise InsufficientPrecision(
        f"class polynomial for (d={d}, f={f}) did not certify below {work} bits")


def _coefficient_bits_estimate(disc: int, forms) -> int:
    """Crude upper estimate of coefficient size: pi sqrt|disc| sum(1/a) nats."""
    s = 0.0  # left to right, not sum(): 3.12's float sum() compensates
    for a, _, _ in forms:
        s += 1.0 / a
    return int(pi * sqrt(abs(disc)) * s / log(2)) + 16 * len(forms)


def _j_embeddings(forms, work: int) -> list[FixedComplex]:
    return [j_invariant(tau_from_form(*q, work + GUARD_BITS), work)
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
                  cache_dir: str | None) -> ClassFieldDescriptor:
    """gamma = j(tau_1) + t f sqrt(-d) with squarefree degree-2h minpoly.

    With s = t f sqrt(d), the minimal polynomial is the resultant
    Res_y(Hj(y), (x-y)^2 + s^2) = Hj(x+is) Hj(x-is), computed exactly by
    ``_translate_norm``. Its 2h roots are j_k -+ is over the j embeddings
    j_k, so it is squarefree exactly when no j_k - j_l equals 2is; t is the
    least positive integer for which the certified embeddings prove every
    difference apart from 2is.
    """
    detail = ring_class_polynomial_detailed(d, f, p, cache_dir)
    hj, embs = detail.polynomial, detail.j_embeddings
    root = sqrt_fixed(d, p)
    for t in range(1, 64):
        two_is = FixedComplex(FixedReal.zero(p), root * (2 * t * f))
        if not any((jk - jl).indistinguishable(two_is)
                   for jk, jl in permutations(embs, 2)):
            gamma = FixedComplex(embs[0].re, embs[0].im + root * (t * f))
            return ClassFieldDescriptor(
                d, f, _translate_norm(hj, t * t * f * f * d), gamma,
                2 * hj.degree, hj, t, p)
    raise InsufficientPrecision("no squarefree translate found below 64")


def _translate_norm(hj: IntegerPolynomial, m: int) -> IntegerPolynomial:
    """Hj(x+is) Hj(x-is) = A^2 + m B^2 for s^2 = m, in exact integers.

    A and B, with Hj(x+is) = A(x) + is B(x), come from Horner's rule over
    Z[is]: (A + isB)(x + is) + c = (xA - mB + c) + is(xB + A).
    """
    h = hj.degree
    a, b = [0] * (h + 1), [0] * (h + 1)  # coefficients of x^0 .. x^h
    for c in reversed(hj.coefficients):
        a, b = ([c - m * b[0]] + [a[r - 1] - m * b[r] for r in range(1, h + 1)],
                [a[0]] + [b[r - 1] + a[r] for r in range(1, h + 1)])
    norm = [0] * (2 * h + 1)
    for i in range(h + 1):
        for k in range(h + 1):
            norm[i + k] += a[i] * a[k] + m * b[i] * b[k]
    return IntegerPolynomial(tuple(norm))
