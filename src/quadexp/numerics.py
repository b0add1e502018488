"""Arbitrary-precision binary fixed-point arithmetic with tracked error bounds.

A FixedReal is mantissa * 2**-scale_bits together with err_ulps, an integer
bound on the absolute error in units of 2**-scale_bits. Every operation
computes an output bound that is valid whenever the input bounds are; bounds
are never dropped. Elementary functions evaluate at scale_bits + 64 guard
bits internally and round once at the end, so their published bounds are a
handful of ulps.

Two series kernels serve the elementary functions: exp's Taylor loop
(``_exp_series``) for exp, cos and sin, and the artanh/arctan series for
log (``_log_mantissa``) and for pi and log 2 (``_inv_series``). exp, cos
and sin run the Taylor loop on their argument divided by 2**k and square
the sum k times; log takes k square roots before its artanh sum and
multiplies it by 2**k. Each works k extra bits, which absorb the error the
squarings or the multiplication add, and tracks that error step by step in
integers. The depths k are the module constants EXP_HALVINGS, CIS_HALVINGS
and LOG_ROOTS; they cut the series to about a third of their terms.

The only shared state is the per-precision mantissas of pi and log 2, each
held by ``functools.cache``, which stays coherent under threads without a
lock here; everything else is immutable values.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from .errors import DomainError

GUARD_BITS = 64
# argument-reduction depths: exp's and exp_cis's series run on x / 2**k and
# square back k times; log takes LOG_ROOTS square roots before its series
EXP_HALVINGS = 14
CIS_HALVINGS = 8
LOG_ROOTS = 5


def _rshift_round(x: int, s: int) -> int:
    """Round x / 2**s to the nearest integer (ties away from zero is fine)."""
    if s <= 0:
        return x << (-s)
    h = 1 << (s - 1)
    if x >= 0:
        return (x + h) >> s
    return -((-x + h) >> s)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class FixedReal:
    __slots__ = ("mantissa", "scale_bits", "err_ulps")

    def __init__(self, mantissa: int, scale_bits: int, err_ulps: int = 0):
        if scale_bits < 0:
            raise ValueError("scale_bits must be nonnegative")
        if err_ulps < 0:
            raise ValueError("err_ulps must be nonnegative")
        self.mantissa = mantissa
        self.scale_bits = scale_bits
        self.err_ulps = err_ulps

    @classmethod
    def from_int(cls, n: int, p: int) -> "FixedReal":
        return cls(n << p, p, 0)

    @classmethod
    def from_ratio(cls, num: int, den: int, p: int) -> "FixedReal":
        """num/den rounded to p bits; exact when den is a power of two factor."""
        return cls(num << p, p).div_int(den)

    @classmethod
    def zero(cls, p: int) -> "FixedReal":
        return cls(0, p, 0)

    # -- representation helpers -------------------------------------------

    def rescale(self, p: int) -> "FixedReal":
        """Exact when p >= scale_bits, otherwise rounded with the error kept."""
        d = p - self.scale_bits
        if d == 0:
            return self
        if d > 0:
            return FixedReal(self.mantissa << d, p, self.err_ulps << d)
        m = _rshift_round(self.mantissa, -d)
        e = _ceil_div(self.err_ulps, 1 << (-d)) + 1
        return FixedReal(m, p, e)

    def _aligned(self, other: "FixedReal"):
        p = max(self.scale_bits, other.scale_bits)
        return self.rescale(p), other.rescale(p), p

    def to_decimal(self, digits: int) -> str:
        """Decimal string with the given number of fractional digits."""
        scaled = self.mantissa * 10**digits
        v = _rshift_round(scaled, self.scale_bits)
        sign = "-" if v < 0 else ""
        v = abs(v)
        ip, fp = divmod(v, 10**digits)
        return f"{sign}{ip}.{fp:0{digits}d}" if digits else f"{sign}{ip}"

    def __repr__(self):
        return f"FixedReal({self.to_decimal(12)}..., p={self.scale_bits}, err={self.err_ulps})"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return FixedReal(-self.mantissa, self.scale_bits, self.err_ulps)

    def __add__(self, other):
        a, b, p = self._aligned(other)
        return FixedReal(a.mantissa + b.mantissa, p, a.err_ulps + b.err_ulps)

    def __sub__(self, other):
        a, b, p = self._aligned(other)
        return FixedReal(a.mantissa - b.mantissa, p, a.err_ulps + b.err_ulps)

    def __mul__(self, other):
        if isinstance(other, int):
            return FixedReal(self.mantissa * other, self.scale_bits,
                             self.err_ulps * abs(other))
        a, b, p = self._aligned(other)
        full = a.mantissa * b.mantissa
        m = _rshift_round(full, p)
        raw = abs(a.mantissa) * b.err_ulps + abs(b.mantissa) * a.err_ulps \
            + a.err_ulps * b.err_ulps
        return FixedReal(m, p, _ceil_div(raw, 1 << p) + 1)

    def div_int(self, k: int) -> "FixedReal":
        if k == 0:
            raise ZeroDivisionError
        if k < 0:
            return (-self).div_int(-k)
        q, r = divmod(self.mantissa, k)
        if 2 * r >= k:
            q += 1
        e = _ceil_div(self.err_ulps, k) + (0 if r == 0 else 1)
        return FixedReal(q, self.scale_bits, e)

    def __truediv__(self, other):
        a, b, p = self._aligned(other)
        mb = b.mantissa
        if abs(mb) <= 2 * b.err_ulps:
            raise DomainError("division by a value not separated from zero")
        num = a.mantissa << p
        q, r = divmod(num, mb)  # fraction r/mb lies in [0, 1)
        if mb > 0:
            if 2 * r >= mb:
                q += 1
        else:
            if 2 * r <= mb:
                q += 1
        denom_low = abs(mb) - b.err_ulps
        e1 = _ceil_div(a.err_ulps << p, denom_low)
        e2 = _ceil_div((abs(a.mantissa) << p) * b.err_ulps, denom_low * denom_low)
        return FixedReal(q, p, e1 + e2 + 1)

    # -- comparisons against exact data -------------------------------------

    def indistinguishable(self, other: "FixedReal") -> bool:
        a, b, _ = self._aligned(other)
        return abs(a.mantissa - b.mantissa) <= a.err_ulps + b.err_ulps

    def definitely_positive(self) -> bool:
        return self.mantissa > self.err_ulps

    def abs_upper_ulps(self) -> int:
        return abs(self.mantissa) + self.err_ulps

    def log2_abs_upper(self) -> int:
        """Smallest k with |value| + err <= 2**k, or a very negative sentinel."""
        u = self.abs_upper_ulps()
        if u == 0:
            return -(1 << 30)
        return u.bit_length() - self.scale_bits


class FixedComplex:
    __slots__ = ("re", "im")

    def __init__(self, re: FixedReal, im: FixedReal):
        self.re = re
        self.im = im

    @classmethod
    def from_int(cls, n: int, p: int) -> "FixedComplex":
        return cls(FixedReal.from_int(n, p), FixedReal.zero(p))

    def rescale(self, p: int) -> "FixedComplex":
        return FixedComplex(self.re.rescale(p), self.im.rescale(p))

    def __add__(self, other):
        return FixedComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FixedComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (int, FixedReal)):
            return FixedComplex(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return FixedComplex(a * c - b * d, a * d + b * c)

    def conj(self) -> "FixedComplex":
        return FixedComplex(self.re, -self.im)

    def __truediv__(self, other):
        if isinstance(other, int):
            return FixedComplex(self.re.div_int(other), self.im.div_int(other))
        n = self * other.conj()
        d = other.abs2()
        return FixedComplex(n.re / d, n.im / d)

    def abs2(self) -> FixedReal:
        """|z|^2, derived on demand."""
        return self.re * self.re + self.im * self.im

    def indistinguishable(self, other: "FixedComplex") -> bool:
        return self.re.indistinguishable(other.re) and self.im.indistinguishable(other.im)

    def abs_upper_ulps(self) -> int:
        return self.re.abs_upper_ulps() + self.im.abs_upper_ulps()

    def __repr__(self):
        return f"FixedComplex({self.re.to_decimal(12)} + {self.im.to_decimal(12)}i)"


# -- constants ---------------------------------------------------------------


def _inv_series(k: int, w: int, alternating: bool) -> int:
    """arctan(1/k) * 2**w if alternating, else artanh(1/k) * 2**w, k >= 2.

    sum_j (+-1)**j x_j / (2j + 1), x_(j+1) = x_j // k**2; error < #terms ulps.
    """
    x = (1 << w) // k
    kk = k * k
    total = 0
    j = 0
    while x:
        t = x // (2 * j + 1)
        total += -t if alternating and j & 1 else t
        x //= kk
        j += 1
    return total


@cache
def _pi_mantissa(p: int) -> int:
    """pi * 2**p, from 16 arctan(1/5) - 4 arctan(1/239) at 32 guard bits."""
    w = p + 32
    man_w = 16 * _inv_series(5, w, True) - 4 * _inv_series(239, w, True)
    return _rshift_round(man_w, 32)


def pi_fixed(p: int) -> FixedReal:
    """pi at p bits; computed once per precision and cached (thread safe)."""
    return FixedReal(_pi_mantissa(p), p, 2)


@cache
def _log2_mantissa(w: int) -> int:
    """log 2 * 2**w, from 2 artanh(1/3) at 32 guard bits."""
    return _rshift_round(2 * _inv_series(3, w + 32, False), 32)


# -- square root ---------------------------------------------------------------


def sqrt_fixed(n: int, p: int) -> FixedReal:
    """sqrt of a nonnegative integer at p bits; err_ulps <= 1, exact for squares."""
    if n < 0:
        raise DomainError("sqrt_fixed of a negative integer")
    if p < 32:
        raise DomainError("precision below 32 bits")
    m = isqrt(n << (2 * p))
    exact = m * m == n << (2 * p)
    return FixedReal(m, p, 0 if exact else 1)


# -- exp / log ---------------------------------------------------------------


def _exp_series(r: int, w: int) -> tuple[list[int], int]:
    """Taylor terms of e**x * 2**w, x = r/2**w, |x| <= 0.75, summed by j mod 4.

    Term j is t_j = floor(t_(j-1) x / j), t_0 = 2**w; sums[k] adds the t_j
    with j = k mod 4, so e**x = sum(sums), cos x = sums[0] - sums[2] and
    sin x = sums[1] - sums[3]. Returns (sums, J + 2), t_J the first zero term.
    t_j misses 2**w x**j / j! by at most 1 + |x| / j times t_(j-1)'s miss,
    so by under 1.21 ulps for |x| <= 0.41, where the tail past t_J is under
    1 ulp: e**x misses by under 1.21 J + 1 <= J + 2 ulps, and cos and sin
    each sum at most (J + 1)/2 terms and miss by under 1.21 (J + 1)/2 + 1
    <= J + 2 ulps.

    exp_fixed and exp_cis call it at scale v = w + k on r, an argument x
    of |x| <= 0.79 at scale w, so the series sums e**(x / 2**k) exactly as
    read, and square the sum k times back to e**x. A squaring of s = E + e,
    E the exact value at scale v, gives s**2 - E**2 = e (2 s - e): the miss
    relative to the value doubles, and the floor adds under 1 ulp. After k
    squarings the miss is 2**k times the series' miss plus under 2**(k+2)
    ulps, times at most e**|x| for exp (|E| = 1 for cos + i sin). Dropping
    the k extra bits divides it by 2**k again, so those bits absorb the
    doubling and the result misses by a few times J ulps. Each caller
    tracks the miss step by step in integers and publishes what that gives.
    At w = 640 the series runs 34 terms for exp (k = 14, |x| <= 0.35) and
    52 for cos and sin (k = 8, |x| <= 0.79), against 96 and 98 without the
    reduction.
    """
    sums = [1 << w, 0, 0, 0]
    term = 1 << w
    j = 1
    while term:
        term = (term * r) >> w
        term //= j
        sums[j & 3] += term
        j += 1
    return sums, j + 1


def exp_fixed(x: FixedReal, p: int) -> FixedReal:
    """e**x at p bits. Error bound covers the input's own err_ulps."""
    w = p + GUARD_BITS
    xs = x.rescale(w)
    ln2 = _log2_mantissa(w)
    n = _rshift_round((xs.mantissa << w) // ln2, w)
    if abs(n) > 1 << 24:
        raise DomainError("exp argument magnitude out of supported range")
    r = xs.mantissa - n * ln2  # |r| <= (ln 2)/2 * 2**w + 1
    v = w + EXP_HALVINGS  # r at scale v is (r / 2**w) / 2**EXP_HALVINGS
    sums, err = _exp_series(r, v)
    s = sum(sums)
    for _ in range(EXP_HALVINGS):
        # s = E + e: s**2 - E**2 = e (2 s - e); 1 ulp for the floor of s**2
        # and 1 for the floor of the bound
        err = (((2 * s + err) * err) >> v) + 2
        s = (s * s) >> v
    man = _rshift_round(s, EXP_HALVINGS)
    serr = (err >> EXP_HALVINGS) + 2
    # relative input error: |d exp/dx| = exp(x); n*ln2 error adds |n|*2 ulps
    rel = xs.err_ulps + abs(n) * 2 + serr
    if n >= 0:
        man_out = man << n
        err_out = ((man_out * rel) >> w) + (serr << n) + 1
    else:
        man_out = _rshift_round(man, -n)
        err_out = ((man * rel) >> (w - n)) + serr + 2
    res = FixedReal(man_out, w, err_out)
    return res.rescale(p)


def _log_mantissa(m: int, w: int) -> tuple[int, int]:
    """log of m/2**w for m > 0, at scale w. Returns (mantissa, err_ulps).

    m/2**w = 2**k y/2**w with y/2**w in [0.75, 1.5). K = LOG_ROOTS square
    roots, each an isqrt at scale v = w + K, take y to its 2**K-th root y',
    within a factor 1.5**(1/2**K) of 1, and log y = 2**K log y' = 2**(K+1)
    artanh(t), t = (y' - 1)/(y' + 1). A root of a value in [0.75, 1.5)
    scales its input's miss e by under 1/(2 sqrt 0.75) < 3/4, and its floor
    adds under 1 ulp, so the root's miss stays under the tracked
    floor(3 e/4) + 2 <= 5 ulps at scale v. It moves log y' by under e/0.86
    ulps, charged as 2 e; t and the artanh sum miss by under j + 2 ulps
    before the doubling, as without the roots. The doubled sum at scale v,
    read at scale w, is exactly 2**K times its value: the K extra bits
    absorb the multiplication, and every miss in ulps at scale v is the same
    number of ulps at scale w. At w = 640 the sum runs 45 terms (K = 5)
    against 139 without the roots.
    """
    k = m.bit_length() - 1 - w
    norm_err = 0
    if k > 0:
        y = _rshift_round(m, k)
        norm_err = 1
    elif k < 0:
        y = m << (-k)
    else:
        y = m
    # y/2**w in [1, 2]; pull into [0.75, 1.5) so |t| stays below 1/5
    if 2 * y >= 3 << w:
        y = _rshift_round(y, 1)
        k += 1
        norm_err += 1
    v = w + LOG_ROOTS
    y <<= LOG_ROOTS
    root_err = 0
    for _ in range(LOG_ROOTS):
        y = isqrt(y << v)
        root_err = (3 * root_err >> 2) + 2
    one = 1 << v
    t = ((y - one) << v) // (y + one)
    sign = 1 if t >= 0 else -1
    ta = abs(t)
    tt = (ta * ta) >> v
    total = ta
    term = ta
    j = 1
    while term:
        term = (term * tt) >> v
        total += term // (2 * j + 1)
        j += 1
    ln2 = _log2_mantissa(w)
    man = sign * 2 * total + k * ln2
    err = 2 * (j + norm_err + root_err + 2) + abs(k) * 2 + 4
    return man, err


def log_fixed(x: FixedReal, p: int) -> FixedReal:
    """Natural log for x > 1 (the public domain); DomainError otherwise."""
    if x.mantissa <= 1 << x.scale_bits:
        raise DomainError("log_fixed requires x > 1")
    return _log_positive(x, p)


def _log_positive(x: FixedReal, p: int) -> FixedReal:
    """Natural log for any x > 0; internal superset of log_fixed's domain."""
    if x.mantissa <= 0 or x.mantissa <= 2 * x.err_ulps:
        raise DomainError("log of a value not separated from zero")
    w = p + GUARD_BITS
    xs = x.rescale(w)
    man, err = _log_mantissa(xs.mantissa, w)
    # input error: |d log/dx| = 1/x
    err += _ceil_div(xs.err_ulps << w, xs.mantissa - xs.err_ulps)
    return FixedReal(man, w, err).rescale(p)


# -- exp(2 pi i theta) --------------------------------------------------------


def exp_cis(theta: FixedReal, p: int) -> FixedComplex:
    """cos(2 pi theta) + i sin(2 pi theta); theta reduced mod 1 exactly first."""
    if p < 32:
        raise DomainError("precision below 32 bits")
    w = p + GUARD_BITS
    q = theta.scale_bits
    frac = theta.mantissa % (1 << q)  # exact reduction mod 1 at mantissa level
    reduced = FixedReal(frac, q, theta.err_ulps).rescale(w)
    mf, in_err = reduced.mantissa, reduced.err_ulps
    # nearest quarter: o/4 with remainder |r| <= 1/8
    o = (mf + (1 << (w - 3))) >> (w - 2)
    r = mf - (o << (w - 2))
    pim = pi_fixed(w).mantissa
    phi = _rshift_round(2 * pim * r, w)  # |phi| <= 2 pi / 8 < 0.7854
    v = w + CIS_HALVINGS  # phi at scale v is phi / 2**CIS_HALVINGS
    sums, err = _exp_series(phi, v)
    c, s = sums[0] - sums[2], sums[1] - sums[3]  # cos, sin of the reduced phi
    err *= 2  # bounds the miss |dz| of z = c + i s, as |dc| + |ds|
    for _ in range(CIS_HALVINGS):
        # |z| = 1: z**2 misses by 2|dz| + |dz|**2; under sqrt 2 ulps for the
        # floors of c and s, and 1 for the floor of the bound
        err = 2 * err + ((err * err) >> v) + 3
        c, s = ((c + s) * (c - s)) >> v, (c * s) >> (v - 1)
    re, im = _rshift_round(c, CIS_HALVINGS), _rshift_round(s, CIS_HALVINGS)
    serr = (err >> CIS_HALVINGS) + 2  # the miss of cos phi and of sin phi
    for _ in range(o & 3):  # rotate by o quarter turns, each a product by i
        re, im = -im, re
    # phi misses by under 1 ulp; input error: derivative bound |2 pi| < 7
    err = serr + 2 + 7 * in_err
    z = FixedComplex(FixedReal(re, w, err), FixedReal(im, w, err))
    return z.rescale(p)
