"""Arbitrary-precision binary fixed-point arithmetic with tracked error bounds.

A FixedReal is mantissa * 2**-scale_bits together with err_ulps, an integer
bound on the absolute error in units of 2**-scale_bits. Every operation
computes an output bound that is valid whenever the input bounds are; bounds
are never dropped. Elementary functions evaluate at scale_bits + 64 guard
bits internally and round once at the end, so their published bounds are a
handful of ulps.

The only shared mutable state is the per-precision cache of pi and log 2,
guarded by a lock; everything else is immutable values.
"""

from __future__ import annotations

import threading
from math import isqrt

from .errors import DomainError

GUARD_BITS = 64

_cache_lock = threading.Lock()
_pi_cache: dict[int, int] = {}
_log2_cache: dict[int, int] = {}


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
        if den == 0:
            raise ZeroDivisionError("from_ratio with zero denominator")
        if den < 0:
            num, den = -num, -den
        scaled = num << p
        q, r = divmod(scaled, den)
        if r == 0:
            return cls(q, p, 0)
        if 2 * r >= den:
            q += 1
        return cls(q, p, 1)

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

    def to_float(self) -> float:
        p = self.scale_bits
        if p <= 900:
            return self.mantissa / (1 << p)
        r = self.rescale(512)
        return r.mantissa / (1 << 512)

    def to_decimal(self, digits: int = 30) -> str:
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

    def __abs__(self):
        return FixedReal(abs(self.mantissa), self.scale_bits, self.err_ulps)

    def __add__(self, other):
        if isinstance(other, int):
            other = FixedReal.from_int(other, self.scale_bits)
        a, b, p = self._aligned(other)
        return FixedReal(a.mantissa + b.mantissa, p, a.err_ulps + b.err_ulps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = FixedReal.from_int(other, self.scale_bits)
        a, b, p = self._aligned(other)
        return FixedReal(a.mantissa - b.mantissa, p, a.err_ulps + b.err_ulps)

    def __rsub__(self, other):
        return (-self).__add__(other)

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

    __rmul__ = __mul__

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
        if isinstance(other, int):
            return self.div_int(other)
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
    def from_real(cls, x: FixedReal) -> "FixedComplex":
        return cls(x, FixedReal.zero(x.scale_bits))

    @classmethod
    def from_int(cls, n: int, p: int) -> "FixedComplex":
        return cls(FixedReal.from_int(n, p), FixedReal.zero(p))

    def rescale(self, p: int) -> "FixedComplex":
        return FixedComplex(self.re.rescale(p), self.im.rescale(p))

    def __add__(self, other):
        return FixedComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FixedComplex(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FixedComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, FixedReal)):
            return FixedComplex(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return FixedComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def conj(self) -> "FixedComplex":
        return FixedComplex(self.re, -self.im)

    def __truediv__(self, other):
        if isinstance(other, int):
            return FixedComplex(self.re.div_int(other), self.im.div_int(other))
        if isinstance(other, FixedReal):
            return FixedComplex(self.re / other, self.im / other)
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


def _atan_inv_mantissa(k: int, w: int) -> int:
    """arctan(1/k) * 2**w for integer k >= 2, floor error < #terms ulps."""
    x = (1 << w) // k
    kk = k * k
    total = 0
    j = 0
    while x:
        t = x // (2 * j + 1)
        total += -t if j & 1 else t
        x //= kk
        j += 1
    return total


def pi_fixed(p: int) -> FixedReal:
    """pi at p bits; computed once per precision and cached (thread safe)."""
    with _cache_lock:
        man = _pi_cache.get(p)
    if man is None:
        w = p + 32
        man_w = 16 * _atan_inv_mantissa(5, w) - 4 * _atan_inv_mantissa(239, w)
        man = _rshift_round(man_w, 32)
        with _cache_lock:
            _pi_cache[p] = man
    return FixedReal(man, p, 2)


def _log2_mantissa(w: int) -> int:
    with _cache_lock:
        man = _log2_cache.get(w)
    if man is None:
        ww = w + 32
        x = (1 << ww) // 3
        total = 0
        j = 0
        while x:
            total += x // (2 * j + 1)
            x //= 9
            j += 1
        man = _rshift_round(2 * total, 32)
        with _cache_lock:
            _log2_cache[w] = man
    return man


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


def _exp_series(r: int, w: int) -> tuple[int, int]:
    """e**(r/2**w) * 2**w for |r| <= 0.75 * 2**w. Returns (mantissa, err_ulps)."""
    total = 1 << w
    term = 1 << w
    j = 1
    steps = 0
    while term:
        term = (term * r) >> w
        term //= j
        total += term
        j += 1
        steps += 1
    return total, steps + 2


def exp_fixed(x: FixedReal, p: int) -> FixedReal:
    """e**x at p bits. Error bound covers the input's own err_ulps."""
    w = p + GUARD_BITS
    xs = x.rescale(w)
    ln2 = _log2_mantissa(w)
    n = _rshift_round((xs.mantissa << w) // ln2, w)
    if abs(n) > 1 << 24:
        raise DomainError("exp argument magnitude out of supported range")
    r = xs.mantissa - n * ln2  # |r| <= 0.7 * 2**w
    man, serr = _exp_series(r, w)
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
    """log of m/2**w for m > 0, at scale w. Returns (mantissa, err_ulps)."""
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
    one = 1 << w
    t = ((y - one) << w) // (y + one)
    sign = 1 if t >= 0 else -1
    ta = abs(t)
    tt = (ta * ta) >> w
    total = ta
    term = ta
    j = 1
    while term:
        term = (term * tt) >> w
        total += term // (2 * j + 1)
        j += 1
    ln2 = _log2_mantissa(w)
    man = sign * 2 * total + k * ln2
    err = 2 * (j + norm_err + 2) + abs(k) * 2 + 4
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


def _cos_sin_series(phi: int, w: int) -> tuple[int, int, int]:
    """cos and sin of phi/2**w for |phi| <= 0.41 * 2**w; (cos, sin, err)."""
    sign = 1 if phi >= 0 else -1
    pa = abs(phi)
    phi2 = (pa * pa) >> w
    cos_t = 1 << w
    cos_total = cos_t
    j = 0
    while cos_t:
        cos_t = (cos_t * phi2) >> w
        cos_t //= (2 * j + 1) * (2 * j + 2)
        cos_total += -cos_t if j % 2 == 0 else cos_t
        j += 1
    steps = j
    sin_t = pa
    sin_total = sin_t
    j = 0
    while sin_t:
        sin_t = (sin_t * phi2) >> w
        sin_t //= (2 * j + 2) * (2 * j + 3)
        sin_total += -sin_t if j % 2 == 0 else sin_t
        j += 1
    return cos_total, sign * sin_total, steps + j + 4


def exp_cis(theta: FixedReal, p: int) -> FixedComplex:
    """cos(2 pi theta) + i sin(2 pi theta); theta reduced mod 1 exactly first."""
    if p < 32:
        raise DomainError("precision below 32 bits")
    w = p + GUARD_BITS
    q = theta.scale_bits
    frac = theta.mantissa % (1 << q)  # exact reduction mod 1 at mantissa level
    if q <= w:
        mf = frac << (w - q)
        in_err = theta.err_ulps << (w - q)
    else:
        mf = _rshift_round(frac, q - w)
        in_err = _ceil_div(theta.err_ulps, 1 << (q - w)) + 1
    # nearest eighth: o/8 with remainder |r| <= 1/16
    o = (mf + (1 << (w - 4))) >> (w - 3)
    r = mf - (o << (w - 3))
    o &= 7
    pim = _size_pi(w)
    phi = _rshift_round(2 * pim * r, w)  # |phi| <= 2 pi / 16 < 0.3927
    c, s, serr = _cos_sin_series(phi, w)
    # rotate by o eighths of a turn
    if o % 2 == 0:
        re, im = _rotate_quarters(c, s, o // 2)
        rot_err = serr + 1
    else:
        h = isqrt(1 << (2 * w - 1))  # sqrt(1/2) at w bits
        re0, im0 = _rotate_quarters(c, s, o // 2)
        re = _rshift_round(h * (re0 - im0), w)
        im = _rshift_round(h * (re0 + im0), w)
        rot_err = 2 * serr + 6
    # input error: derivative bound |2 pi| < 7
    rot_err += 7 * in_err + 1
    z = FixedComplex(FixedReal(re, w, rot_err), FixedReal(im, w, rot_err))
    return z.rescale(p)


def _rotate_quarters(c: int, s: int, quarters: int):
    quarters &= 3
    if quarters == 0:
        return c, s
    if quarters == 1:
        return -s, c
    if quarters == 2:
        return -c, -s
    return s, -c


def _size_pi(w: int) -> int:
    with _cache_lock:
        man = _pi_cache.get(w)
    if man is not None:
        return man
    return pi_fixed(w).mantissa
