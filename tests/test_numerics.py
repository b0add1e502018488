import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (exp_cis_reference, exp_fixed_reference,
                     log_positive_reference)
from quadexp import numerics
from quadexp.errors import DomainError
from quadexp.numerics import (FixedComplex, FixedReal, exp_cis, exp_fixed,
                              log_fixed, pi_fixed, sqrt_fixed, _log2_mantissa,
                              _log_positive)


def ulp_of(x: FixedReal) -> int:
    """Value-relative ulp count: 2**(exponent(x) - scale)."""
    return max(1, 1 << max(0, abs(x.mantissa).bit_length() - x.scale_bits))


class TestSqrt:
    def test_zero(self):
        s = sqrt_fixed(0, 64)
        assert s.mantissa == 0 and s.err_ulps == 0

    def test_perfect_square(self):
        s = sqrt_fixed(16, 64)
        assert s.mantissa == 4 << 64
        assert s.err_ulps == 0

    def test_sqrt2_squared_close(self):
        s = sqrt_fixed(2, 256)
        sq = s * s
        diff = sq - FixedReal.from_int(2, 256)
        bound = abs(diff.mantissa) + diff.err_ulps
        assert bound < 1 << (256 - 250)

    def test_small_n_four_ulps_exact(self):
        # exact integer comparison of mantissa^2 against n << 2p
        p = 128
        for n in (2, 3, 4):
            m = sqrt_fixed(n, p).mantissa
            assert abs(m * m - (n << (2 * p))) <= 4 << p

    def test_general_square_gap(self):
        from math import isqrt
        p = 128
        for n in (5, 7, 15, 163, 9999):
            s = sqrt_fixed(n, p)
            assert s.err_ulps <= 2
            gap = abs(s.mantissa**2 - (n << (2 * p)))
            assert gap <= (2 * isqrt(n) + 3) << p

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sqrt_fixed(-1, 64)


class TestExpCis:
    def test_identity(self):
        z = exp_cis(FixedReal.from_int(0, 128), 128)
        assert z.re.mantissa == 1 << 128
        assert z.im.mantissa == 0

    def test_half_turn(self):
        z = exp_cis(FixedReal.from_ratio(1, 2, 128), 128)
        assert abs(z.re.mantissa + (1 << 128)) <= 8
        assert abs(z.im.mantissa) <= 8
        assert z.re.err_ulps <= 8

    def test_sixth_root_cubed(self):
        z = exp_cis(FixedReal.from_ratio(1, 6, 256), 256)
        w = z * z * z
        re_gap = abs(w.re.mantissa + (1 << 256)) + w.re.err_ulps
        im_gap = abs(w.im.mantissa) + w.im.err_ulps
        assert re_gap < 1 << (256 - 240)
        assert im_gap < 1 << (256 - 240)

    def test_integer_reduction_exact(self):
        # theta and theta + 7 give bit-identical results
        t = FixedReal.from_ratio(3, 7, 192)
        a = exp_cis(t, 192)
        b = exp_cis(t + FixedReal.from_int(7, 192), 192)
        assert a.re.mantissa == b.re.mantissa
        assert a.im.mantissa == b.im.mantissa

    def test_modulus_one_random(self):
        rng = random.Random(12345)
        one = FixedReal.from_int(1, 256)
        for _ in range(200):
            t = FixedReal.from_ratio(rng.randrange(-10**9, 10**9), 10**9 + 7, 256)
            z = exp_cis(t, 256)
            assert z.abs2().indistinguishable(one)

    def test_against_mpmath(self):
        mp.mp.dps = 60
        t = FixedReal.from_ratio(1234567, 9999991, 160)
        z = exp_cis(t, 160)
        ref = mp.expjpi(2 * mp.mpf(1234567) / 9999991)
        assert abs(float(z.re.to_decimal(30)) - float(ref.real)) < 1e-28
        assert abs(float(z.im.to_decimal(30)) - float(ref.imag)) < 1e-28


def assert_contains(x: FixedReal, exact) -> None:
    """x's interval, mantissa +- err_ulps at its scale, holds the mpf exact."""
    p = x.scale_bits
    assert abs(x.mantissa - mp.ldexp(exact, p)) <= x.err_ulps


# remainders of both signs, up to +-1/16, from each eighth of a turn; a
# remainder of exactly 1/16 rounds to the next eighth
REMAINDERS = [Fraction(k, 16) - Fraction(1, 2**40) * k for k in (-1, 1)] + [
    Fraction(k, 37) for k in (-2, -1, 1, 2)] + [
    Fraction(k, 2**30) for k in (-3, 1)] + [Fraction(0)]


class TestSeriesContainment:
    """Published bounds contain the true value, as mpmath gives it."""

    @pytest.mark.parametrize("p", [64, 160, 512, 1024])
    def test_exp_cis(self, p):
        for eighth in range(8):
            for rem in REMAINDERS:
                theta = Fraction(eighth, 8) + rem
                # exact at scale p; -3 checks the reduction mod 1 too
                for shift in (0, -3):
                    m = math.floor((theta + shift) * 2**p)
                    z = exp_cis(FixedReal(m, p), p)
                    with mp.workprec(p + 128):
                        angle = 2 * mp.pi * mp.ldexp(m, -p)
                        assert_contains(z.re, mp.cos(angle))
                        assert_contains(z.im, mp.sin(angle))

    @pytest.mark.parametrize("p", [64, 160, 512, 1024])
    @pytest.mark.parametrize("x", [Fraction(-40), Fraction(-73, 10),
                                   Fraction(-3, 5), Fraction(-1, 7), Fraction(0),
                                   Fraction(1, 3), Fraction(1, 2), Fraction(22, 7),
                                   Fraction(25)])
    def test_exp_fixed(self, p, x):
        # x = n log 2 + r with n from -58 to 36, negative and positive;
        # from_ratio rounds x to p bits, and the bound covers that rounding
        y = exp_fixed(FixedReal.from_ratio(x.numerator, x.denominator, p), p)
        with mp.workprec(p + 128):
            assert_contains(y, mp.exp(mp.mpf(x.numerator) / x.denominator))

    @pytest.mark.parametrize("p", [64, 160, 512, 1024])
    def test_log_fixed(self, p):
        # (input, exact value it holds); _log_positive takes those below 1
        ulp = Fraction(1, 2**p)
        cases = [(FixedReal((1 << p) + 1, p), 1 + ulp),
                 (FixedReal(1 << (300 + p), p), Fraction(2**300)),
                 (FixedReal(1, 100), Fraction(1, 2**100)),
                 (FixedReal.from_ratio(22, 7, p), Fraction(22, 7)),
                 (sqrt_fixed(15, p), None)]
        # one ulp either side of the normalization edges 0.75 and 1.5
        for edge in (Fraction(3, 4), Fraction(3, 2)):
            for x in (edge - ulp, edge + ulp):
                cases.append((FixedReal(int(x * 2**p), p), x))
        assert cases[3][0].err_ulps > 0 and cases[4][0].err_ulps > 0
        with mp.workprec(p + 128):
            for x, exact in cases:
                ref = mp.log(mp.sqrt(15) if exact is None else
                             mp.mpf(exact.numerator) / exact.denominator)
                assert_contains(_log_positive(x, p), ref)
                if exact is None or exact > 1:
                    assert_contains(log_fixed(x, p), ref)

    @pytest.mark.parametrize("p", [64, 320, 1088])
    def test_internal_bounds(self, monkeypatch, p):
        # without guard bits the kernels publish their internal value and
        # bound unrounded, so the bound tracked through the reduction is
        # checked itself rather than through a 2**64 rounding gap
        monkeypatch.setattr(numerics, "GUARD_BITS", 0)
        rng = random.Random(p)
        with mp.workprec(p + 128):
            for _ in range(20):
                m = rng.randrange(-16 << p, 16 << p)
                assert_contains(exp_fixed(FixedReal(m, p), p),
                                mp.exp(mp.ldexp(m, -p)))
                m = rng.randrange(1 << p)
                z = exp_cis(FixedReal(m, p), p)
                angle = 2 * mp.pi * mp.ldexp(m, -p)
                assert_contains(z.re, mp.cos(angle))
                assert_contains(z.im, mp.sin(angle))
                m = rng.randrange(1 << max(p - 64, 0), 1 << (p + 64))
                assert_contains(_log_positive(FixedReal(m, p), p),
                                mp.log(mp.ldexp(m, -p)))


class TestKernelsMatchReference:
    """The argument-reduced kernels return what the full-length series did.

    Each kernel rounds its internal value through 64 guard bits, so the
    reduction's different internal rounding reaches neither the published
    mantissa nor err_ulps: both equal the reference's on the ranges the
    pipeline calls them with, for exact and inexact inputs at two scales.
    """

    @staticmethod
    def published(f, x, p):
        try:
            z = f(x, p)
        except DomainError as exc:
            return str(exc)
        parts = (z.re, z.im) if isinstance(z, FixedComplex) else (z,)
        return [(part.mantissa, part.scale_bits, part.err_ulps)
                for part in parts]

    def sweep(self, new, old, p, draw):
        rng = random.Random(p)
        for _ in range(60):
            q = rng.choice([p, p + 64])
            x = FixedReal(draw(rng, q), q, rng.choice([0, 1, 3, 1 << 20]))
            assert self.published(new, x, p) == self.published(old, x, p), x

    @pytest.mark.parametrize("p", [1, 64, 256, 512, 1024])
    def test_exp_cis(self, p):
        # theta in [0, 1)
        self.sweep(exp_cis, exp_cis_reference, p,
                   lambda rng, q: rng.randrange(1 << q))

    @pytest.mark.parametrize("p", [1, 64, 256, 512, 1024])
    def test_exp_fixed(self, p):
        # |x| <= 16
        self.sweep(exp_fixed, exp_fixed_reference, p,
                   lambda rng, q: rng.randrange(-16 << q, (16 << q) + 1))

    @pytest.mark.parametrize("p", [1, 64, 256, 512, 1024])
    def test_log_positive(self, p):
        # x in (2**-64, 2**64), log-uniform where the scale allows
        def draw(rng, q):
            lo = 1 << (q + rng.randrange(max(-64, -q), 64))
            return max(rng.randrange(lo, 2 * lo), (1 << max(q - 64, 0)) + 1)
        self.sweep(_log_positive, log_positive_reference, p, draw)


class TestLogExp:
    def test_log_near_one(self):
        p = 128
        x = FixedReal((1 << p) + 1, p, 0)  # 1 + 2^-p
        lg = log_fixed(x, p)
        assert abs(lg.mantissa - 1) <= 2

    def test_log_e_squared_roundtrip(self):
        p = 128
        e2 = exp_fixed(FixedReal.from_int(2, p), p)
        lg = log_fixed(e2, p)
        diff = lg - FixedReal.from_int(2, p)
        assert abs(diff.mantissa) <= diff.err_ulps + 8

    def test_log_epsilon15(self):
        # verify by exponentiating back at 256 bits
        from quadexp.quadfield import QuadraticIrrational
        p = 256
        eps = QuadraticIrrational(4, 1, 1, 15).to_fixed(p)
        lg = log_fixed(eps, p)
        back = exp_fixed(lg, p)
        diff = back - eps
        assert abs(diff.mantissa) <= diff.err_ulps + 8
        # independent digits from mpmath
        mp.mp.dps = 100
        ref = Fraction(mp.nstr(mp.log(4 + mp.sqrt(15)), 90, strip_zeros=False))
        mine = Fraction(lg.mantissa, 1 << p)
        assert abs(mine - ref) < Fraction(1, 10**70)
        assert lg.to_decimal(16).startswith("2.063437068895560")

    def test_log_domain(self):
        p = 96
        with pytest.raises(DomainError):
            log_fixed(FixedReal.from_int(1, p), p)
        with pytest.raises(DomainError):
            log_fixed(FixedReal.from_ratio(1, 2, p), p)

    def test_internal_log_below_one(self):
        p = 160
        x = FixedReal.from_ratio(1, 2, p)
        lg = _log_positive(x, p)
        mp.mp.dps = 60
        assert abs(float(lg.to_decimal(30)) - float(mp.log(0.5))) < 1e-28

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_property(self, num, den):
        # x in (1, 10^6], p >= 128: |exp(log x) - x| <= 16 ulps of x
        if num * 10**6 <= den:
            num = den + 1
        p = 128
        x = FixedReal.from_ratio(num * 10**6 + den, den, p)
        back = exp_fixed(log_fixed(x, p), p)
        diff = back - x
        assert abs(diff.mantissa) <= 16 * ulp_of(x) + diff.err_ulps


class TestPrecisionMonotone:
    def check(self, make):
        p = 192
        a = make(p)
        b = make(p + 64).rescale(p)
        assert a.indistinguishable(b)

    def test_sqrt(self):
        self.check(lambda p: sqrt_fixed(7, p))

    def test_pi(self):
        self.check(pi_fixed)

    def test_log(self):
        self.check(lambda p: log_fixed(FixedReal.from_int(3, p), p))

    def test_exp_cis(self):
        def make(p):
            return exp_cis(FixedReal.from_ratio(5, 17, p), p).re
        self.check(make)


class TestErrorPropagation:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=1, max_value=10**6))
    def test_product_interval_containment(self, ma, mb, den):
        # declared error bounds must contain the exact rational product
        p = 64
        a = FixedReal.from_ratio(ma, den, p)
        b = FixedReal.from_ratio(mb, den, p)
        prod = a * b
        exact = Fraction(ma, den) * Fraction(mb, den)
        gap = abs(Fraction(prod.mantissa, 1 << p) - exact)
        assert gap <= Fraction(prod.err_ulps, 1 << p)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=1, max_value=10**12))
    def test_division_interval_containment(self, ma, mb):
        p = 96
        a = FixedReal.from_ratio(ma, 10**6, p)
        b = FixedReal.from_ratio(mb, 10**6, p)
        if b.mantissa <= 2 * b.err_ulps:
            return
        quot = a / b
        exact = Fraction(ma, 10**6) / Fraction(mb, 10**6)
        gap = abs(Fraction(quot.mantissa, 1 << p) - exact)
        assert gap <= Fraction(quot.err_ulps, 1 << p)

    def test_pi_digits(self):
        mp.mp.dps = 120
        mine = Fraction(pi_fixed(320).mantissa, 1 << 320)
        ref = Fraction(mp.nstr(mp.pi, 110, strip_zeros=False))
        assert abs(mine - ref) < Fraction(1, 10**95)

    @pytest.mark.parametrize("w", [64, 100, 512, 1088, 2113])
    def test_log2_digits(self, w):
        # within the 2 ulps that exp_fixed and _log_mantissa charge per
        # multiple of log 2
        with mp.workprec(w + 64):
            assert abs(_log2_mantissa(w) - mp.ldexp(mp.log(2), w)) < 2

    @pytest.mark.parametrize("constant, cached, series", [
        (pi_fixed, numerics._pi_mantissa, [(5, True), (239, True)]),
        (_log2_mantissa, _log2_mantissa, [(3, False)])])
    def test_series_once_per_precision(self, monkeypatch, constant, cached,
                                       series):
        seen = []
        inv_series = numerics._inv_series

        def spy(k, w, alternating):
            seen.append((k, w, alternating))
            return inv_series(k, w, alternating)

        monkeypatch.setattr(numerics, "_inv_series", spy)
        cached.cache_clear()  # p is fresh
        p = 1234
        constant(p), constant(p)
        assert seen == [(k, p + 32, alternating) for k, alternating in series]


class TestFromRatio:
    @given(st.integers(-10**12, 10**12),
           st.integers(-10**6, 10**6).filter(bool), st.integers(0, 40))
    @example(0, 7, 10)
    @example(0, -3, 0)
    @example(1, 2, 0)  # ties: x + 1/2 is an integer
    @example(-1, 2, 0)
    @example(3, -2, 0)
    @example(-5, 4, 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction(self, num, den, p):
        x = Fraction(num * 2**p, den)
        r = FixedReal.from_ratio(num, den, p)
        assert r.scale_bits == p
        assert r.mantissa == math.floor(x + Fraction(1, 2))  # half up
        assert r.err_ulps == (0 if x.denominator == 1 else 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            FixedReal.from_ratio(1, 0, 64)


class TestConstantCacheConcurrency:
    def test_parallel_pi_requests(self):
        import threading
        results = []

        def worker(p):
            results.append((p, pi_fixed(p).mantissa))

        threads = [threading.Thread(target=worker, args=(256 + 32 * (i % 4),))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_p = {}
        for p, man in results:
            by_p.setdefault(p, set()).add(man)
        assert all(len(s) == 1 for s in by_p.values())


class TestFixedComplex:
    def test_div_roundtrip(self):
        p = 128
        a = FixedComplex(FixedReal.from_ratio(3, 7, p), FixedReal.from_ratio(-2, 5, p))
        b = FixedComplex(FixedReal.from_ratio(1, 3, p), FixedReal.from_ratio(4, 9, p))
        back = (a / b) * b
        assert back.indistinguishable(a)

    def test_modulus_derived(self):
        p = 128
        z = FixedComplex(FixedReal.from_ratio(3, 5, p), FixedReal.from_ratio(4, 5, p))
        assert z.abs2().indistinguishable(FixedReal.from_int(1, p))
