import math
import os
import re
from dataclasses import fields

import mpmath as mp
import pytest

from oracles import (discriminant, eval_int, is_irreducible,
                     ring_class_polynomial)

from quadexp import modular
from quadexp.classforms import class_group
from quadexp.errors import DomainError, InsufficientPrecision
from quadexp.modular import (ClassPolynomialResult, IntegerPolynomial,
                             ROUNDING_GAP_BITS, _class_poly_attempt,
                             hcf_generator, j_invariant,
                             ring_class_polynomial_detailed, tau_from_form)
from quadexp.numerics import FixedComplex, FixedReal, sqrt_fixed
from quadexp.quadfield import OrderDescriptor


def tau_i(p):
    return FixedComplex(FixedReal.zero(p), FixedReal.from_int(1, p))


def tau_rho(p):
    return FixedComplex(FixedReal.from_ratio(-1, 2, p), sqrt_fixed(3, p).div_int(2))


class TestJInvariant:
    def test_j_at_i_is_1728(self):
        p = 256
        j = j_invariant(tau_i(p + 64), p)
        gap = abs(j.re.mantissa - (1728 << p)) + j.re.err_ulps
        assert gap < 1 << (p - 200)
        assert abs(j.im.mantissa) + j.im.err_ulps < 1 << (p - 200)

    def test_j_at_corner_is_0(self):
        p = 256
        j = j_invariant(tau_rho(p + 64), p)
        assert abs(j.re.mantissa) + j.re.err_ulps < 1 << (p - 200)
        assert abs(j.im.mantissa) + j.im.err_ulps < 1 << (p - 200)

    def test_translation_invariance_exact(self):
        p = 192
        tau = tau_from_form(1, 1, 4, p + 64)  # disc -15 principal form
        shifted = FixedComplex(tau.re + 1, tau.im)
        a = j_invariant(tau, p)
        b = j_invariant(shifted, p)
        assert a.re.mantissa == b.re.mantissa
        assert a.im.mantissa == b.im.mantissa

    def test_against_mpmath(self):
        p = 192
        tau = tau_from_form(2, 1, 2, p + 64)
        j = j_invariant(tau, p)
        mp.mp.dps = 80
        ref = 1728 * mp.kleinj(mp.mpc(mp.mpf(-1) / 4, mp.sqrt(15) / 4))
        assert abs(float(j.re.to_decimal(30)) - float(ref.real)) < 1e-20
        assert abs(float(j.im.to_decimal(30)) - float(ref.imag)) < 1e-20

    def test_lower_half_plane_rejected(self):
        p = 128
        tau = FixedComplex(FixedReal.zero(p), FixedReal.from_int(-1, p))
        with pytest.raises(DomainError):
            j_invariant(tau, p)


class TestRingClassPolynomial:
    def test_d3_is_x(self):
        poly = ring_class_polynomial(3, 1, 256)
        assert poly.coefficients == (0, 1)

    def test_d15_classical_polynomial(self):
        detail = ring_class_polynomial_detailed(15, 1, 512)
        poly = detail.polynomial
        assert poly.degree == 2
        assert poly.leading == 1
        assert detail.gap_bits >= ROUNDING_GAP_BITS
        disc = discriminant(poly)
        s = math.isqrt(disc // 5)
        assert disc > 0 and 5 * s * s == disc  # roots generate Q(sqrt 5)

    def test_d163_degree_one(self):
        poly = ring_class_polynomial(163, 1, 512)
        assert poly.degree == 1
        # the root is minus a perfect cube (the classical near-integer fact)
        root = -poly.coefficients[0]
        assert root < 0
        cbrt = round(abs(root) ** (1 / 3))
        assert cbrt**3 == -root

    def test_degree_law(self):
        for d, f in ((15, 1), (15, 2), (5, 1), (1, 1), (23, 1), (2, 3)):
            poly = ring_class_polynomial(d, f, 384)
            h = class_group(OrderDescriptor("imaginary", d, f)).h
            assert poly.degree == h, (d, f)

    def test_roots_are_j_embeddings(self):
        detail = ring_class_polynomial_detailed(15, 1, 384)
        for emb in detail.j_embeddings:
            val = detail.polynomial.eval_complex(emb.rescale(384))
            assert val.re.abs_upper_ulps() < 1 << (384 - 150)
            assert val.im.abs_upper_ulps() < 1 << (384 - 150)


def result_key(result: ClassPolynomialResult) -> dict:
    """Every field of the result, the j embeddings as plain tuples."""
    key = {}
    for f in fields(ClassPolynomialResult):
        value = getattr(result, f.name)
        if isinstance(value, list):  # j embeddings
            value = [(e.re.mantissa, e.re.scale_bits, e.re.err_ulps,
                      e.im.mantissa, e.im.scale_bits, e.im.err_ulps)
                     for e in value]
        key[f.name] = value
    return key


class TestCache:
    def test_roundtrip_and_coherence(self, tmp_path):
        cache = str(tmp_path)
        a = ring_class_polynomial(15, 1, 384, cache_dir=cache)
        files = os.listdir(cache)
        assert any(f.startswith("classpoly_d15_f1") for f in files)
        b = ring_class_polynomial(15, 1, 384, cache_dir=cache)  # hit
        c = ring_class_polynomial(15, 1, 384, cache_dir=None)  # bypass
        assert a.coefficients == b.coefficients == c.coefficients

    def test_format(self, tmp_path):
        cache = str(tmp_path)
        ring_class_polynomial(15, 1, 384, cache_dir=cache)
        path = os.path.join(cache, "classpoly_d15_f1.txt")
        lines = open(path).read().splitlines()
        assert re.fullmatch(r"quadexp-classpoly 2 precision=\d+ gap=\d+",
                            lines[0])
        assert lines[1] == "disc=-15 degree=2"
        assert [int(x) for x in lines[2:]] == [-121287375, 191025, 1]

    def test_hit_matches_miss(self, tmp_path):
        # j is large at disc -776: evaluated at p + GUARD_BITS, a divisor in
        # j is not separated from zero, so a hit must work where a miss does
        cache = str(tmp_path)
        miss = ring_class_polynomial_detailed(194, 2, 256, cache_dir=cache)
        hit = ring_class_polynomial_detailed(194, 2, 256, cache_dir=cache)
        assert result_key(hit) == result_key(miss)
        # certified at the escalated precision, not at p
        assert miss.precision_bits > 256
        assert miss.gap_bits > ROUNDING_GAP_BITS

    def test_header_precision_bounded(self, tmp_path, monkeypatch):
        # a header naming more precision than the miss loop can reach is a
        # miss: the file alone must not set the cost of a hit
        works = []
        embeddings = modular._j_embeddings

        def spy(forms, work):
            works.append(work)
            return embeddings(forms, work)

        monkeypatch.setattr(modular, "_j_embeddings", spy)
        cache = str(tmp_path)
        miss = ring_class_polynomial_detailed(15, 1, 384, cache_dir=cache)
        ceiling = works[0] << (modular.MAX_ESCALATIONS - 1)
        path = os.path.join(cache, "classpoly_d15_f1.txt")
        lines = open(path).read().splitlines()
        lines[0] = re.sub(r"precision=\d+", f"precision={ceiling + 1}",
                          lines[0])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        works.clear()
        again = ring_class_polynomial_detailed(15, 1, 384, cache_dir=cache)
        assert works and max(works) <= ceiling
        assert result_key(again) == result_key(miss)

    def test_corrupt_cache_ignored(self, tmp_path):
        cache = str(tmp_path)
        path = os.path.join(cache, "classpoly_d15_f1.txt")
        with open(path, "w") as fh:
            fh.write("garbage\n")
        poly = ring_class_polynomial(15, 1, 384, cache_dir=cache)
        assert poly.degree == 2

    def test_non_integer_coefficient_ignored(self, tmp_path):
        cache = str(tmp_path)
        ring_class_polynomial(15, 1, 384, cache_dir=cache)
        path = os.path.join(cache, "classpoly_d15_f1.txt")
        lines = open(path).read().splitlines()
        lines[3] = "191025.0"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        poly = ring_class_polynomial(15, 1, 384, cache_dir=cache)
        assert poly.coefficients == (-121287375, 191025, 1)

    def test_wrong_coefficient_rejected(self, tmp_path):
        # a well-formed entry is trusted only if the embeddings rebuild it;
        # a wrong one is a miss, which rewrites the file
        cache = str(tmp_path)
        ring_class_polynomial(15, 1, 384, cache_dir=cache)
        path = os.path.join(cache, "classpoly_d15_f1.txt")
        lines = open(path).read().splitlines()
        lines[2] = "-121287374"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        poly = ring_class_polynomial(15, 1, 384, cache_dir=cache)
        assert poly.coefficients == (-121287375, 191025, 1)
        assert open(path).read().splitlines()[2] == "-121287375"


class TestPrecisionEscalation:
    def test_attempt_fails_below_certificate(self):
        # at starved precision the rounding gap cannot certify; the public
        # entry point escalates instead of silently rounding
        forms = class_group(OrderDescriptor("imaginary", 23, 1)).representatives
        with pytest.raises(InsufficientPrecision):
            _class_poly_attempt(forms, 64, 64)
        poly = ring_class_polynomial(23, 1, 64)
        assert poly.degree == 3  # h(-23) = 3, certified after escalation


class TestGenerator:
    def test_d3_gives_sqrt_minus_3(self):
        desc = hcf_generator(3, 1, 256)
        assert desc.generator_minpoly.coefficients == (3, 0, 1)
        assert desc.degree == 2
        assert desc.translate == 1

    def test_embedding_beyond_precision_is_typed(self):
        # the modular layer raises the same precision error as recognition
        desc = hcf_generator(3, 1, 256)
        assert desc.embedding_at(128).re.scale_bits == 128
        with pytest.raises(InsufficientPrecision):
            desc.embedding_at(512)

    def test_d15_degree_four(self):
        desc = hcf_generator(15, 1, 512)
        assert desc.degree == 4
        assert desc.generator_minpoly.degree == 4
        assert desc.generator_minpoly.is_squarefree()
        val = desc.generator_minpoly.eval_complex(desc.generator_embedding)
        assert val.re.abs_upper_ulps() < 1 << (512 - 256)
        assert val.im.abs_upper_ulps() < 1 << (512 - 256)

    def test_d163_degree_two(self):
        desc = hcf_generator(163, 1, 512)
        assert desc.degree == 2
        assert desc.generator_minpoly.degree == 2


class TestIntegerPolynomialType:
    def test_normalization(self):
        p = IntegerPolynomial((2, 4, 0))
        assert p.degree == 1 and p.content == 2
        assert p.primitive().coefficients == (1, 2)

    def test_irreducibility(self):
        assert is_irreducible(IntegerPolynomial((-2, 0, 1)))
        assert not is_irreducible(IntegerPolynomial((0, 0, 1)))
        factors = IntegerPolynomial((0, -2, 0, 1)).factor_irreducible()  # x(x^2-2)
        assert sorted(f.coefficients for f in factors) == [(-2, 0, 1), (0, 1)]

    def test_eval(self):
        p = IntegerPolynomial((-2, 0, 1))
        assert eval_int(p, 5) == 23
        z = FixedComplex.from_int(3, 64)
        assert p.eval_complex(z).re.mantissa == 7 << 64
