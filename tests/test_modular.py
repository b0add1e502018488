import math
import os
import random
import re
from dataclasses import fields
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (discriminant, eval_int, factor_degrees_mod,
                     factor_irreducible_reference, hcf_generator_reference,
                     is_irreducible, ring_class_polynomial)

from quadexp import modular
from quadexp.classforms import class_group
from quadexp.errors import DomainError, InsufficientPrecision
from quadexp.modular import (ClassPolynomialResult, IntegerPolynomial,
                             ROUNDING_GAP_BITS, _class_poly_attempt,
                             hcf_generator, j_invariant,
                             ring_class_polynomial_detailed, tau_from_form)
from quadexp.numerics import FixedComplex, FixedReal, sqrt_fixed
from quadexp.quadfield import OrderDescriptor, is_squarefree


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
        shifted = FixedComplex(tau.re + FixedReal.from_int(1, p + 64), tau.im)
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
        detail = ring_class_polynomial_detailed(15, 1, 512, cache_dir=None)
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
        detail = ring_class_polynomial_detailed(15, 1, 384, cache_dir=None)
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


@pytest.fixture
def builds(monkeypatch):
    """The precisions, in order, at which the j embeddings get built."""
    works = []
    embeddings = modular._j_embeddings

    def spy(forms, work):
        works.append(work)
        return embeddings(forms, work)

    monkeypatch.setattr(modular, "_j_embeddings", spy)
    return works


def _entry(cache: str) -> Path:
    return Path(cache) / "classpoly_d15_f1.txt"


def _edit_entry(cache, bits, line, edit):
    """Write the d = 15 entry by a call at bits, then edit one line."""
    ring_class_polynomial_detailed(15, 1, bits, cache_dir=cache)
    lines = _entry(cache).read_text().splitlines()
    lines[line] = edit(lines[line])
    _entry(cache).write_text("\n".join(lines) + "\n")


class TestCache:
    def test_roundtrip_and_coherence(self, tmp_path):
        cache = str(tmp_path)
        a = ring_class_polynomial(15, 1, 384, cache_dir=cache)
        files = os.listdir(cache)
        assert any(f.startswith("classpoly_d15_f1") for f in files)
        b = ring_class_polynomial(15, 1, 384, cache_dir=cache)  # entry present
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
        # j is not separated from zero, so the build escalates, with an
        # entry present as without one
        cache = str(tmp_path)
        miss = ring_class_polynomial_detailed(194, 2, 256, cache_dir=cache)
        hit = ring_class_polynomial_detailed(194, 2, 256, cache_dir=cache)
        assert result_key(hit) == result_key(miss)
        # certified at the escalated precision, not at p
        assert miss.precision_bits > 256
        assert miss.gap_bits > ROUNDING_GAP_BITS

    @pytest.mark.parametrize("entry", [
        # the recognize benchmark's order: 512 bits, then 384 in one directory
        pytest.param(lambda cache: ring_class_polynomial_detailed(
            15, 1, 512, cache_dir=cache), id="written-at-512"),
        pytest.param(lambda cache: _entry(cache).write_bytes(b"garbage\n"),
                     id="garbage"),
        pytest.param(lambda cache: _entry(cache).write_bytes(b"\xff\xfe\n"),
                     id="non-ascii"),
        # more precision than the build loop can reach from 384 bits
        pytest.param(lambda cache: _edit_entry(
            cache, 384, 0, lambda line: re.sub(
                r"precision=\d+",
                f"precision={(384 << (modular.MAX_ESCALATIONS - 1)) + 1}",
                line)), id="header-above-ceiling"),
        pytest.param(lambda cache: _edit_entry(
            cache, 512, 3, lambda line: str(int(line) + 1)),
            id="wrong-coefficient"),
        pytest.param(lambda cache: _edit_entry(
            cache, 384, 3, lambda line: "191025.0"),
            id="non-integer-coefficient"),
    ])
    def test_entry_never_steers_a_build(self, tmp_path, builds, entry):
        # whatever the directory holds, a build makes the same attempts at
        # the same precisions as without one, and rewrites the entry
        bypass = ring_class_polynomial_detailed(15, 1, 384, cache_dir=None)
        bypass_builds = builds[:]
        cache = str(tmp_path)
        entry(cache)
        builds.clear()
        result = ring_class_polynomial_detailed(15, 1, 384, cache_dir=cache)
        assert builds == bypass_builds == [384]
        assert result_key(result) == result_key(bypass)
        assert _entry(cache).read_text().splitlines() == [
            f"quadexp-classpoly 2 precision=384 gap={bypass.gap_bits}",
            "disc=-15 degree=2", "-121287375", "191025", "1"]


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
        desc = hcf_generator(3, 1, 256, cache_dir=None)
        assert desc.generator_minpoly.coefficients == (3, 0, 1)
        assert desc.degree == 2
        assert desc.translate == 1

    def test_embedding_beyond_precision_is_typed(self):
        # the modular layer raises the same precision error as recognition
        desc = hcf_generator(3, 1, 256, cache_dir=None)
        assert desc.embedding_at(128).re.scale_bits == 128
        with pytest.raises(InsufficientPrecision):
            desc.embedding_at(512)

    def test_d15_degree_four(self):
        desc = hcf_generator(15, 1, 512, cache_dir=None)
        assert desc.degree == 4
        assert desc.generator_minpoly.degree == 4
        assert discriminant(desc.generator_minpoly) != 0  # squarefree
        val = desc.generator_minpoly.eval_complex(desc.generator_embedding)
        assert val.re.abs_upper_ulps() < 1 << (512 - 256)
        assert val.im.abs_upper_ulps() < 1 << (512 - 256)

    def test_d163_degree_two(self):
        desc = hcf_generator(163, 1, 512, cache_dir=None)
        assert desc.degree == 2
        assert desc.generator_minpoly.degree == 2

    def test_matches_sympy_resultant(self):
        # the exact-integer norm and the embedding separation test give the
        # resultant, translate and gamma of the sympy build
        checked = 0
        for d in range(1, 60):
            if not is_squarefree(d):
                continue
            for f in (1, 2, 3):
                desc = hcf_generator(d, f, 256, cache_dir=None)
                poly, t, gamma = hcf_generator_reference(d, f, 256)
                assert desc.generator_minpoly == poly, (d, f)
                assert desc.translate == t, (d, f)
                for x, y in ((desc.generator_embedding.re, gamma.re),
                             (desc.generator_embedding.im, gamma.im)):
                    assert (x.mantissa, x.scale_bits, x.err_ulps) == \
                        (y.mantissa, y.scale_bits, y.err_ulps), (d, f)
                checked += 1
        assert checked == 111

    def test_colliding_embeddings_take_next_translate(self, monkeypatch):
        # Hj = y^2 + 15 has roots +-i sqrt 15, which differ by 2is at
        # t = f = 1: Hj(x+is) Hj(x-is) = x^2 (x^2 + 60) is not squarefree,
        # and t = 2 is the least translate
        p = 256
        root = sqrt_fixed(15, p)
        embs = [FixedComplex(FixedReal.zero(p), root),
                FixedComplex(FixedReal.zero(p), -root)]

        def colliding(d, f, p, cache_dir=None):
            return ClassPolynomialResult(IntegerPolynomial((15, 0, 1)), p, p,
                                         embs)

        monkeypatch.setattr(modular, "ring_class_polynomial_detailed",
                            colliding)
        desc = hcf_generator(15, 1, p, cache_dir=None)
        poly, t, _ = hcf_generator_reference(15, 1, p)
        assert desc.translate == t == 2
        assert desc.generator_minpoly == poly
        assert discriminant(poly) != 0


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


def _times(a: IntegerPolynomial, b: IntegerPolynomial) -> IntegerPolynomial:
    out = [0] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return IntegerPolynomial(tuple(out))


def _random_poly(rng: random.Random, degree: int, bound: int) -> IntegerPolynomial:
    lead = rng.choice((-1, 1)) * rng.randint(1, bound)
    return IntegerPolynomial(
        tuple(rng.randint(-bound, bound) for _ in range(degree)) + (lead,))


NONCONSTANT = st.lists(st.integers(-60, 60), min_size=2, max_size=8).filter(
    lambda c: c[-1] != 0).map(lambda c: IntegerPolynomial(tuple(c)))
# irreducible over Q, yet split modulo every prime: the degree-pattern test
# can never prove them, so they take sympy's path
SPLIT_EVERYWHERE = [(1, 0, 0, 0, 1), (1, 0, -10, 0, 1)]  # x^4+1, x^4-10x^2+1


class TestFactorIrreducible:
    """``factor_irreducible`` against sympy's ``factor_list`` on both paths:
    the degree-pattern certificate and the fallback to sympy."""

    @settings(max_examples=300, deadline=None)
    @given(NONCONSTANT, NONCONSTANT)
    def test_products_never_certified(self, a, b):
        product = _times(a, b).primitive()
        assert not modular._irreducible_by_degree_pattern(product.coefficients)
        assert product.factor_irreducible() == \
            factor_irreducible_reference(product)

    def test_certified_exactly_when_irreducible(self):
        # mixed sign and content, a third of them reducible, degrees 1..12:
        # a reducible one is never certified, and within _PATTERN_CAP
        # primes every irreducible one of the sweep is
        rng = random.Random(20261019)
        paths = {True: 0, False: 0}
        for _ in range(300):
            poly = _random_poly(rng, rng.randint(1, 12), 40)
            if rng.random() < 0.3:
                poly = _times(poly, _random_poly(rng, rng.randint(1, 4), 9))
            scale = rng.choice((1, -1, 2, -6, 35))
            poly = IntegerPolynomial(tuple(scale * c for c in poly.coefficients))
            reference = factor_irreducible_reference(poly)
            certified = modular._irreducible_by_degree_pattern(
                poly.primitive().coefficients)
            assert certified == (reference == [poly.normalized()]), poly
            paths[certified] += 1
            assert poly.factor_irreducible() == reference, poly
        assert min(paths.values()) >= 50, paths

    @pytest.mark.parametrize("coeffs", SPLIT_EVERYWHERE)
    def test_split_everywhere_falls_back(self, coeffs):
        assert not modular._irreducible_by_degree_pattern(coeffs)
        for scale in (1, -3):
            poly = IntegerPolynomial(tuple(scale * c for c in coeffs))
            assert poly.factor_irreducible() == \
                factor_irreducible_reference(poly) == [IntegerPolynomial(coeffs)]

    @pytest.mark.parametrize("coeffs,want", [
        ((0,), []), ((7,), []), ((-12,), []), ((0, 0, 0), []),
        ((0, 9), [(0, 1)]), ((3, 6), [(1, 2)]), ((4, -6), [(-2, 3)]),
        ((-5, -10), [(1, 2)])])
    def test_degree_zero_and_one(self, coeffs, want):
        poly = IntegerPolynomial(coeffs)
        got = poly.factor_irreducible()
        assert [f.coefficients for f in got] == want
        assert got == factor_irreducible_reference(poly)

    def test_factor_degrees_match_sympy_mod_q(self):
        # the distinct-degree factorization the certificate rests on, and
        # its refusals: q | lc, and reductions that are not squarefree
        rng = random.Random(7)
        refused = 0
        for _ in range(400):
            coeffs = _random_poly(rng, rng.randint(1, 14), 30).coefficients
            q = rng.choice(modular._PATTERN_PRIMES[:9])
            want = factor_degrees_mod(coeffs, q)
            got = modular._factor_degrees_mod(coeffs, q)
            assert (None if got is None else sorted(got)) == want, (coeffs, q)
            refused += want is None
        assert 40 <= refused <= 360

