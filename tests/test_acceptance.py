"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line with its runtime; the stated time limits are
asserted. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import mpmath as mp
import sympy

from oracles import (complex_of_real, definite_class_number_orbit,
                     discriminant, lovasz_holds, matches_lll_reference,
                     min_unit_power_in_suborder)
from quadexp.classforms import _definite_reduced_forms, class_group
from quadexp.errors import DegenerateBasis
from quadexp.modular import (IntegerPolynomial, ROUNDING_GAP_BITS, j_invariant,
                             ring_class_polynomial_detailed)
from quadexp.numerics import (FixedComplex, FixedReal, exp_cis, exp_fixed,
                              log_fixed, sqrt_fixed)
from quadexp.pipeline import CaseParams, run_case, verify_symbolic
from quadexp.quadfield import (OrderDescriptor, QuadraticIrrational,
                               UnitElement, fundamental_unit, is_squarefree,
                               pell_min_solution, sl2_equivalent)
from quadexp.recognition import evaluate_J, lll_reduce, min_poly


def _report(num: int, label: str, t0: float, limit: float):
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num} [{label}]: PASS in {dt:.2f}s (limit {limit:.0f}s)")
    assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.1f}s)"


def test_criterion_1_worked_example_arithmetic():
    t0 = time.perf_counter()
    r = run_case(15, CaseParams(precision_bits=512, recognition=False))
    assert r.class_numbers["h_imag"] == 2
    assert r.class_numbers["h_real_wide"] == 2
    assert r.conductors["f"] == 1 and r.conductors["frak_f"] == 1
    eps = r.epsilon["value"]
    assert (eps["a"], eps["b"], eps["c"], eps["d"]) == (4, 1, 1, 15)
    thetas = [QuadraticIrrational(**t["theta"]) for t in r.theta_list]
    assert any(sl2_equivalent(t, QuadraticIrrational(0, 1, 1, 15)).sl2
               for t in thetas)
    _report(1, "worked example arithmetic (d=15)", t0, 10)


def test_criterion_2_exclusion_set():
    t0 = time.perf_counter()
    for d in (3, 7, 11, 19, 43, 67, 163):
        assert class_group(OrderDescriptor("imaginary", d, 1)).h == 1, d
    _report(2, "exclusion set", t0, 1)


def test_criterion_3_unit_oracle():
    t0 = time.perf_counter()
    checked = 0
    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        o1 = OrderDescriptor("real", d, 1)
        disc = o1.fundamental_discriminant
        t, u = pell_min_solution(disc)
        s = 1 if disc == d else 2
        eps1 = QuadraticIrrational(t, u * s, 2, d)
        assert fundamental_unit(o1).value == eps1, d
        checked += 1
        for f in (2, 3):
            of = OrderDescriptor("real", d, f)
            assert fundamental_unit(of).value == \
                min_unit_power_in_suborder(eps1, of), (d, f)
            checked += 2
    assert checked > 150
    _report(3, f"unit oracle ({checked} checks)", t0, 30)


def test_criterion_4_class_number_oracle():
    t0 = time.perf_counter()
    n = 0
    for disc in range(-3, -2001, -1):
        if disc % 4 in (0, 1):
            assert len(_definite_reduced_forms(disc)) == \
                definite_class_number_orbit(disc), disc
            n += 1
    assert n == 1000
    _report(4, "class-number oracle |disc| <= 2000", t0, 60)


def test_criterion_5_j_and_class_polynomial():
    t0 = time.perf_counter()
    p = 256
    tau = FixedComplex(FixedReal.zero(p + 64), FixedReal.from_int(1, p + 64))
    j = j_invariant(tau, p)
    assert abs(j.re.mantissa - (1728 << p)) + j.re.err_ulps < 1 << (p - 200)
    assert abs(j.im.mantissa) + j.im.err_ulps < 1 << (p - 200)
    rho = FixedComplex(FixedReal.from_ratio(-1, 2, p + 64),
                       sqrt_fixed(3, p + 64).div_int(2))
    j0 = j_invariant(rho, p)
    assert abs(j0.re.mantissa) + j0.re.err_ulps < 1 << (p - 200)
    assert abs(j0.im.mantissa) + j0.im.err_ulps < 1 << (p - 200)

    detail = ring_class_polynomial_detailed(15, 1, 512, cache_dir=None)
    poly = detail.polynomial
    assert poly.degree == 2 and poly.leading == 1
    assert detail.gap_bits >= ROUNDING_GAP_BITS == 32
    disc = discriminant(poly)
    import math
    s = math.isqrt(disc // 5)
    assert disc > 0 and 5 * s * s == disc
    _report(5, "j anchors and ring class polynomial", t0, 60)


def test_criterion_6_recognition_soundness_and_negative_control():
    t0 = time.perf_counter()
    rng = random.Random(20240815)
    x = sympy.Symbol("x")
    p = 665  # 200 decimal digits
    mp.mp.dps = 240
    recovered = 0
    for i in range(100):
        deg = rng.randint(1, 8)
        while True:
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(deg)] + \
                [rng.randint(1, 10**6)]
            poly = sympy.Poly(list(reversed(coeffs)), x)
            prim = poly.primitive()[1]
            if prim.degree() == deg and prim.is_irreducible:
                break
        target = IntegerPolynomial(
            tuple(int(c) for c in reversed(prim.all_coeffs()))).normalized()
        roots = mp.polyroots([int(c) for c in poly.all_coeffs()],
                             maxsteps=200, extraprec=400)
        z0 = roots[rng.randrange(len(roots))]
        z = FixedComplex(FixedReal(int(mp.floor(mp.mpf(z0.real) * (1 << p))), p, 1),
                         FixedReal(int(mp.floor(mp.mpf(z0.imag) * (1 << p))), p, 1))
        res = min_poly(z, 8, 10**6, p)
        assert res.recognized, (i, target)
        assert res.verdict.minpoly.coefficients == target.coefficients, (i, target)
        recovered += 1
    assert recovered == 100

    p150 = 499  # 150 decimal digits
    man = int(mp.floor(mp.pi * (1 << p150)))
    zpi = complex_of_real(FixedReal(man, p150, 0))
    res = min_poly(zpi, 8, 10**12, p150)
    assert not res.recognized
    assert res.verdict.exclusion_height > 0
    _report(6, "recognition soundness + negative control", t0, 120)


def test_criterion_7_symbolic_suite():
    t0 = time.perf_counter()
    for suite in ("remark1", "lemma1", "lemma2", "jacobi"):
        checks = verify_symbolic(suite)
        assert checks and all(c.passed for c in checks), suite
    _report(7, "symbolic suite", t0, 10)


def test_criterion_8_headline_experiment():
    t0 = time.perf_counter()
    params = CaseParams(precision_bits=512)
    r = run_case(15, params)
    # completeness: every stage produced output
    assert r.conductors and r.class_numbers and r.epsilon
    assert len(r.j_values) == 2
    assert len(r.recognition_results) == 2
    assert r.field_descriptor["degree"] == 4
    assert len(r.membership) == 2
    assert r.conjugacy is not None
    # definitiveness: each verdict stable under doubled precision
    for res, stab in zip(r.recognition_results, r.stability):
        assert stab["stable"], stab
        if res["verdict"] == "recognized":
            assert stab.get("same_minpoly")
            digits = int(512 * 0.30103)
            shrink = stab["residual_log10_p"] - stab["residual_log10_2p"]
            assert shrink >= 0.5 * digits
        else:
            assert res["exclusion_height"] > 0
    # reproducibility: bit-identical report minus the timing block
    r2 = run_case(15, params)
    assert r.dumps(with_timing=False) == r2.dumps(with_timing=False)
    print(f"\n  experiment outcome: {[x['verdict'] for x in r.recognition_results]}, "
          f"membership: {[m['found'] for m in r.membership]}")
    _report(8, "headline experiment d=15 (outcome recorded, not asserted)", t0, 600)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(777)

    # numerics round-trip: x in (1, 10^6), p >= 128, within 16 ulps of x
    p = 128
    for _ in range(500):
        num = rng.randint(10**6 + 1, 10**12)
        xx = FixedReal.from_ratio(num, 10**6, p)
        back = exp_fixed(log_fixed(xx, p), p)
        diff = back - xx
        ulp = max(1, 1 << max(0, abs(xx.mantissa).bit_length() - p))
        assert abs(diff.mantissa) <= 16 * ulp + diff.err_ulps

    # |exp_cis(theta)| = 1 within declared error for 1000 random theta
    one = FixedReal.from_int(1, 256)
    for _ in range(1000):
        t = FixedReal.from_ratio(rng.randrange(-10**9, 10**9), 10**9 + 7, 256)
        assert exp_cis(t, 256).abs2().indistinguishable(one)

    # quadfield equivalence laws on randomized triples
    gens = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)]

    def rand_image(theta):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 5)):
            e, f, g, h = gens[rng.randrange(3)]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return (theta * a + b) / (theta * c + d)

    for _ in range(30):
        th = QuadraticIrrational(0, 1, 1, rng.choice((2, 3, 5, 7, 13, 15)))
        xx, yy, zz = rand_image(th), rand_image(th), rand_image(th)
        assert sl2_equivalent(xx, xx).sl2
        rxy, ryz, rxz = (sl2_equivalent(xx, yy), sl2_equivalent(yy, zz),
                         sl2_equivalent(xx, zz))
        assert rxy.sl2 and ryz.sl2 and rxz.sl2
        a, b, c, d = rxy.witness
        assert (yy * d - b) / (yy * (-c) + a) == xx  # witness inversion
        e, f, g, h = ryz.witness
        prod = (e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d)
        assert (xx * prod[0] + prod[1]) / (xx * prod[2] + prod[3]) == zz

    # Lemma 3 additivity restatement: mu(eps^n) = n mu(eps), n <= 10
    for d in (2, 5, 15):
        eps = fundamental_unit(OrderDescriptor("real", d, 1))
        theta = QuadraticIrrational(0, 1, 1, d)
        base = evaluate_J([theta], eps, 320)[0].mu
        power = eps.value
        for n in range(1, 11):
            pw = UnitElement(power, eps.norm if n % 2 else 1)
            power = power * eps.value
            assert evaluate_J([theta], pw, 320)[0].mu.indistinguishable(base * n)

    # LLL unimodularity: the reference's basis, by a transform of
    # determinant +-1
    for _ in range(50):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-10**4, 10**4) for _ in range(n + 1)]
                for _ in range(n)]
        try:
            reduced = lll_reduce(rows)
        except DegenerateBasis:
            continue
        assert matches_lll_reference(rows, reduced)
        assert lovasz_holds(reduced, Fraction(99, 100))

    # sklyanin ring and involution axioms on random degree <= 3 inputs
    from quadexp.sklyanin import Coeff, NCPolynomial, star

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            c = Coeff.monomial(Fraction(rng.randint(-3, 3) or 1),
                               {"mu": rng.randint(-1, 1),
                                "zeta": rng.randint(-1, 1)})
            terms[w] = terms.get(w, Coeff.zero()) + c
        return NCPolynomial(terms)

    for _ in range(50):
        pp_, qq_, rr_ = rand_poly(), rand_poly(), rand_poly()
        assert (pp_ * qq_) * rr_ == pp_ * (qq_ * rr_)
        assert pp_ * (qq_ + rr_) == pp_ * qq_ + pp_ * rr_
        assert star(star(pp_)) == pp_
        assert star(pp_ * qq_) == star(qq_) * star(pp_)

    _report(9, "property suites", t0, 300)
