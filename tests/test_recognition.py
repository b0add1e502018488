import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import (cold_relation_basis, evaluate_J_reference, is_basis_of,
                     lll_reference, lovasz_holds, matches_lll_reference,
                     shortest_vector_brute)
from quadexp import recognition
from quadexp._core import FloatBreakdown, lll_reduce_rows, lll_reduce_rows_float
from quadexp.classforms import (class_group, match_conductor,
                                pseudo_lattice_reps)
from quadexp.errors import (DegenerateBasis, DomainError, InputRational,
                            InsufficientPrecision, NoMatchWithinBound)
from quadexp.modular import IntegerPolynomial, hcf_generator
from quadexp.numerics import FixedComplex, FixedReal, log_fixed, sqrt_fixed
from quadexp.pipeline import CaseParams, _conjugacy, run_case
from quadexp.quadfield import OrderDescriptor, QuadraticIrrational, fundamental_unit
from quadexp.recognition import (DEFAULT_DELTA, LOG10_2, RUNG_BITS,
                                 Membership, NotFound, _certified, _int_det,
                                 _tails, evaluate_J, j_function, lll_reduce,
                                 member_of_field, min_poly)


def real_probe(value_str: str, p: int, digits: int) -> FixedComplex:
    """Exact truncation of a decimal constant to p bits."""
    mp.mp.dps = digits + 30
    v = mp.mpf(value_str) if value_str[0].isdigit() else getattr(mp, value_str)
    man = int(mp.floor(v * (1 << p)))
    return FixedComplex.from_real(FixedReal(man, p, 0))


def assert_certified(residual_log10: float, p: int) -> None:
    """The reported residual is below the 10**(-0.8 digits) threshold."""
    assert residual_log10 < -0.8 * int(p * LOG10_2)


ALGEBRAIC_PROBES = [
    ("sqrt2+sqrt3", (1, 0, -10, 0, 1)),
    ("golden", (-1, -1, 1)),
    ("(1+i sqrt3)/2", (1, -1, 1)),
]


def probe_value(name: str, p: int) -> FixedComplex:
    """An algebraic probe of ``ALGEBRAIC_PROBES`` at p bits."""
    if name == "sqrt2+sqrt3":
        return FixedComplex.from_real(sqrt_fixed(2, p) + sqrt_fixed(3, p))
    if name == "golden":
        return FixedComplex.from_real(
            QuadraticIrrational(1, 1, 2, 5).to_fixed(p))
    return FixedComplex(FixedReal.from_ratio(1, 2, p),
                        sqrt_fixed(3, p).div_int(2))


@pytest.fixture
def rungs(monkeypatch):
    """(elements, scale) of every lattice the relation searches build."""
    calls = []
    power_rows = recognition._power_rows

    def spy(elements, s):
        calls.append((elements, s))
        return power_rows(elements, s)

    monkeypatch.setattr(recognition, "_power_rows", spy)
    return calls


def assert_identity_ladder(rungs) -> None:
    """One search's rungs: RUNG_BITS steps from scale 0, then its own scale."""
    scales = [s for _, s in rungs]
    assert len(scales) > 1
    assert scales == [*range(RUNG_BITS, scales[-1], RUNG_BITS), scales[-1]]
    assert all(elements is rungs[0][0] for elements, _ in rungs)


class TestLLL:
    def test_identity(self):
        identity = [[1, 0], [0, 1]]
        assert lll_reduce(identity) == identity
        assert lll_reference(identity) == (identity, identity)
        assert matches_lll_reference(identity, lll_reduce(identity))

    def test_lovasz_bound_on_skewed_basis(self):
        rows = [[1, 10**6], [0, 1]]
        reduced = lll_reduce(rows)
        # first vector within the LLL quality bound of det^(1/2)
        norm2 = sum(x * x for x in reduced[0])
        assert norm2 <= 2 * 10**6  # 2^((n-1)/2) * sqrt(det), squared
        assert lovasz_holds(reduced, Fraction(99, 100))

    def test_exact_lovasz_on_random(self):
        # deltas below, at and between the kernel's 3/4 and 9/10 ladder rungs
        for delta in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
                      Fraction(99, 100)):
            rng = random.Random(5)
            for _ in range(20):
                n = rng.randint(2, 5)
                rows = [[rng.randint(-999, 999) for _ in range(n + 1)]
                        for _ in range(n)]
                try:
                    reduced = lll_reduce(rows, delta)
                except DegenerateBasis:
                    continue
                assert lovasz_holds(reduced, delta), delta

    def test_shortest_vector_quality(self):
        rng = random.Random(11)
        for _ in range(10):
            rows = [[rng.randint(-1000, 1000) for _ in range(4)] for _ in range(4)]
            try:
                reduced = lll_reduce(rows)
            except DegenerateBasis:
                continue
            best = shortest_vector_brute(rows, 4)
            norm2 = sum(x * x for x in reduced[0])
            assert norm2 <= 8 * best  # (2^(3/2))^2

    def test_unimodular_transform(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-500, 500) for _ in range(n)] for _ in range(n)]
            try:
                reduced = lll_reduce(rows)
            except DegenerateBasis:
                continue
            # the reference's basis, which its transform maps the input to
            assert matches_lll_reference(rows, reduced)

    def test_dependent_rows(self):
        with pytest.raises(DegenerateBasis):
            lll_reduce([[1, 2], [2, 4]])

    @pytest.mark.parametrize("delta", [(99, 100), (3, 4), (1, 2)])
    def test_kernel_matches_reference(self, delta):
        # the swap reuses the Lovász test's product: same decisions, so the
        # same basis as the reference that recomputes it, whose transform
        # maps the input to that basis
        rng = random.Random(17)
        lattices = []
        for _ in range(12):
            n = rng.randint(2, 9)
            bits = rng.choice((16, 64, 200))
            lattices.append([[int(i == j) for j in range(n)] +
                             [rng.getrandbits(bits) - (1 << (bits - 1))
                              for _ in range(2)] for i in range(n)])
        for _ in range(12):
            n = rng.randint(2, 6)
            m = rng.choice((n, n + 2))
            lattices.append([[rng.randint(-999, 999) for _ in range(m)]
                             for _ in range(n)])
        checked = 0
        for rows in lattices:
            try:
                got = lll_reduce_rows(rows, *delta)
            except ValueError:
                continue
            assert matches_lll_reference(rows, got, *delta)
            checked += 1
        assert checked >= 20


def kernel_lattices(seed: int) -> list[list[list[int]]]:
    """Relation-search shaped lattices [I | 2 tails] and small square ones."""
    rng = random.Random(seed)
    lattices = []
    for _ in range(12):
        n = rng.randint(2, 9)
        bits = rng.choice((16, 64, 200, 600))
        lattices.append([[int(i == j) for j in range(n)] +
                         [rng.getrandbits(bits) - (1 << (bits - 1))
                          for _ in range(2)] for i in range(n)])
    for _ in range(12):
        n = rng.randint(2, 6)
        lattices.append([[rng.randint(-999, 999) for _ in range(n)]
                         for _ in range(n)])
    return lattices


@pytest.fixture
def searches(monkeypatch):
    """Counts of relation searches and of exact reductions among them."""
    counts = {"searches": 0, "exact": 0}
    search, reduce = recognition._relation_search, recognition.lll_reduce

    def search_spy(*args, **kwargs):
        counts["searches"] += 1
        return search(*args, **kwargs)

    def reduce_spy(basis, delta=DEFAULT_DELTA):
        counts["exact"] += 1
        return reduce(basis, delta)

    monkeypatch.setattr(recognition, "_relation_search", search_spy)
    monkeypatch.setattr(recognition, "lll_reduce", reduce_spy)
    return counts


class TestFloatLLL:
    # the rung kernel of every relation search: exact rows and Gram matrix,
    # Gram-Schmidt data in doubles with one exponent per row

    def test_output_is_basis_of_input_lattice(self):
        checked = 0
        for rows in kernel_lattices(17):
            if _int_det([row[:len(rows)] for row in rows]) == 0:
                continue
            reduced = lll_reduce_rows_float(rows, 99, 100)
            assert is_basis_of(reduced, rows)
            checked += 1
        assert checked >= 20

    def test_lovasz_holds(self):
        for rows in kernel_lattices(29):
            if _int_det([row[:len(rows)] for row in rows]) == 0:
                continue
            reduced = lll_reduce_rows_float(rows, 99, 100)
            assert lovasz_holds(reduced, Fraction(98, 100))

    def test_dependent_rows_break_down(self):
        with pytest.raises(FloatBreakdown):
            lll_reduce_rows_float([[1, 2], [2, 4]], 99, 100)
        with pytest.raises(FloatBreakdown):
            lll_reduce_rows_float([[0, 0], [1, 0]], 99, 100)

    @pytest.mark.parametrize("order", [1, -1])
    def test_rows_far_apart_in_scale(self, order):
        # tails near 2**(64 + 150 i), in ascending or descending order: row
        # scales 2**1050 apart, far beyond a double's range, so only a
        # per-row exponent holds them
        rng = random.Random(3)
        n = 8
        tails = [[rng.getrandbits(64 + 150 * i) | 1 << (63 + 150 * i)
                  for _ in range(2)] for i in range(n)][::order]
        rows = [[int(i == j) for j in range(n)] + tails[i] for i in range(n)]
        reduced = lll_reduce_rows_float(rows, 99, 100)
        assert _int_det(_certified(reduced, tails)) in (1, -1)
        assert lovasz_holds(reduced, Fraction(98, 100))

    def test_breakdown_falls_back_to_exact_kernel(self, monkeypatch, rungs,
                                                  searches):
        def broken(rows, *delta):
            raise FloatBreakdown("forced")

        monkeypatch.setattr(recognition, "lll_reduce_rows_float", broken)
        p = 512
        r = min_poly(probe_value("sqrt2+sqrt3", p), 6, 10**6, p)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (1, 0, -10, 0, 1)
        assert _int_det(r.coefficient_basis) in (1, -1)
        # every rung reduced exactly, then the top rung once more
        assert searches == {"searches": 1, "exact": len(rungs) + 1}


class TestRungKernelInPipeline:
    def test_final_rows_meet_exact_lovasz(self, monkeypatch):
        # _exclusion_height reads ||b1|| <= 2^((n-1)/2) lambda_1, which needs
        # the exact Lovász condition at DEFAULT_DELTA on the final rows
        search = recognition._relation_search
        checked = []

        def spy(z, p, elements, height_bound, start=None):
            found = search(z, p, elements, height_bound, start)
            coeffs, s, n = found[0], found[3], len(elements)
            scaled = recognition._power_rows(elements, s)
            rows = [c + _tails(c, scaled) for c in coeffs]
            assert lovasz_holds(rows, DEFAULT_DELTA)
            checked.append(n)
            return found

        monkeypatch.setattr(recognition, "_relation_search", spy)
        run_case(15, CaseParams(precision_bits=384))
        assert len(checked) == 6  # two J values at p and 2p, two memberships

    @pytest.mark.parametrize("d,p,direction", [
        (15, 512, "real-to-imag"), (15, 384, "real-to-imag"),
        (14, 256, "imag-to-real"), (15, 1024, "real-to-imag")])
    def test_no_rung_falls_back(self, searches, d, p, direction):
        # the benchmark's recognize cases and the 1024-bit case: the float
        # kernel holds on every rung, so the one exact reduction of each
        # search is the final one
        run_case(d, CaseParams(precision_bits=p,
                               conductor_direction=direction))
        assert searches["searches"] > 0
        assert searches["exact"] == searches["searches"]


class TestMinPoly:
    def test_sqrt2_at_200_digits(self):
        p = 665
        z = FixedComplex.from_real(QuadraticIrrational.sqrt_of(2).to_fixed(p))
        r = min_poly(z, 4, 10**6, p)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (-2, 0, 1)
        assert_certified(r.verdict.residual_log10, p)

    def test_exact_rational(self):
        r = min_poly(FixedComplex.from_int(1728, 512), 4, 10**6, 512)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (-1728, 1)

    def test_golden_ratio(self):
        p = 665
        z = FixedComplex.from_real(QuadraticIrrational(1, 1, 2, 5).to_fixed(p))
        r = min_poly(z, 4, 10**6, p)
        assert r.verdict.minpoly.coefficients == (-1, -1, 1)
        assert_certified(r.verdict.residual_log10, p)

    def test_complex_quadratic(self):
        # z = (1 + i sqrt 3)/2 has minimal polynomial x^2 - x + 1
        p = 512
        from quadexp.numerics import sqrt_fixed
        z = FixedComplex(FixedReal.from_ratio(1, 2, p), sqrt_fixed(3, p).div_int(2))
        r = min_poly(z, 6, 10**6, p)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (1, -1, 1)
        assert_certified(r.verdict.residual_log10, p)

    def test_pi_negative_control(self):
        z = real_probe("pi", 499, 150)
        r = min_poly(z, 8, 10**12, 499)
        assert not r.recognized
        assert r.verdict.exclusion_height > 10**12
        assert r.to_json()["verdict"] == "no_relation"

    def test_insufficient_precision_rejected(self):
        p = 128
        noisy = FixedComplex(FixedReal(1 << p, p, 1 << 100), FixedReal.zero(p))
        with pytest.raises(InsufficientPrecision):
            min_poly(noisy, 4, 10**6, p)

    def test_json_shape(self):
        r = min_poly(FixedComplex.from_int(7, 256), 2, 100, 256)
        blob = r.to_json()
        assert blob["verdict"] == "recognized"
        assert blob["minpoly"] == [-7, 1]
        assert set(blob) >= {"verdict", "minpoly", "residual_log10",
                             "deg_bound", "height_bound", "precision_bits"}

    def test_recognized_residual_shrinks_at_2p(self):
        # stability contract: rerunning at doubled precision re-confirms the
        # verdict and the residual shrinks by at least 10^(0.5 digits)
        p = 512
        z = QuadraticIrrational.sqrt_of(7)
        r1 = min_poly(FixedComplex.from_real(z.to_fixed(p)), 4, 10**6, p)
        r2 = min_poly(FixedComplex.from_real(z.to_fixed(2 * p)), 4, 10**6, 2 * p)
        assert r1.recognized and r2.recognized
        assert r1.verdict.minpoly.coefficients == r2.verdict.minpoly.coefficients
        digits = int(p * 0.30103)
        assert r1.verdict.residual_log10 - r2.verdict.residual_log10 >= 0.5 * digits

    @pytest.mark.parametrize("name,expected", ALGEBRAIC_PROBES)
    def test_ladder_matches_cold_reduction(self, name, expected, rungs):
        # without a start the search climbs from the identity; it finds the
        # relation that one cold reduction of its top lattice gives
        p = 512
        r = min_poly(probe_value(name, p), 6, 10**6, p)
        assert_identity_ladder(rungs)
        elements, top = rungs[-1]
        assert top == r.scale_bits
        cold = cold_relation_basis(elements, top)
        factors = IntegerPolynomial(tuple(cold[0])).factor_irreducible()
        assert r.recognized
        assert r.verdict.minpoly.coefficients == expected
        assert r.verdict.minpoly in [f.normalized() for f in factors]
        assert_certified(r.verdict.residual_log10, p)

    @pytest.mark.parametrize("name,expected", ALGEBRAIC_PROBES)
    def test_warm_start_matches_cold(self, name, expected):
        # the 2p search from the p-reduced basis finds the genuine relation
        # of the 2p search from the identity, with the same certified residual
        p = 384
        r1 = min_poly(probe_value(name, p), 6, 10**6, p)
        assert _int_det(r1.coefficient_basis) in (1, -1)
        cold = min_poly(probe_value(name, 2 * p), 6, 10**6, 2 * p)
        warm = min_poly(probe_value(name, 2 * p), 6, 10**6, 2 * p, start=r1)
        for r in (r1, cold, warm):
            assert r.recognized
            assert r.verdict.minpoly.coefficients == expected
        assert warm.verdict.residual_log10 == cold.verdict.residual_log10
        assert_certified(warm.verdict.residual_log10, 2 * p)

    def test_warm_start_must_be_unimodular(self):
        # a start spanning a sublattice would overstate the exclusion height
        p = 256
        z = FixedComplex.from_real(QuadraticIrrational.sqrt_of(7).to_fixed(p))
        identity = [[int(i == j) for j in range(5)] for i in range(5)]
        doubled = [row[:] for row in identity]
        doubled[2][2] = 2
        cold = min_poly(z, 4, 10**6, p)
        for basis in (identity[:4], [row[:4] for row in identity], doubled):
            with pytest.raises(DegenerateBasis):
                min_poly(z, 4, 10**6, p, start=replace(
                    cold, coefficient_basis=basis, scale_bits=0))
        start = replace(cold, coefficient_basis=identity, scale_bits=0)
        assert min_poly(z, 4, 10**6, p, start=start).recognized

    @pytest.mark.xfail(strict=True, reason=(
        "the residual is certified only at the working precision of the "
        "value passed in; rejecting this needs a genuinely evaluated 2p "
        "value"))
    def test_relation_holding_to_085p_bits_rejected(self):
        # sqrt 7 off by 2^(-0.85 p) but claimed exact to p bits; today it is
        # accepted as x^2 - 7 with residual about 10^-130
        p = 512
        z = QuadraticIrrational.sqrt_of(7).to_fixed(p)
        off = FixedReal(z.mantissa + (1 << (p - 85 * p // 100)), p, 0)
        r = min_poly(FixedComplex.from_real(off), 4, 10**6, p)
        assert not r.recognized


class TestJEvaluation:
    def test_probe_log_y_only(self):
        # x = 0 degenerate probe: J = log y
        p = 256
        mp.mp.dps = 100
        y = FixedReal.from_int(3, p)
        J = j_function(FixedReal.zero(p), y, p)
        assert abs(float(J.re.to_decimal(30)) - float(mp.log(3))) < 1e-25
        assert abs(J.im.mantissa) <= J.im.err_ulps + 2

    def test_probe_half_e_e(self):
        p = 256
        mp.mp.dps = 100
        man = int(mp.floor(mp.exp(mp.e) * (1 << p)))
        J = j_function(FixedReal.from_ratio(1, 2, p), FixedReal(man, p, 1), p)
        assert abs(float(J.re.to_decimal(30)) + float(mp.e)) < 1e-25

    def test_evaluate_J_requires_irrational(self):
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        theta = QuadraticIrrational.from_rational(Fraction(1, 2))
        with pytest.raises(InputRational):
            evaluate_J([theta], eps, 128)[0]
        # the probe entry point takes it: e^{pi i} = -1, so J = -log(eps)
        y = eps.value.to_fixed(128)
        J = j_function(theta.to_fixed(128), y, 128)
        assert J.re.indistinguishable(-log_fixed(y, 128))

    def test_epsilon_above_one_required(self):
        from quadexp.quadfield import UnitElement
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        small = UnitElement(QuadraticIrrational.from_rational(1), 1)
        with pytest.raises(DomainError):
            evaluate_J([QuadraticIrrational.sqrt_of(15)], small, 128)[0]

    def test_value_at_sqrt15(self):
        theta = QuadraticIrrational.sqrt_of(15)
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        jv = evaluate_J([theta], eps, 512)[0]
        assert jv.mu.to_decimal(16).startswith("2.063437068895560")
        mp.mp.dps = 200
        ref = mp.log(4 + mp.sqrt(15)) * mp.expjpi(2 * mp.sqrt(15))
        assert abs(float(jv.value.re.to_decimal(40)) - float(ref.real)) < 1e-35
        assert abs(float(jv.value.im.to_decimal(40)) - float(ref.imag)) < 1e-35

    def test_dual_route_agreement_sample(self):
        # the two formulas agree within combined bounds on random probes
        rng = random.Random(2024)
        p = 256
        for _ in range(100):
            x = FixedReal.from_ratio(rng.randrange(-10**6, 10**6), 10**6 + 3, p)
            y = FixedReal.from_ratio(rng.randrange(10**6 + 1, 10**9), 10**6, p)
            j_function(x, y, p)  # raises if the routes disagree

    def test_mu_additivity(self):
        # log(eps^n) = n log(eps) within bounds, n <= 10
        p = 320
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        theta = QuadraticIrrational.sqrt_of(15)
        base = evaluate_J([theta], eps, p)[0].mu
        from quadexp.quadfield import UnitElement
        for n in range(1, 11):
            pw = UnitElement(eps.value**n, eps.norm if n % 2 else 1)
            jn = evaluate_J([theta], pw, p)[0]
            assert jn.mu.indistinguishable(base * n), n

    def test_batch_matches_per_theta_reference(self):
        # one unit side per call gives, field by field, the values of a
        # from-scratch evaluation per theta
        def fields(x):
            return x.mantissa, x.scale_bits, x.err_ulps

        checked = 0
        for d in (5, 14, 15, 21, 26, 29):
            for kind in ("real", "imaginary"):
                try:
                    m = match_conductor(OrderDescriptor(kind, d, 1))
                except NoMatchWithinBound:
                    continue
                order = OrderDescriptor(
                    "real", d, 1 if kind == "real" else m.matched_conductor)
                eps = fundamental_unit(order)
                thetas = [r.theta for r in
                          pseudo_lattice_reps(class_group(order))]
                for p in (128, 256, 512, 1024):
                    for jv, theta in zip(evaluate_J(thetas, eps, p), thetas,
                                         strict=True):
                        ref = evaluate_J_reference(theta, eps, p)
                        assert jv.theta is theta and jv.precision == p
                        for x, y in ((jv.value.re, ref.value.re),
                                     (jv.value.im, ref.value.im),
                                     (jv.mu, ref.mu)):
                            assert fields(x) == fields(y), (d, kind, p)
                        checked += 1
        assert checked == 104


class TestConjugacy:
    # the pipeline groups its p searches' results by minimal polynomial
    def test_plus_minus_sqrt2(self):
        p = 512
        r2 = QuadraticIrrational.sqrt_of(2).to_fixed(p)
        conj = _conjugacy([min_poly(FixedComplex.from_real(x), 4, 10**6, p)
                           for x in (r2, -r2)])
        assert conj == {"classes": [{"minpoly": [-2, 0, 1], "members": [0, 1]}],
                        "unresolved": []}

    def test_sqrt2_sqrt3_distinct(self):
        p = 512
        results = [min_poly(FixedComplex.from_real(
            QuadraticIrrational.sqrt_of(d).to_fixed(p)), 4, 10**6, p)
            for d in (2, 3)]
        conj = _conjugacy(results)
        assert len(conj["classes"]) == 2 and not conj["unresolved"]

    def test_pi_unresolved(self):
        p = 499
        conj = _conjugacy([min_poly(real_probe("pi", p, 150), 8, 10**12, p)])
        assert conj == {"classes": [], "unresolved": [0]}


@pytest.fixture(scope="module")
def field15():
    return hcf_generator(15, 1, 512)


class TestMembership:

    def test_gamma_itself(self, field15):
        m = member_of_field(field15.generator_embedding, field15, 512)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        assert_certified(m.residual_log10, 512)

    def test_synthesized_combination(self, field15):
        g = field15.generator_embedding
        z = FixedComplex.from_int(3, 512) - (g * g) * 2
        m = member_of_field(z, field15, 512)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(3), Fraction(0), Fraction(-2), Fraction(0)]
        assert_certified(m.residual_log10, 512)

    @pytest.mark.parametrize("numerators,denominator", [
        ([3, 0, -2, 0], 1),  # test_synthesized_combination
        ([1, 1, 0, 0], 3),   # test_rational_coordinates
    ])
    def test_ladder_matches_cold_reduction(self, field15, rungs, numerators,
                                           denominator):
        # the membership search climbs from the identity too; the first
        # candidate of one cold reduction of its top lattice gives the same
        # coordinates
        g = field15.generator_embedding
        z, power = FixedComplex.from_int(0, 512), FixedComplex.from_int(1, 512)
        for a in numerators:
            z, power = z + power * a, power * g
        m = member_of_field(z / denominator, field15, 512)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(a, denominator) for a in numerators]
        assert_identity_ladder(rungs)
        elements, top = rungs[-1]
        cold = cold_relation_basis(elements, top)
        b, *rest = next(row for row in cold if row[0])
        assert [Fraction(-a, b) for a in rest] == m.coordinates

    def test_pi_not_found(self, field15):
        z = real_probe("pi", 499, 150)
        m = member_of_field(z, field15, 499, height_bound=10**12)
        assert isinstance(m, NotFound)
        assert m.to_json()["found"] is False
        assert m.exclusion_height > 0

    def test_rational_coordinates(self, field15):
        g = field15.generator_embedding
        z = (FixedComplex.from_int(1, 512) + g) / 3
        m = member_of_field(z, field15, 512)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(1, 3), Fraction(1, 3),
                                 Fraction(0), Fraction(0)]


def double_last_row(rows):
    rows[-1] = [2 * v for v in rows[-1]]


def shift_last_tail(rows):
    rows[-1][-1] += 1


@pytest.fixture(params=[double_last_row, shift_last_tail])
def corrupt_kernel(request, monkeypatch):
    """recognition's LLL kernel, each of its results corrupted one way."""
    kernel = recognition.lll_reduce_rows

    def corrupted(rows, *delta):
        reduced = kernel(rows, *delta)
        request.param(reduced)
        return reduced

    monkeypatch.setattr(recognition, "lll_reduce_rows", corrupted)


class TestCertificate:
    # every search certifies its top rung as a basis of [I | X_s]: a doubled
    # row spans a sublattice (det C = +-2), a shifted residual entry is no
    # lattice vector; either would make the exclusion height unsound

    def test_min_poly(self, corrupt_kernel):
        p = 256
        z = FixedComplex.from_real(QuadraticIrrational.sqrt_of(7).to_fixed(p))
        with pytest.raises(DegenerateBasis):
            min_poly(z, 4, 10**6, p)

    def test_member_of_field(self, field15, corrupt_kernel):
        with pytest.raises(DegenerateBasis):
            member_of_field(field15.generator_embedding, field15, 512)
