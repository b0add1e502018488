import random
from operator import mul
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (cold_relation_basis, complex_of_real, control_minpoly,
                     control_value, det_reference, evaluate_J_reference,
                     float_lll_reference, gram_schmidt_mu, is_basis_of,
                     lll_reference, lovasz_holds, matches_lll_reference,
                     shortest_vector_brute)
from quadexp import _core, pipeline, recognition
from quadexp._core import (DELTA, FloatBreakdown, _gram_schmidt,
                          lll_reduce_rows, lll_reduce_rows_float)
from quadexp.classforms import (class_group, match_conductor,
                                pseudo_lattice_reps)
from quadexp.errors import (DegenerateBasis, DomainError, InputRational,
                            InsufficientPrecision, NoMatchWithinBound)
from quadexp.modular import IntegerPolynomial, hcf_generator
from quadexp.numerics import FixedComplex, FixedReal, log_fixed, sqrt_fixed
from quadexp.pipeline import CaseParams, _conjugacy, run_case
from quadexp.quadfield import OrderDescriptor, QuadraticIrrational, fundamental_unit
from quadexp.recognition import (DEFAULT_HEIGHT_BOUND, LOG10_2, RUNG_BITS,
                                 Membership, NotFound, _certified, _tails,
                                 evaluate_J, j_function, lll_reduce,
                                 member_of_field, min_poly)


def real_probe(value_str: str, p: int, digits: int) -> FixedComplex:
    """Exact truncation of a decimal constant to p bits."""
    mp.mp.dps = digits + 30
    v = mp.mpf(value_str) if value_str[0].isdigit() else getattr(mp, value_str)
    man = int(mp.floor(v * (1 << p)))
    return complex_of_real(FixedReal(man, p, 0))


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
        return complex_of_real(sqrt_fixed(2, p) + sqrt_fixed(3, p))
    if name == "golden":
        return complex_of_real(
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
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-999, 999) for _ in range(n + 1)]
                    for _ in range(n)]
            try:
                reduced = lll_reduce(rows)
            except DegenerateBasis:
                continue
            assert lovasz_holds(reduced, Fraction(*DELTA))

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

    def test_kernel_matches_reference(self):
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
                got = lll_reduce_rows(rows)
            except ValueError:
                continue
            assert matches_lll_reference(rows, got)
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


def far_apart_lattice(order: int) -> tuple[list[list[int]], list[list[int]]]:
    """(rows, tails) of [I | tails], tails near 2**(64 + 150 i), in
    ascending (order 1) or descending (order -1) order."""
    rng = random.Random(3)
    n = 8
    tails = [[rng.getrandbits(64 + 150 * i) | 1 << (63 + 150 * i)
              for _ in range(2)] for i in range(n)][::order]
    return [[int(i == j) for j in range(n)] + tails[i] for i in range(n)], tails


@pytest.fixture
def searches(monkeypatch):
    """Counts of relation searches, of exact reductions among them, of
    those whose output differs from their input and of integral
    Gram-Schmidt runs, through ``_core``'s binding and ``recognition``'s."""
    counts = {"searches": 0, "exact": 0, "changed": 0, "gram_schmidt": 0}
    search, reduce = recognition._relation_search, recognition.lll_reduce

    def search_spy(*args, **kwargs):
        counts["searches"] += 1
        return search(*args, **kwargs)

    def reduce_spy(basis, *args):
        counts["exact"] += 1
        reduced = reduce(basis, *args)
        counts["changed"] += reduced != basis
        return reduced

    def gram_schmidt_spy(rows):
        counts["gram_schmidt"] += 1
        return _gram_schmidt(rows)

    monkeypatch.setattr(recognition, "_relation_search", search_spy)
    monkeypatch.setattr(recognition, "lll_reduce", reduce_spy)
    for module in (_core, recognition):
        monkeypatch.setattr(module, "_gram_schmidt", gram_schmidt_spy)
    return counts


class TestFloatLLL:
    # the rung kernel of every relation search: exact rows and Gram matrix,
    # Gram-Schmidt data in doubles with one exponent per row

    def test_output_is_basis_of_input_lattice(self):
        checked = 0
        for rows in kernel_lattices(17):
            if det_reference([row[:len(rows)] for row in rows]) == 0:
                continue
            reduced = lll_reduce_rows_float(rows)
            assert is_basis_of(reduced, rows)
            checked += 1
        assert checked >= 20

    def test_lovasz_holds(self):
        for rows in kernel_lattices(29):
            if det_reference([row[:len(rows)] for row in rows]) == 0:
                continue
            reduced = lll_reduce_rows_float(rows)
            assert lovasz_holds(reduced, Fraction(98, 100))

    def test_dependent_rows_break_down(self):
        # a zero row at input, with and without other rows, and one that
        # the size reduction makes
        for rows in ([[1, 2], [2, 4]], [[0, 0], [1, 0]], [[0, 0]]):
            with pytest.raises(FloatBreakdown, match="zero row"):
                lll_reduce_rows_float(rows)

    @pytest.mark.parametrize("order", [1, -1])
    def test_rows_far_apart_in_scale(self, order):
        # tails near 2**(64 + 150 i), in ascending or descending order: row
        # scales 2**1050 apart, far beyond a double's range, so only a
        # per-row exponent holds them
        rows, tails = far_apart_lattice(order)
        reduced = lll_reduce_rows_float(rows)
        gram_det = _gram_schmidt(reduced)[0][len(rows)]
        assert det_reference(_certified(reduced, tails, gram_det)) in (1, -1)
        assert lovasz_holds(reduced, Fraction(98, 100))

    def test_kernel_matches_reference(self, monkeypatch):
        # the one loop makes the reference's float operations in the same
        # order, so the same decisions: the same rows, or both break down
        def outcome(kernel, rows):
            try:
                return kernel(rows)
            except FloatBreakdown:
                return FloatBreakdown

        def check(rows):
            assert (outcome(lll_reduce_rows_float, rows)
                    == outcome(float_lll_reference, rows))

        for rows in (kernel_lattices(17) + kernel_lattices(29)
                     + [far_apart_lattice(order)[0] for order in (1, -1)]):
            check(rows)
        # a climb of 17 powers of a 256-bit value from the identity, each
        # rung from the previous rung's reduced rows, as a search makes it
        kernel, climbed = recognition.lll_reduce_rows_float, []

        def spy(rows):
            check(rows)
            climbed.append(len(rows))
            return kernel(rows)

        monkeypatch.setattr(recognition, "lll_reduce_rows_float", spy)
        p = 256
        min_poly(FixedComplex(real_probe("pi", p, 90).re,
                              real_probe("e", p, 90).re), 16, 10**6, p)
        assert climbed == [17] * 4  # scales 64, 128, 192 and 248

    @pytest.mark.parametrize("rows,message", [
        # b_2 - b_0 / 2 = (0, 0, 1): its squared norm is lost in b_2's 2**118
        ([[2**60, 0, 0], [0, 2**61, 0], [2**59, 0, 1]], "squared norm 0.0"),
        # nearly dependent rows, found by a random search: the mu of row 2
        # are rounded back and forth
        ([[2022458426427, 139344098507, -34085076515],
          [1035579032391, -391189343209, 47896722277],
          [493439697018, 265266720858, -40990899396]], "row 2 stalls"),
    ])
    def test_lost_float_data_break_down(self, monkeypatch, rows, message):
        # the stall guard is the only bound on a row's size-reduction
        # passes, and each pass with steps calls _exponent once: the spy
        # fails a kernel that lost its guard instead of hanging (the
        # stalling rows reach the guard in 92 calls)
        calls = []
        exponent = _core._exponent

        def spy(g):
            calls.append(g)
            if len(calls) > 10_000:
                raise AssertionError("no breakdown in 10,000 _exponent calls")
            return exponent(g)

        monkeypatch.setattr(_core, "_exponent", spy)
        with pytest.raises(FloatBreakdown, match=message):
            lll_reduce_rows_float(rows)

    @pytest.mark.parametrize("x", [1, -1])
    def test_unit_step_reduces_in_one_pass(self, monkeypatch, x):
        # b_1 = b_0 x + (0, 1): one pass steps b_1 -= x b_0 and sets row 1's
        # exponent once more; a step of the wrong sign would leave mu_10 =
        # 2 x for a second pass
        exponents = []
        exponent = _core._exponent

        def spy(g):
            exponents.append(g)
            return exponent(g)

        monkeypatch.setattr(_core, "_exponent", spy)
        assert lll_reduce_rows_float([[1, 0], [x, 1]]) == [[1, 0], [0, 1]]
        assert exponents == [1, 2, 1]  # both rows at input, then one pass

    def test_breakdown_falls_back_to_exact_kernel(self, monkeypatch, rungs,
                                                  searches):
        def broken(rows):
            raise FloatBreakdown("forced")

        monkeypatch.setattr(recognition, "lll_reduce_rows_float", broken)
        p = 512
        r = min_poly(probe_value("sqrt2+sqrt3", p), 6, 10**6, p)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (1, 0, -10, 0, 1)
        assert det_reference(r.coefficient_basis) in (1, -1)
        # every rung reduced exactly, then the top rung once more
        assert searches["searches"] == 1
        assert searches["exact"] == len(rungs) + 1

    def test_real_breakdown_recognized_through_exact_kernel(self,
                                                            monkeypatch):
        # a rung of this rational's search breaks down in the float kernel;
        # the relation is found only because the exact kernel reduces that
        # rung in its place
        breakdowns = []
        reduce_float = recognition.lll_reduce_rows_float

        def spy(rows):
            try:
                return reduce_float(rows)
            except FloatBreakdown as exc:
                breakdowns.append(str(exc))
                raise

        monkeypatch.setattr(recognition, "lll_reduce_rows_float", spy)
        p = 512
        z = complex_of_real(FixedReal.from_ratio(-353454, 310483, p))
        r = min_poly(z, 8, 10**6, p)
        assert breakdowns == ["squared norm 0.0 at row 2"]
        assert r.recognized
        assert r.verdict.minpoly.coefficients == (353454, 310483)


@pytest.mark.usefixtures("serial_searches")
class TestRungKernelInPipeline:
    def test_final_rows_meet_exact_lovasz(self, monkeypatch):
        # _exclusion_height reads ||b1|| <= 2^((n-1)/2) lambda_1, which needs
        # the exact Lovász condition at DELTA on the final rows
        search = recognition._relation_search
        checked = []

        def spy(z, p, elements, height_bound, start=None):
            found = search(z, p, elements, height_bound, start)
            coeffs, s, n = found[0], found[3], len(elements)
            scaled = recognition._power_rows(elements, s)
            rows = [c + _tails(c, scaled) for c in coeffs]
            assert lovasz_holds(rows, Fraction(*DELTA))
            checked.append(n)
            return found

        # no rung breaks down, and the exact pass over each search's top
        # rung leaves the float-reduced rows as they are
        reduce = recognition.lll_reduce

        def reduce_spy(basis, *args):
            reduced = reduce(basis, *args)
            assert reduced == basis
            return reduced

        monkeypatch.setattr(recognition, "_relation_search", spy)
        monkeypatch.setattr(recognition, "lll_reduce", reduce_spy)
        run_case(15, CaseParams(precision_bits=384))
        assert len(checked) == 6  # two J values at p and 2p, two memberships

    @pytest.mark.parametrize("d,p,direction", [
        (15, 512, "real-to-imag"), (15, 384, "real-to-imag"),
        (14, 256, "imag-to-real"), (15, 1024, "real-to-imag")])
    def test_no_rung_falls_back(self, searches, d, p, direction):
        # the benchmark's recognize cases and the 1024-bit case: the float
        # kernel holds on every rung, so the one exact reduction of each
        # search is the final one, and it leaves the float-reduced rows as
        # they are; their one Gram-Schmidt serves the certificate and that
        # reduction both
        run_case(d, CaseParams(precision_bits=p,
                               conductor_direction=direction))
        assert searches["searches"] > 0
        assert searches["exact"] == searches["searches"]
        assert searches["changed"] == 0
        assert searches["gram_schmidt"] == searches["searches"]


class TestMinPoly:
    def test_sqrt2_at_200_digits(self):
        p = 665
        z = complex_of_real(QuadraticIrrational(0, 1, 1, 2).to_fixed(p))
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
        z = complex_of_real(QuadraticIrrational(1, 1, 2, 5).to_fixed(p))
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

    @pytest.mark.parametrize("p", [36, 40, 72])
    def test_below_72_trusted_bits_rejected(self, p):
        # the lattice scale is 8 bits below the trusted ones and at least
        # 64; a floor of 64 above them once excluded x^2 - x - 1, of height
        # 1, up to height 848989 at p = 40
        z = complex_of_real(QuadraticIrrational(1, 1, 2, 5).to_fixed(p))
        with pytest.raises(InsufficientPrecision):
            min_poly(z, 2, 10**6, p)

    @pytest.mark.parametrize("p", [74, 80])
    def test_golden_ratio_at_lowest_precisions(self, p):
        z = complex_of_real(QuadraticIrrational(1, 1, 2, 5).to_fixed(p))
        r = min_poly(z, 2, 10**6, p)
        assert r.verdict.minpoly.coefficients == (-1, -1, 1)

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
        z = QuadraticIrrational(0, 1, 1, 7)
        r1 = min_poly(complex_of_real(z.to_fixed(p)), 4, 10**6, p)
        r2 = min_poly(complex_of_real(z.to_fixed(2 * p)), 4, 10**6, 2 * p)
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
        assert det_reference(r1.coefficient_basis) in (1, -1)
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
        z = complex_of_real(QuadraticIrrational(0, 1, 1, 7).to_fixed(p))
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
        z = QuadraticIrrational(0, 1, 1, 7).to_fixed(p)
        off = FixedReal(z.mantissa + (1 << (p - 85 * p // 100)), p, 0)
        r = min_poly(complex_of_real(off), 4, 10**6, p)
        assert not r.recognized

    @pytest.mark.parametrize("c", [2**60 + 33, 2**80 + 13])
    def test_degree_12_control_recognized(self, c):
        # a positive control of a J value's kind: complex, certified, and of
        # the searched degree, with c prime and height c
        r = min_poly(control_value(3, c, 12, 512), 12, 10**40, 512)
        assert r.recognized
        assert r.verdict.minpoly.coefficients == control_minpoly(3, c, 12)

    @pytest.mark.xfail(strict=True, reason=(
        "the residual threshold at 512 bits accepts an irreducible degree-24 "
        "polynomial of height about 2^45 that is not the control's; a "
        "significance gate on the lattice determinant (ROADMAP direction 2) "
        "would reject it"))
    def test_degree_24_control_not_misnamed(self):
        # at 768 and 1024 bits, and in the 2p search warmed from this one,
        # the search finds (x - 3)^24 + c itself
        c = 2**40 + 15
        r = min_poly(control_value(3, c, 24, 512), 24, 10**40, 512)
        assert not r.recognized or \
            r.verdict.minpoly.coefficients == control_minpoly(3, c, 24)


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
            evaluate_J([QuadraticIrrational(0, 1, 1, 15)], small, 128)[0]

    def test_value_at_sqrt15(self):
        theta = QuadraticIrrational(0, 1, 1, 15)
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        jv = evaluate_J([theta], eps, 512)[0]
        assert jv.mu.to_decimal(16).startswith("2.063437068895560")
        mp.mp.dps = 200
        ref = mp.log(4 + mp.sqrt(15)) * mp.expjpi(2 * mp.sqrt(15))
        assert abs(float(jv.value.re.to_decimal(40)) - float(ref.real)) < 1e-35
        assert abs(float(jv.value.im.to_decimal(40)) - float(ref.imag)) < 1e-35

    def test_dual_route_agreement_sample(self):
        # exp(log mu) = mu within combined bounds for mu = log y of random
        # probes, and so e^{2 pi i x} mu = e^{2 pi i x} exp(log mu)
        rng = random.Random(2024)
        p = 256
        for _ in range(100):
            x = FixedReal.from_ratio(rng.randrange(-10**6, 10**6), 10**6 + 3, p)
            y = FixedReal.from_ratio(rng.randrange(10**6 + 1, 10**9), 10**6, p)
            j_function(x, y, p)  # raises if the routes disagree

    def test_shifted_exp_fails_the_route_check(self, monkeypatch):
        # exp(log mu) moved past both error bounds: a numerics bug that the
        # once-per-call check must catch in both entry points
        exp_fixed = recognition.exp_fixed

        def shifted(x, p):
            e = exp_fixed(x, p)
            return FixedReal(e.mantissa + 2 * (e.err_ulps + 1), e.scale_bits,
                             e.err_ulps)

        monkeypatch.setattr(recognition, "exp_fixed", shifted)
        p = 256
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        with pytest.raises(DomainError, match="routes disagree"):
            evaluate_J([QuadraticIrrational(0, 1, 1, 15)], eps, p)
        with pytest.raises(DomainError, match="routes disagree"):
            j_function(FixedReal.zero(p), FixedReal.from_int(3, p), p)

    def test_scaled_phase_fails_the_modulus_check(self, monkeypatch):
        # a phase of modulus 1 + 2**-100: the exp(log mu) check cannot see
        # it, and the per-value |J|^2 = mu^2 check must
        exp_cis = recognition.exp_cis

        def scaled(x, p):
            return exp_cis(x, p) * FixedReal((1 << 100) + 1, 100)

        monkeypatch.setattr(recognition, "exp_cis", scaled)
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        with pytest.raises(DomainError, match="does not match log epsilon"):
            evaluate_J([QuadraticIrrational(0, 1, 1, 15)], eps, 256)

    def test_mu_additivity(self):
        # log(eps^n) = n log(eps) within bounds, n <= 10
        p = 320
        eps = fundamental_unit(OrderDescriptor("real", 15, 1))
        theta = QuadraticIrrational(0, 1, 1, 15)
        base = evaluate_J([theta], eps, p)[0].mu
        from quadexp.quadfield import UnitElement
        power = eps.value
        for n in range(1, 11):
            pw = UnitElement(power, eps.norm if n % 2 else 1)
            power = power * eps.value
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
                    f_match, _ = match_conductor(
                        OrderDescriptor(kind, d, 1), 100)
                except NoMatchWithinBound:
                    continue
                order = OrderDescriptor(
                    "real", d, 1 if kind == "real" else f_match)
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
    # the pipeline groups its p searches' recognition dicts by minimal
    # polynomial
    def test_plus_minus_sqrt2(self):
        p = 512
        r2 = QuadraticIrrational(0, 1, 1, 2).to_fixed(p)
        conj = _conjugacy([min_poly(complex_of_real(x), 4, 10**6,
                                    p).to_json() for x in (r2, -r2)])
        assert conj == {"classes": [{"minpoly": [-2, 0, 1], "members": [0, 1]}],
                        "unresolved": []}

    def test_sqrt2_sqrt3_distinct(self):
        p = 512
        results = [min_poly(complex_of_real(QuadraticIrrational(
            0, 1, 1, d).to_fixed(p)), 4, 10**6, p).to_json() for d in (2, 3)]
        conj = _conjugacy(results)
        assert len(conj["classes"]) == 2 and not conj["unresolved"]

    def test_pi_unresolved(self):
        p = 499
        conj = _conjugacy([min_poly(real_probe("pi", p, 150), 8, 10**12,
                                    p).to_json()])
        assert conj == {"classes": [], "unresolved": [0]}


@pytest.fixture(scope="module")
def field15():
    return hcf_generator(15, 1, 512, cache_dir=None)


class TestMembership:

    def test_gamma_itself(self, field15):
        m = member_of_field(field15.generator_embedding, field15, 512,
                            DEFAULT_HEIGHT_BOUND)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        assert_certified(m.residual_log10, 512)

    def test_synthesized_combination(self, field15):
        g = field15.generator_embedding
        z = FixedComplex.from_int(3, 512) - (g * g) * 2
        m = member_of_field(z, field15, 512, DEFAULT_HEIGHT_BOUND)
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
        m = member_of_field(z / denominator, field15, 512,
                            DEFAULT_HEIGHT_BOUND)
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
        m = member_of_field(z, field15, 512, DEFAULT_HEIGHT_BOUND)
        assert isinstance(m, Membership)
        assert m.coordinates == [Fraction(1, 3), Fraction(1, 3),
                                 Fraction(0), Fraction(0)]

    @pytest.mark.usefixtures("serial_searches")
    def test_found_reports_the_residual_it_tested(self, monkeypatch):
        # a hit is accepted on the relation's residual divided by z's
        # coefficient, and that quotient is the residual it reports, so it
        # lies below the search's own threshold; run_case(15) at 256 bits
        # finds both J values, with coefficients near 10^33
        thresholds, found = [], []
        search = recognition._relation_search

        def recording_search(*args, **kwargs):
            out = search(*args, **kwargs)
            thresholds.append(out[1])
            return out

        def recording_member(*args, **kwargs):
            m = member_of_field(*args, **kwargs)
            if isinstance(m, Membership):
                found.append((m.residual_log10, thresholds[-1]))
            return m

        monkeypatch.setattr(recognition, "_relation_search", recording_search)
        monkeypatch.setattr(pipeline, "member_of_field", recording_member)
        r = run_case(15, CaseParams(precision_bits=256))
        assert [m["found"] for m in r.membership] == [True, True]
        assert [m["residual_log10"] for m in r.membership] == \
            [res for res, _ in found]
        assert all(res < -digits for res, digits in found), found


def double_last_row(rows):
    rows[-1] = [2 * v for v in rows[-1]]


def shift_last_tail(rows):
    rows[-1][-1] += 1


def swap_first_rows(rows):
    rows[0], rows[1] = rows[1], rows[0]


def corrupt_exact_kernel(monkeypatch, corrupt):
    """Apply corrupt to each result of recognition's exact LLL kernel."""
    kernel = recognition.lll_reduce_rows

    def corrupted(rows, *args):
        reduced = kernel(rows, *args)
        corrupt(reduced)
        return reduced

    monkeypatch.setattr(recognition, "lll_reduce_rows", corrupted)


@pytest.fixture(params=[double_last_row, shift_last_tail])
def corrupt_kernel(request, monkeypatch):
    """recognition's LLL kernel, each of its results corrupted one way."""
    corrupt_exact_kernel(monkeypatch, request.param)


@st.composite
def _pivot_matrices(draw):
    """Small square integer matrices, many with a zero leading pivot (a
    zero top-left block) or a row that is a combination of two others."""
    n = draw(st.integers(1, 5))
    m = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
         for _ in range(n)]
    block = draw(st.integers(0, n - 1))
    for i in range(block):
        m[i][:block] = [0] * block
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[k] = [x * u + y * v for u, v in zip(m[i], m[j])]
    return m


def gram_prefix_reference(rows):
    """(d, lam) of ``_gram_schmidt`` from rational Gram-Schmidt data: the
    Gram determinants of the first k rows by ``det_reference`` and
    lam[i][j] = d[j] mu_ij, up to the first dependent row."""
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        d[k] = det_reference([[sum(map(mul, x, y)) for y in rows[:k]]
                              for x in rows[:k]])
        _, mu = gram_schmidt_mu(rows[:k])
        lam[k][1:k] = [d[j] * mu[k - 1][j - 1] for j in range(1, k)]
        if d[k] == 0:
            break
    return d, lam


class TestGramSchmidt:
    # the Gram-Schmidt data of a search's top rung, which the exact kernel
    # reduces from; their last d is det(C)^2 det(I_2 + X^T X), and
    # _certified accepts the rung only when det(C)^2 is 1, so d decides
    # whether an exclusion height is certified

    @settings(max_examples=400, deadline=None)
    @given(_pivot_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 3], [4, 5, 6]])
    @example([[1, 2, 3], [2, 4, 7], [1, 5, 2]])
    @example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    @example([[0, 0], [1, 2]])
    def test_matches_rational_gram_schmidt(self, matrix):
        assert _gram_schmidt(matrix) == gram_prefix_reference(matrix)
        assert _gram_schmidt(matrix)[0][-1] == det_reference(matrix) ** 2

    def test_rectangular_lattices(self):
        for rows in kernel_lattices(17) + kernel_lattices(29):
            assert _gram_schmidt(rows) == gram_prefix_reference(rows)

    def test_empty_rows(self):
        assert _gram_schmidt([]) == ([1], [[0]])


class TestCertificate:
    # every search certifies its top rung as a basis of [I | X_s]: a doubled
    # row spans a sublattice (det C = +-2), a shifted residual entry is no
    # lattice vector; either would make the exclusion height unsound

    def test_determinant_sign_is_free(self):
        # det C = -1 (an odd row permutation) is a basis as much as +1, and
        # both have Gram determinant 1; a doubled row's is 4
        tails = [[3, 5], [7, 11], [13, 17]]
        swapped = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert det_reference(swapped) == -1
        rows = [c + _tails(c, tails) for c in swapped]
        assert _certified(rows, tails, _gram_schmidt(rows)[0][3]) == swapped
        doubled = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        rows = [c + _tails(c, tails) for c in doubled]
        with pytest.raises(DegenerateBasis, match="Gram determinant 4"):
            _certified(rows, tails, _gram_schmidt(rows)[0][3])

    @settings(max_examples=300, deadline=None)
    @given(_pivot_matrices(), st.data())
    def test_gram_determinant_factors(self, coeffs, data):
        # Sylvester's identity, which the certificate reads: the rows
        # C [I | X] have Gram determinant det(C)^2 det(I_2 + X^T X), for
        # singular C too; so the certificate accepts exactly det C = +-1
        n = len(coeffs)
        x = data.draw(st.lists(st.lists(st.integers(-10**6, 10**6),
                                        min_size=2, max_size=2),
                               min_size=n, max_size=n))
        rows = [c + _tails(c, x) for c in coeffs]
        gram_det = _gram_schmidt(rows)[0][n]
        x_gram = [[int(i == j) + sum(t[i] * t[j] for t in x) for j in (0, 1)]
                  for i in (0, 1)]
        det_c = det_reference(coeffs)
        assert gram_det == det_c ** 2 * det_reference(x_gram)
        if det_c in (1, -1):
            assert _certified(rows, x, gram_det) == coeffs
        else:
            with pytest.raises(DegenerateBasis):
                _certified(rows, x, gram_det)

    def test_unimodular_change_is_recertified(self, monkeypatch):
        # no real search's exact pass changes its rows; one that does, here
        # by a row swap (det -1), has its rows certified anew and kept
        p = 256
        z = complex_of_real(QuadraticIrrational(0, 1, 1, 7).to_fixed(p))
        plain = min_poly(z, 4, 10**6, p).coefficient_basis
        corrupt_exact_kernel(monkeypatch, swap_first_rows)
        certified = recognition._certified
        calls = []

        def certified_spy(*args):
            calls.append(args)
            return certified(*args)

        monkeypatch.setattr(recognition, "_certified", certified_spy)
        r = min_poly(z, 4, 10**6, p)
        assert len(calls) == 2
        assert r.coefficient_basis == [plain[1], plain[0], *plain[2:]]

    def test_min_poly(self, corrupt_kernel):
        p = 256
        z = complex_of_real(QuadraticIrrational(0, 1, 1, 7).to_fixed(p))
        with pytest.raises(DegenerateBasis):
            min_poly(z, 4, 10**6, p)

    def test_member_of_field(self, field15, corrupt_kernel):
        with pytest.raises(DegenerateBasis):
            member_of_field(field15.generator_embedding, field15, 512,
                            DEFAULT_HEIGHT_BOUND)
