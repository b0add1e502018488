import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (cf_expand, cf_reconstruct, expansion_states_reference,
                     floor_reference, fundamental_unit_reference,
                     in_order_reference)
from quadexp import quadfield
from quadexp.errors import DomainError, InputRational
from quadexp.quadfield import (OrderDescriptor, QuadraticIrrational,
                               _expansion_states, _in_order,
                               _irrational_states, _prime_powers,
                               _squarefree_split, fundamental_unit,
                               is_squarefree, pell_min_solution,
                               sl2_equivalent)

SQUAREFREE_200 = [d for d in range(2, 201) if is_squarefree(d)]


def sqrtq(d):
    return QuadraticIrrational(0, 1, 1, d)


class TestTrialDivision:
    # both callers of the one trial-division loop, against sympy's factorint
    def test_matches_factorint(self):
        from sympy import factorint, nextprime, prevprime
        p, q = prevprime(10**5), nextprime(10**5)
        near = [p * p, p * q, 2 * prevprime(5 * 10**9), 2**33, 3**21,
                prevprime(10**10), 7**11, 97**5]
        for n in [*range(1, 20001), *near]:
            powers = factorint(n)
            s = r = 1
            for prime, e in powers.items():
                s *= prime ** (e // 2)
                r *= prime ** (e % 2)
            assert _squarefree_split(n) == (s, r), n
            assert [p for p, _ in _prime_powers(n)] == sorted(powers), n


class TestQuadraticIrrational:
    def test_canonicalization(self):
        x = QuadraticIrrational(2, 2, 4, 8)  # (2 + 2 sqrt 8)/4 = (1 + 2 sqrt 2)/2
        assert (x.a, x.b, x.c, x.d) == (1, 2, 2, 2)

    def test_rational_fold(self):
        x = QuadraticIrrational(3, 5, 2, 1)
        assert x.is_rational and x == QuadraticIrrational.from_rational(4)

    def test_arithmetic(self):
        r2 = sqrtq(2)
        one, two = (QuadraticIrrational.from_rational(n) for n in (1, 2))
        assert r2 * r2 == two
        assert (r2 + 1) * (r2 - 1) == one
        assert r2 / r2 == one
        x = (r2 * 2 + 3) / (r2 + 1)
        assert x * (r2 + 1) == r2 * 2 + 3

    def test_norm_trace_conjugate(self):
        eps, conjugate = (QuadraticIrrational(4, b, 1, 15) for b in (1, -1))
        assert eps.norm() == 1
        assert eps + conjugate == QuadraticIrrational.from_rational(8)
        assert eps * conjugate == QuadraticIrrational.from_rational(1)

    def test_floor_and_compare(self):
        # the floor steps the reference continued fraction
        assert floor_reference(sqrtq(2)) == 1
        assert floor_reference(-sqrtq(2)) == -2
        assert floor_reference(QuadraticIrrational(-3, 1, 1, 15)) == 0
        assert sqrtq(15) > 3 and sqrtq(15) < 4
        assert QuadraticIrrational(1, 1, 2, 5) > 1

    def test_to_fixed_matches_value(self):
        x = QuadraticIrrational(-3, 2, 7, 13)
        fx = x.to_fixed(128)
        approx = (-3 + 2 * 13**0.5) / 7
        assert abs(fx.mantissa / 2**fx.scale_bits - approx) < 1e-12


class TestContinuedFractions:
    def test_sqrt2(self):
        e = cf_expand(sqrtq(2))
        assert e.preperiod == (1,) and e.period == (2,)
        assert cf_reconstruct(e) == sqrtq(2)

    def test_golden(self):
        g = QuadraticIrrational(1, 1, 2, 5)
        e = cf_expand(g)
        assert e.preperiod == () and e.period == (1,)
        assert cf_reconstruct(e) == g

    def test_sqrt15(self):
        e = cf_expand(sqrtq(15))
        assert e.preperiod == (3,) and e.period == (1, 6)
        assert cf_reconstruct(e) == sqrtq(15)

    def test_rational_rejected(self):
        with pytest.raises(InputRational):
            cf_expand(QuadraticIrrational.from_rational(Fraction(7, 3)))

    def test_periodicity_sweep(self):
        # Lagrange: every sqrt(d) expansion cycles; checked constructively
        for d in range(2, 500):
            if is_squarefree(d):
                e = cf_expand(sqrtq(d))
                assert len(e.period) >= 1
                assert cf_reconstruct(e) == sqrtq(d)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=2, max_value=9999))
    def test_reconstruction_roundtrip(self, a, b, c, d):
        x = QuadraticIrrational(a, b, c, d)
        if x.is_rational:
            return
        e = cf_expand(x)
        assert cf_reconstruct(e) == x

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30).filter(bool),
           st.integers(min_value=2, max_value=9999))
    def test_integer_states_match_object_reference(self, a, b, c, d):
        # (P, Q) steps from any sign of b and c, scaled where Q does not
        # divide D - P^2, give the reference's digits and complete quotients
        x = QuadraticIrrational(a, b, c, d)
        if x.is_rational:
            return
        assert _irrational_states(x) == expansion_states_reference(x)


class TestFundamentalUnit:
    def test_unit_d15_classical(self):
        u = fundamental_unit(OrderDescriptor("real", 15, 1))
        assert u.value == QuadraticIrrational(4, 1, 1, 15)
        assert u.norm == 1

    def test_d2(self):
        u = fundamental_unit(OrderDescriptor("real", 2, 1))
        assert u.value == QuadraticIrrational(1, 1, 1, 2)
        assert u.norm == -1

    def test_d5_golden(self):
        u = fundamental_unit(OrderDescriptor("real", 5, 1))
        assert u.value == QuadraticIrrational(1, 1, 2, 5)
        assert u.norm == -1

    def test_pell_oracle_small(self):
        for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 19, 21, 94):
            o = OrderDescriptor("real", d, 1)
            u = fundamental_unit(o)
            t, uu = pell_min_solution(o.fundamental_discriminant)
            s = 1 if o.fundamental_discriminant == d else 2
            assert u.value == QuadraticIrrational(t, uu * s, 2, d), d

    def test_membership_and_norm_sweep(self):
        # module invariant: d <= 200, conductor <= 5, exact
        for d in SQUAREFREE_200:
            for f in range(1, 6):
                o = OrderDescriptor("real", d, f)
                u = fundamental_unit(o)
                assert u.norm in (1, -1)
                assert u.value.norm() == u.norm
                assert u.value > 1
                assert _in_order(u.value, o), (d, f)

    def test_membership_matches_fraction_reference(self):
        # x = (a + b sqrt d)/c, rational x included, in every real order
        # with square-free d < 60 and f <= 6
        checked = members = 0
        for d in range(2, 60):
            if not is_squarefree(d):
                continue
            orders = [OrderDescriptor("real", d, f) for f in range(1, 7)]
            for a in range(-12, 13):
                for b in range(-12, 13):
                    for c in range(1, 9):
                        x = QuadraticIrrational(a, b, c, d)
                        for o in orders:
                            member = _in_order(x, o)
                            assert member == in_order_reference(x, o), (x, o)
                            members += member
                            checked += 1
        assert checked == 36 * 6 * 25 * 25 * 8 and members > 0

    def test_suborder_units_are_powers(self):
        for d in (2, 3, 5, 10, 13, 15, 21, 35, 91):
            u1 = fundamental_unit(OrderDescriptor("real", d, 1))
            for f in (2, 3, 4, 5):
                uf = fundamental_unit(OrderDescriptor("real", d, f))
                powers = [u1.value]
                while len(powers) < 12:
                    powers.append(powers[-1] * u1.value)
                assert uf.value in powers, (d, f)

    def test_matches_object_reference(self):
        # every real order with square-free d < 400 and f <= 7, and the
        # largest real order the benchmark matches (d = 26, f = 67)
        orders = [OrderDescriptor("real", d, f) for d in range(2, 400)
                  if is_squarefree(d) for f in range(1, 8)]
        orders.append(OrderDescriptor("real", 26, 67))
        assert len(orders) == 1695
        for o in orders:
            assert fundamental_unit(o).to_json() == \
                fundamental_unit_reference(o).to_json(), o

    def test_builds_one_irrational_whatever_the_period(self, monkeypatch):
        # the expansion runs on (P, Q) integers; only the unit itself is
        # built as a QuadraticIrrational
        short, long = OrderDescriptor("real", 2, 1), OrderDescriptor("real", 94, 7)
        disc = long.discriminant
        assert _expansion_states(disc % 2, 2, disc)[3] >= 20
        built = []
        init = QuadraticIrrational.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(QuadraticIrrational, "__init__", counting_init)
        counts = []
        for o in (short, long):
            built.clear()
            fundamental_unit(o)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2

    def test_imaginary_rejected(self):
        with pytest.raises(DomainError):
            fundamental_unit(OrderDescriptor("imaginary", 15, 1))

    def test_unit_outside_order_is_typed(self, monkeypatch):
        import quadexp.quadfield as quadfield
        monkeypatch.setattr(quadfield, "_in_order", lambda x, order: False)
        with pytest.raises(DomainError):
            fundamental_unit(OrderDescriptor("real", 15, 1))


class TestOrderDescriptor:
    def test_discriminants(self):
        assert OrderDescriptor("real", 15, 1).discriminant == 60
        assert OrderDescriptor("real", 5, 1).discriminant == 5
        assert OrderDescriptor("real", 5, 3).discriminant == 45
        assert OrderDescriptor("imaginary", 15, 1).discriminant == -15
        assert OrderDescriptor("imaginary", 1, 1).discriminant == -4
        assert OrderDescriptor("imaginary", 163, 1).discriminant == -163

    def test_validation(self):
        with pytest.raises(DomainError):
            OrderDescriptor("real", 12, 1)
        with pytest.raises(DomainError):
            OrderDescriptor("real", 15, 0)
        with pytest.raises(DomainError):
            OrderDescriptor("sideways", 15, 1)


class TestEquivalence:
    def test_translation(self):
        th = sqrtq(2)
        r = sl2_equivalent(th, th + 1)
        assert r.sl2 and r.witness is not None
        a, b, c, d = r.witness
        assert a * d - b * c == 1

    def test_inversion(self):
        th = sqrtq(2)
        r = sl2_equivalent(th, QuadraticIrrational.from_rational(-1) / th)
        assert r.sl2
        a, b, c, d = r.witness
        assert a * d - b * c == 1

    def test_different_fields(self):
        r = sl2_equivalent(sqrtq(2), sqrtq(3))
        assert not r.sl2 and not r.gl2

    def test_wide_but_not_proper(self):
        # even period: the mirror image is GL2- but not SL2-equivalent
        r = sl2_equivalent(sqrtq(15), -sqrtq(15))
        assert r.gl2 and not r.sl2

    def test_rational_rejected(self):
        with pytest.raises(InputRational):
            sl2_equivalent(QuadraticIrrational.from_rational(1), sqrtq(2))

    @pytest.mark.parametrize("d, theta2", [
        (3, lambda th: (th + 1) / (th + 2)),  # shift parity gives det +1
        (2, lambda th: th + 1),               # odd period flips the parity
        (15, lambda th: -th),                 # even period: GL2 witness only
    ])
    def test_wrong_witness_is_typed(self, monkeypatch, d, theta2):
        th = sqrtq(d)
        assert sl2_equivalent(th, theta2(th)).gl2
        monkeypatch.setattr(quadfield, "_moebius",
                            lambda mat, x: QuadraticIrrational.from_rational(0))
        with pytest.raises(DomainError):
            sl2_equivalent(th, theta2(th))

    def _random_sl2_image(self, rng, theta):
        mats = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)]
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 6)):
            e, f, g, h = mats[rng.randrange(3)]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        num = theta * a + b
        den = theta * c + d
        return num / den, (a, b, c, d)

    def test_equivalence_relation_laws(self):
        rng = random.Random(99)
        for _ in range(25):
            d = rng.choice((2, 3, 5, 7, 13, 15, 21))
            th = sqrtq(d)
            x, _ = self._random_sl2_image(rng, th)
            y, _ = self._random_sl2_image(rng, th)
            # reflexivity
            assert sl2_equivalent(x, x).sl2
            # symmetry with witness inversion
            rxy = sl2_equivalent(x, y)
            ryx = sl2_equivalent(y, x)
            assert rxy.sl2 and ryx.sl2
            a, b, c, dd = rxy.witness
            # inverse witness maps y back to x
            inv = (dd, -b, -c, a)
            assert (y * inv[0] + inv[1]) / (y * inv[2] + inv[3]) == x
            # transitivity via witness product
            z, _ = self._random_sl2_image(rng, th)
            ryz = sl2_equivalent(y, z)
            e, f, g, h = ryz.witness
            prod = (e * a + f * c, e * b + f * dd, g * a + h * c, g * b + h * dd)
            assert (x * prod[0] + prod[1]) / (x * prod[2] + prod[3]) == z
