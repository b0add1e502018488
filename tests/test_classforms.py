from math import isqrt

import pytest

from oracles import (definite_class_number_orbit,
                     indefinite_reduced_forms_reference, is_reduced_definite,
                     match_conductor_reference, min_unit_power_in_suborder,
                     unit_index_reference, wide_classes_gl2)
from quadexp import classforms
from quadexp.classforms import (BinaryQuadraticForm, ClassGroupSummary,
                                _indefinite_cycles, _indefinite_reduced_forms,
                                _wide_classes, class_group, match_conductor,
                                order_class_number, pseudo_lattice_reps,
                                unit_index)
from quadexp.errors import (BoundExceeded, DomainError, NoMatchWithinBound,
                           QuadexpError)
from quadexp.quadfield import (OrderDescriptor, QuadraticIrrational,
                               fundamental_unit, is_squarefree, sl2_equivalent)


def _real_orders(d_max=60, f_max=10):
    return [OrderDescriptor("real", d, f) for d in range(2, d_max)
            if is_squarefree(d) for f in range(1, f_max + 1)]


def _negated(q):
    return BinaryQuadraticForm(-q.a, q.b, -q.c)


class TestClassGroup:
    def test_minus_15(self):
        cg = class_group(OrderDescriptor("imaginary", 15, 1))
        assert cg.h == 2
        assert {(f.a, f.b, f.c) for f in cg.representatives} == {(1, 1, 4), (2, 1, 2)}

    def test_plus_15(self):
        cg = class_group(OrderDescriptor("real", 15, 1))
        assert cg.h == 2
        assert cg.h_proper == 4  # form classes; the wide (module) count is 2

    def test_minus_163(self):
        assert class_group(OrderDescriptor("imaginary", 163, 1)).h == 1

    def test_d1_single_form(self):
        cg = class_group(OrderDescriptor("imaginary", 1, 1))
        assert cg.h == 1
        assert [(f.a, f.b, f.c) for f in cg.representatives] == [(1, 0, 1)]

    def test_exclusion_list_class_number_one(self):
        for d in (3, 7, 11, 19, 43, 67, 163):
            assert class_group(OrderDescriptor("imaginary", d, 1)).h == 1, d

    def test_wide_vs_unit_norm(self):
        # h_wide = h_proper iff a norm -1 unit exists, else h_proper / 2
        for o in _real_orders():
            cg = class_group(o)
            if fundamental_unit(o).norm == -1:
                assert cg.h == cg.h_proper, o
            else:
                assert 2 * cg.h == cg.h_proper, o

    def test_wide_classes_match_gl2_merge_oracle(self):
        orders = _real_orders()
        assert len(orders) == 360
        for o in orders:
            cycles = _indefinite_cycles(_indefinite_reduced_forms(o.discriminant))
            reps = wide_classes_gl2(cycles, o.discriminant)
            cg = class_group(o)
            assert (cg.h, cg.h_proper, cg.representatives) == \
                (len(reps), len(cycles), reps), o

    def test_missing_cycle_is_typed(self):
        cycles = _indefinite_cycles(_indefinite_reduced_forms(60))
        principal = next(i for i, cyc in enumerate(cycles)
                         if BinaryQuadraticForm(1, 6, -6) in cyc)
        partner = next(i for i, cyc in enumerate(cycles)
                       if _negated(cycles[principal][0]) in cyc)
        assert partner != principal  # d = 15 has no unit of norm -1
        with pytest.raises(DomainError, match="lies on no reduced cycle"):
            _wide_classes([c for i, c in enumerate(cycles) if i != principal], 60)
        with pytest.raises(DomainError, match="lies on no reduced cycle"):
            _wide_classes([cycles[principal]], 60)

    def test_nonmaximal_orders(self):
        # direct enumeration handles conductor > 1 on both sides
        assert class_group(OrderDescriptor("imaginary", 1, 2)).h == 1  # disc -16
        assert class_group(OrderDescriptor("imaginary", 3, 2)).h == 1  # disc -12
        cg = class_group(OrderDescriptor("imaginary", 15, 2))
        assert cg.h == definite_class_number_orbit(-60)

    def test_bound_exceeded(self, monkeypatch):
        monkeypatch.setattr(classforms, "DISC_LIMIT", 10)
        with pytest.raises(BoundExceeded):
            class_group(OrderDescriptor("imaginary", 15, 1))

    def test_oracle_agreement_sample(self):
        # fuller sweep lives in the acceptance suite
        disc = -3
        checked = 0
        while disc >= -400:
            if disc % 4 in (0, 1):
                d_abs = -disc
                kernel = d_abs
                # find (d, f) giving this discriminant: try f = 1, 2, 3, 4
                for f in (1, 2, 3, 4):
                    if d_abs % (f * f):
                        continue
                    d0 = d_abs // (f * f)
                    if d0 % 4 == 3 and is_squarefree(d0):
                        o = OrderDescriptor("imaginary", d0, f)
                    elif d0 % 4 == 0 and is_squarefree(d0 // 4):
                        o = OrderDescriptor("imaginary", d0 // 4, f)
                    else:
                        continue
                    if o.discriminant == disc:
                        assert class_group(o).h == definite_class_number_orbit(disc), disc
                        checked += 1
                        break
            disc -= 1
        assert checked > 60


class TestReducedForms:
    def test_definite_reduction_predicate(self):
        assert is_reduced_definite(BinaryQuadraticForm(1, 1, 4))
        assert is_reduced_definite(BinaryQuadraticForm(2, 1, 2))
        assert not is_reduced_definite(BinaryQuadraticForm(2, -1, 2))
        assert not is_reduced_definite(BinaryQuadraticForm(4, 1, 1))

    def test_indefinite_rho_cycles(self):
        f = BinaryQuadraticForm(1, 6, -6)  # disc 60
        cycle = [f]
        g = f.rho()
        while g != f:
            cycle.append(g)
            g = g.rho()
        assert all(h.is_reduced_indefinite() for h in cycle)
        assert len(cycle) % 2 == 0

    def test_rho_commutes_with_negation(self):
        # rho(-q) = -rho(q), so the negatives of a cycle form a cycle
        checked = 0
        for o in _real_orders():
            for q in _indefinite_reduced_forms(o.discriminant):
                assert _negated(q).is_reduced_indefinite(), q
                assert _negated(q).rho() == _negated(q.rho()), q
                checked += 1
        assert checked > 16000

    def test_enumeration_matches_unbounded_loop(self):
        # the divisor loop starts above (s - b)/2; the reference tries every
        # a >= 1. 4 * 26 * 67^2 is the real order d = 26 matches in the scan
        discs = [disc for disc in range(5, 6001) if disc % 4 in (0, 1)
                 and isqrt(disc) ** 2 != disc] + [4 * 26 * 67**2]
        for disc in discs:
            assert _indefinite_reduced_forms(disc) == \
                indefinite_reduced_forms_reference(disc), disc
        assert len(discs) == 2924


class TestPseudoLattices:
    def test_d15_two_reps_principal_sqrt15(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 15, 1)))
        assert len(reps) == 2
        r15 = QuadraticIrrational.sqrt_of(15)
        flags = [sl2_equivalent(r.theta, r15).sl2 for r in reps]
        assert flags[0] and not flags[1]
        assert not sl2_equivalent(reps[0].theta, reps[1].theta).gl2

    def test_d2_single(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 2, 1)))
        assert len(reps) == 1
        assert sl2_equivalent(reps[0].theta, QuadraticIrrational.sqrt_of(2)).sl2

    def test_d5_golden(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 5, 1)))
        assert len(reps) == 1
        golden = QuadraticIrrational(1, 1, 2, 5)
        assert sl2_equivalent(reps[0].theta, golden).sl2

    def test_root_consistency(self):
        for d in (15, 79, 82):
            cg = class_group(OrderDescriptor("real", d, 1))
            for rep in pseudo_lattice_reps(cg):
                f = rep.source_form
                th = rep.theta
                val = th * th * f.a + th * f.b + f.c
                assert val.is_rational and val.as_fraction() == 0
                assert 0 < th < 1

    def test_count_matches_wide_h(self):
        for d in (15, 34, 79, 82, 105):
            cg = class_group(OrderDescriptor("real", d, 1))
            assert len(pseudo_lattice_reps(cg)) == cg.h, d

    def test_imaginary_rejected(self):
        with pytest.raises(DomainError):
            pseudo_lattice_reps(class_group(OrderDescriptor("imaginary", 15, 1)))

    def test_theta_outside_unit_interval_is_typed(self):
        order = OrderDescriptor("real", 5, 1)
        bad = BinaryQuadraticForm(1, -3, 1)  # larger root (3+sqrt5)/2 > 1
        with pytest.raises(DomainError):
            pseudo_lattice_reps(ClassGroupSummary(order, 1, [bad], 1))


def _maximal(kind, d):
    o = OrderDescriptor(kind, d, 1)
    unit = fundamental_unit(o).value if kind == "real" else None
    return class_group(o).h, unit


class TestClassNumberFormula:
    def test_agrees_with_enumeration(self):
        checked = 0
        for kind, first in (("imaginary", 1), ("real", 2)):
            for d in range(first, 80):
                if not is_squarefree(d):
                    continue
                h_max, unit = _maximal(kind, d)
                for f in range(1, 16):
                    o = OrderDescriptor(kind, d, f)
                    assert order_class_number(o, h_max, unit) == \
                        class_group(o).h, (kind, d, f)
                    checked += 1
        assert checked > 1400

    def test_imaginary_unit_index(self):
        for d, index in ((1, 2), (3, 3), (15, 1)):
            assert unit_index(OrderDescriptor("imaginary", d, 1)) == 1
            for f in (2, 3, 6):
                assert unit_index(OrderDescriptor("imaginary", d, f)) == index

    def test_imaginary_against_orbit_oracle(self):
        for d, f in ((1, 5), (3, 7), (15, 4), (5, 6), (23, 3)):
            o = OrderDescriptor("imaginary", d, f)
            h_max, _ = _maximal("imaginary", d)
            assert order_class_number(o, h_max) == \
                definite_class_number_orbit(o.discriminant), (d, f)

    def test_real_unit_index_oracle(self):
        for d in (2, 3, 5, 13, 15, 26, 29):
            eps = fundamental_unit(OrderDescriptor("real", d, 1)).value
            for f in (2, 3, 5, 7, 12):
                o = OrderDescriptor("real", d, f)
                k = unit_index(o, eps)
                assert eps**k == min_unit_power_in_suborder(eps, o), (d, f)
        with pytest.raises(DomainError):
            unit_index(OrderDescriptor("real", 2, 3))  # no unit given

    def test_real_unit_index_against_reference(self):
        checked = 0
        for d in range(2, 120):
            if not is_squarefree(d):
                continue
            eps = fundamental_unit(OrderDescriptor("real", d, 1)).value
            for f in range(2, 41):
                o = OrderDescriptor("real", d, f)
                assert unit_index(o, eps) == unit_index_reference(o, eps), \
                    (d, f)
                checked += 1
        assert checked == 2886

    @pytest.mark.parametrize("d,f,unit", [
        (3, 5, QuadraticIrrational(1, 1, 2, 3)),  # (1 + sqrt3)/2 not integral
        (5, 5, QuadraticIrrational(1, 1, 4, 5)),  # (1 + sqrt5)/4 not integral
        # 7 splits in Q(sqrt2) and 3 + sqrt2 has norm 7: every power is 0
        # mod one prime over 7 and a unit mod the other, so never in Z + 7 O
        (2, 7, QuadraticIrrational(3, 1, 1, 2)),
    ])
    def test_no_power_in_order_is_typed(self, d, f, unit):
        o = OrderDescriptor("real", d, f)
        with pytest.raises(DomainError) as want:
            unit_index_reference(o, unit)
        with pytest.raises(DomainError) as got:
            unit_index(o, unit)
        assert str(got.value) == str(want.value)

    def test_non_integral_result_is_typed(self):
        # sqrt(3) is no unit: its "index" 2 does not divide 3 = |(O_K/3)^*/(Z/3)^*|
        with pytest.raises(DomainError):
            order_class_number(OrderDescriptor("real", 3, 3), 1,
                               QuadraticIrrational.sqrt_of(3))


class TestPicardSurjection:
    def test_maximal_class_number_divides_order_class_number(self):
        # Pic(O_f) -> Pic(O_K) is onto, so h(O_K) | h(O_f); both class
        # numbers are counted by enumerating forms, never by the formula
        checked = 0
        for kind, first in (("imaginary", 1), ("real", 2)):
            for d in range(first, 60):
                if not is_squarefree(d):
                    continue
                h_max = class_group(OrderDescriptor(kind, d, 1)).h
                for f in range(2, 16):
                    h = class_group(OrderDescriptor(kind, d, f)).h
                    assert h % h_max == 0, (kind, d, f, h, h_max)
                    checked += 1
        assert checked == 1022


class TestConductorMatch:
    def test_d15_both_directions(self):
        m = match_conductor(OrderDescriptor("real", 15, 1), 50)
        assert (m.matched_conductor, m.h_common) == (1, 2)
        m = match_conductor(OrderDescriptor("imaginary", 15, 1), 50)
        assert (m.matched_conductor, m.h_common) == (1, 2)

    def test_disc_limit(self, monkeypatch):
        # h(Q(sqrt5)) = 1 but h(-20 f^2) > 1: the scan reaches f = 6, where
        # |disc| = 720 first exceeds the limit
        monkeypatch.setattr(classforms, "DISC_LIMIT", 500)
        with pytest.raises(BoundExceeded, match=r"\|disc\|=720 exceeds limit 500"):
            match_conductor(OrderDescriptor("real", 5, 1), 100)
        monkeypatch.setattr(classforms, "DISC_LIMIT", 10)
        with pytest.raises(BoundExceeded, match=r"\|disc\|=20 exceeds limit 10"):
            match_conductor(OrderDescriptor("real", 5, 1), 100)

    @pytest.mark.parametrize("limit", [10, 500, 10**4, None])
    def test_against_reference(self, monkeypatch, limit):
        # the same match, or the same exception and message, as trying every f
        if limit is not None:
            monkeypatch.setattr(classforms, "DISC_LIMIT", limit)

        def outcome(search, given, bound):
            try:
                m = search(given, bound)
            except QuadexpError as exc:
                classes = getattr(exc, "given_classes", None)
                return type(exc).__name__, str(exc), classes and classes.to_json()
            return (m.to_json(), m.given_classes.to_json(),
                    m.opposite_maximal_classes.to_json())

        checked = 0
        for kind, first in (("real", 2), ("imaginary", 1)):
            for d in range(first, 120):
                if not is_squarefree(d):
                    continue
                given = OrderDescriptor(kind, d, 1)
                for bound in (0, 1, 7, 100):
                    assert outcome(match_conductor, given, bound) == \
                        outcome(match_conductor_reference, given, bound), \
                        (kind, d, bound)
                    checked += 1
        assert checked == 4 * (74 + 75)

    def test_degenerate_bound(self):
        with pytest.raises(NoMatchWithinBound):
            match_conductor(OrderDescriptor("real", 2, 1), 0)

    def test_minimality_rescan(self):
        for d in (2, 10, 15, 26):
            try:
                m = match_conductor(OrderDescriptor("real", d, 1), 60)
            except NoMatchWithinBound:
                continue
            h = class_group(OrderDescriptor("real", d, 1)).h
            for f in range(1, m.matched_conductor):
                assert class_group(OrderDescriptor("imaginary", d, f)).h != h, (d, f)
            assert class_group(
                OrderDescriptor("imaginary", d, m.matched_conductor)).h == h
