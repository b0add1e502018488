import hashlib
from collections import Counter
from dataclasses import FrozenInstanceError
from math import isqrt

import pytest

import oracles
from oracles import (class_group_reference, class_number_reference,
                     definite_class_number_orbit,
                     indefinite_cycles_reference,
                     indefinite_reduced_forms_reference, is_reduced_definite,
                     is_reduced_indefinite_reference,
                     match_conductor_reference, min_unit_power_in_suborder,
                     rho_reference, unit_index_reference, wide_classes_gl2)
from quadexp import classforms
from quadexp.classforms import (ClassGroupSummary, _FieldOrders,
                                _indefinite_cycles, _indefinite_reduced_forms,
                                _rho, _wide_classes, class_group,
                                match_conductor, pseudo_lattice_reps)
from quadexp.errors import (BoundExceeded, DomainError, NoMatchWithinBound,
                           QuadexpError)
from quadexp.pipeline import EXCLUDED_D, CaseParams, run_case
from quadexp.quadfield import (OrderDescriptor, QuadraticIrrational,
                               UnitElement, _prime_powers, fundamental_unit,
                               is_squarefree, sl2_equivalent)


def _real_orders(d_max=60, f_max=10):
    return [OrderDescriptor("real", d, f) for d in range(2, d_max)
            if is_squarefree(d) for f in range(1, f_max + 1)]


# every non-square discriminant 5 <= D <= 6000, and 4 * 26 * 67^2, the
# real order that d = 26 matches in the scan
INDEFINITE_DISCS = [disc for disc in range(5, 6001) if disc % 4 in (0, 1)
                    and isqrt(disc) ** 2 != disc] + [4 * 26 * 67**2]


def _cycles(disc):
    """Every cycle of the pairs, ordered by least member as the references
    list them."""
    pairs = _indefinite_cycles(disc, None)
    return sorted((cycle for pair in pairs for cycle in pair), key=min)


def _wide(disc):
    return _wide_classes(_indefinite_cycles(disc, None))


def _enumerated_h(order):
    """h from every reduced form: a real order's cycles are all walked,
    with no count from the class-number formula."""
    if order.field_kind == "imaginary":
        return class_group(order).h
    return len(_wide(order.discriminant))


class TestClassGroup:
    def test_minus_15(self):
        cg = class_group(OrderDescriptor("imaginary", 15, 1))
        assert cg.h == 2
        assert set(cg.representatives) == {(1, 1, 4), (2, 1, 2)}

    def test_plus_15(self):
        cg = class_group(OrderDescriptor("real", 15, 1))
        assert cg.h == 2
        assert cg.h_proper == 4  # form classes; the wide (module) count is 2

    def test_minus_163(self):
        assert class_group(OrderDescriptor("imaginary", 163, 1)).h == 1

    def test_d1_single_form(self):
        cg = class_group(OrderDescriptor("imaginary", 1, 1))
        assert cg.h == 1
        assert cg.representatives == ((1, 0, 1),)

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
            cycles = _cycles(o.discriminant)
            reps = wide_classes_gl2(cycles, o.discriminant)
            cg = class_group(o)
            assert (cg.h, cg.h_proper, cg.representatives) == \
                (len(reps), len(cycles), tuple(reps)), o

    def test_cycles_come_paired_with_their_negatives(self):
        # the pairs hold the reference's cycles, the principal pair first,
        # and a pair's second cycle negates its first
        for disc in INDEFINITE_DISCS:
            pairs = _indefinite_cycles(disc, None)
            cycles = [cycle for pair in pairs for cycle in pair]
            reference = indefinite_cycles_reference(
                indefinite_reduced_forms_reference(disc))
            assert {frozenset(c) for c in cycles} == \
                {frozenset(c) for c in reference}, disc
            assert len(cycles) == len(reference), disc
            s = isqrt(disc)
            b0 = s - ((s ^ disc) & 1)
            assert (1, b0, (b0 * b0 - disc) // 4) in pairs[0][0], disc
            for pair in pairs:
                assert len(pair) == 1 or \
                    pair[1] == [(-a, b, -c) for a, b, c in pair[0]], disc

    def test_negative_cycles_take_no_rho_step(self, monkeypatch):
        # each pair's second cycle is read off its first, so rho runs once
        # per form of the first cycles only: 248 of the 496 forms of
        # (26, 67), in 6 pairs, and the 8 of its maximal order (26, 1), in
        # 2 cycles that are their own negatives
        calls = []
        rho = classforms._rho

        def spy(*args):
            calls.append(args)
            return rho(*args)

        monkeypatch.setattr(classforms, "_rho", spy)
        classforms._enumerated_class_group.cache_clear()
        assert class_group(OrderDescriptor("real", 26, 67)).h_proper == 12
        assert len(calls) == 256

    def test_real_orders_match_object_reference(self):
        # every real order with square-free d < 400 and f <= 7, and the
        # largest real order the benchmark matches (d = 26, f = 67)
        orders = _real_orders(400, 7) + [OrderDescriptor("real", 26, 67)]
        assert len(orders) == 1695
        for o in orders:
            assert class_group(o) == class_group_reference(o), o

    # real orders of up to 36 cycles whose least |a| on a cycle reaches 75
    EARLY_STOP_ORDERS = [(26, 67), (6, 89), (79, 41), (10, 97), (94, 17),
                         (46, 29), (1001, 3)]

    @pytest.mark.parametrize("d,f", EARLY_STOP_ORDERS)
    def test_early_stop_matches_reference(self, d, f):
        # the scan stops at the class-number formula's cycle count
        order = OrderDescriptor("real", d, f)
        assert class_group(order) == class_group_reference(order)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_wrong_cycle_count_raises(self, monkeypatch, shift):
        # +1: the forms cannot meet the count; -1: a pair of cycles passes
        # it, so the walk runs out of forms too. Either raises instead of
        # returning a short summary
        counts = classforms._formula_counts

        def shifted(order):
            h, count = counts(order)
            return h, count + shift

        monkeypatch.setattr(classforms, "_formula_counts", shifted)
        classforms._enumerated_class_group.cache_clear()
        with pytest.raises(DomainError):
            class_group(OrderDescriptor("real", 26, 67))

    def test_early_stop_census(self, monkeypatch):
        # the 12 cycles of disc 4 * 26 * 67^2 (s = 683) are all met within
        # the first 4 of its 342 values of b
        order, seen = OrderDescriptor("real", 26, 67), []
        forms = classforms._indefinite_reduced_forms

        def spy(disc):
            for q in forms(disc):
                if disc == order.discriminant:
                    seen.append(q[1])
                yield q

        monkeypatch.setattr(classforms, "_indefinite_reduced_forms", spy)
        classforms._enumerated_class_group.cache_clear()
        assert class_group(order).h_proper == 12
        assert sorted(set(seen), reverse=True) == [682, 680, 678, 676]

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

    def test_bound_checked_on_remembered_order(self, monkeypatch):
        # the limit is read on every call, cache hit or not
        order = OrderDescriptor("real", 15, 1)
        assert class_group(order).h == 2
        monkeypatch.setattr(classforms, "DISC_LIMIT", 10)
        with pytest.raises(BoundExceeded, match=r"\|disc\|=60 exceeds limit 10"):
            class_group(order)

    def test_remembered_summary_is_shared_and_frozen(self):
        order = OrderDescriptor("imaginary", 14, 1)
        cg = class_group(order)
        assert class_group(order) is cg
        assert isinstance(cg.representatives, tuple)
        # forms stay (a, b, c) int triples from enumeration to report
        real = class_group(OrderDescriptor("real", 15, 1))
        for q in cg.representatives + real.representatives:
            assert type(q) is tuple and len(q) == 3, q
            assert all(type(x) is int for x in q), q
        with pytest.raises(FrozenInstanceError):
            cg.h = 0

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
        assert is_reduced_definite((1, 1, 4))
        assert is_reduced_definite((2, 1, 2))
        assert not is_reduced_definite((2, -1, 2))
        assert not is_reduced_definite((4, 1, 1))

    def test_indefinite_rho_cycles(self):
        # the walk's step on triples, held to the step from its definition
        q = (1, 6, -6)  # disc 60
        cycle = [q]
        r = _rho(q, 60, isqrt(60))
        while r != q:
            assert r == rho_reference(cycle[-1]), cycle
            cycle.append(r)
            r = _rho(r, 60, isqrt(60))
        assert all(map(is_reduced_indefinite_reference, cycle))
        assert len(cycle) % 2 == 0

    def test_rho_commutes_with_negation(self):
        # rho(-q) = -rho(q), so the negatives of a cycle form a cycle
        checked = 0
        for o in _real_orders():
            disc = o.discriminant
            s = isqrt(disc)
            for a, b, c in _indefinite_reduced_forms(disc):
                ra, rb, rc = _rho((a, b, c), disc, s)
                assert (ra, rb, rc) == rho_reference((a, b, c)), (a, b, c)
                assert is_reduced_indefinite_reference((-a, b, -c)), (a, b, c)
                assert _rho((-a, b, -c), disc, s) == (-ra, rb, -rc), (a, b, c)
                checked += 1
        assert checked > 16000

    def test_enumeration_matches_unbounded_loop(self):
        # the divisor loop starts above (s - b)/2; the reference tries every
        # a >= 1
        for disc in INDEFINITE_DISCS:
            assert sorted(_indefinite_reduced_forms(disc)) == \
                indefinite_reduced_forms_reference(disc), disc
        assert len(INDEFINITE_DISCS) == 2924


class TestPseudoLattices:
    def test_d15_two_reps_principal_sqrt15(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 15, 1)))
        assert len(reps) == 2
        r15 = QuadraticIrrational(0, 1, 1, 15)
        flags = [sl2_equivalent(r.theta, r15).sl2 for r in reps]
        assert flags[0] and not flags[1]
        assert not sl2_equivalent(reps[0].theta, reps[1].theta).gl2

    def test_d2_single(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 2, 1)))
        assert len(reps) == 1
        assert sl2_equivalent(reps[0].theta,
                              QuadraticIrrational(0, 1, 1, 2)).sl2

    def test_d5_golden(self):
        reps = pseudo_lattice_reps(class_group(OrderDescriptor("real", 5, 1)))
        assert len(reps) == 1
        golden = QuadraticIrrational(1, 1, 2, 5)
        assert sl2_equivalent(reps[0].theta, golden).sl2

    def test_root_consistency(self):
        for d in (15, 79, 82):
            cg = class_group(OrderDescriptor("real", d, 1))
            for rep in pseudo_lattice_reps(cg):
                a, b, c = rep.source_form
                th = rep.theta
                val = th * th * a + th * b + c
                assert val == QuadraticIrrational(0, 0, 1, 1)
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
        bad = (1, -3, 1)  # larger root (3+sqrt5)/2 > 1
        with pytest.raises(DomainError, match=r"theta of \[1, -3, 1\]"):
            pseudo_lattice_reps(ClassGroupSummary(order, 1, (bad,), 1))


def _field(order):
    """The formula's field object of ``order``, built from its maximal
    order outside the ``_field_orders`` cache."""
    return _FieldOrders(OrderDescriptor(order.field_kind, order.d, 1))


def _unit_index(order):
    """[O_K^*:O_f^*] of ``order`` through the formula's field object."""
    return _field(order).unit_index(order.conductor)


def _class_number(order):
    """h(O_f) of ``order`` through the formula's field object."""
    return _field(order).class_number(order.conductor)


def _patch_unit(monkeypatch, unit):
    """Hand ``unit`` to ``_FieldOrders`` as its field's fundamental unit."""
    monkeypatch.setattr(classforms, "fundamental_unit",
                        lambda order: UnitElement(unit, int(unit.norm())))


class TestClassNumberFormula:
    def test_agrees_with_enumeration(self):
        # class_group stops a real order's scan at the formula's cycle
        # count, so the formula is held to a scan that walks every cycle
        checked = 0
        for kind, first in (("imaginary", 1), ("real", 2)):
            for d in range(first, 80):
                if not is_squarefree(d):
                    continue
                field = _field(OrderDescriptor(kind, d, 1))
                for f in range(1, 16):
                    o = OrderDescriptor(kind, d, f)
                    assert field.class_number(f) == _enumerated_h(o), \
                        (kind, d, f)
                    checked += 1
        assert checked > 1400

    def test_imaginary_unit_index(self):
        for d, index in ((1, 2), (3, 3), (15, 1)):
            assert _unit_index(OrderDescriptor("imaginary", d, 1)) == 1
            for f in (2, 3, 6):
                assert _unit_index(OrderDescriptor("imaginary", d, f)) == index

    def test_imaginary_against_orbit_oracle(self):
        for d, f in ((1, 5), (3, 7), (15, 4), (5, 6), (23, 3)):
            o = OrderDescriptor("imaginary", d, f)
            assert _class_number(o) == \
                definite_class_number_orbit(o.discriminant), (d, f)

    def test_real_unit_index_oracle(self):
        for d in (2, 3, 5, 13, 15, 26, 29):
            eps = fundamental_unit(OrderDescriptor("real", d, 1)).value
            for f in (2, 3, 5, 7, 12):
                o = OrderDescriptor("real", d, f)
                power = eps
                for _ in range(_unit_index(o) - 1):
                    power = power * eps
                assert power == min_unit_power_in_suborder(eps, o), (d, f)

    def test_real_unit_index_against_reference(self):
        checked = 0
        for d in range(2, 120):
            if not is_squarefree(d):
                continue
            field = _field(OrderDescriptor("real", d, 1))
            for f in range(2, 41):
                o = OrderDescriptor("real", d, f)
                assert field.unit_index(f) == \
                    unit_index_reference(o, field.unit), (d, f)
                checked += 1
        assert checked == 2886

    def test_real_unit_index_at_prime_powers(self):
        # k_f is the lcm of the indices of the prime powers exactly dividing
        # f; conductors with squares and several primes check the lcm
        checked = 0
        for d in range(2, 100):
            if not is_squarefree(d):
                continue
            field = _field(OrderDescriptor("real", d, 1))
            for f in (4, 8, 9, 12, 16, 27, 36, 48, 60, 64, 72, 81, 96, 100):
                o = OrderDescriptor("real", d, f)
                assert field.unit_index(f) == \
                    unit_index_reference(o, field.unit), (d, f)
                checked += 1
        assert checked == 14 * 60

    def test_no_power_in_order_is_typed(self, monkeypatch):
        # 7 splits in Q(sqrt2) and 3 + sqrt2 has norm 7: every power is 0
        # mod one prime over 7 and a unit mod the other, so never in Z + 7 O
        unit = QuadraticIrrational(3, 1, 1, 2)
        o = OrderDescriptor("real", 2, 7)
        with pytest.raises(DomainError) as want:
            unit_index_reference(o, unit)
        _patch_unit(monkeypatch, unit)
        with pytest.raises(DomainError) as got:
            _unit_index(o)
        assert str(got.value) == str(want.value)

    def test_non_integral_result_is_typed(self, monkeypatch):
        # sqrt(3) is no unit: its "index" 2 does not divide 3 = |(O_K/3)^*/(Z/3)^*|
        unit = QuadraticIrrational(0, 1, 1, 3)
        o = OrderDescriptor("real", 3, 3)
        h_max = class_group(OrderDescriptor("real", 3, 1)).h
        _patch_unit(monkeypatch, unit)
        with pytest.raises(DomainError) as got:
            _class_number(o)
        # the oracle reads its unit indices from its memo: seed it with the
        # injected unit's
        monkeypatch.setattr(oracles, "_REAL_UNIT_INDICES",
                            {(3, 3): unit_index_reference(o, unit)})
        with pytest.raises(DomainError) as want:
            class_number_reference(o, h_max)
        assert str(got.value) == str(want.value)


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
                    h = _enumerated_h(OrderDescriptor(kind, d, f))
                    assert h % h_max == 0, (kind, d, f, h, h_max)
                    checked += 1
        assert checked == 1022


class TestConductorMatch:
    def test_d15_both_directions(self):
        assert match_conductor(OrderDescriptor("real", 15, 1), 50) == (1, 2)
        assert match_conductor(OrderDescriptor("imaginary", 15, 1), 50) == \
            (1, 2)

    def test_disc_limit_bounds_enumeration_only(self, monkeypatch):
        # imag-to-real d=5 matches the real order of conductor 8, |disc| 320;
        # the formula finds it beyond the limit, and run_case raises only
        # when it enumerates that order
        monkeypatch.setattr(classforms, "DISC_LIMIT", 100)
        assert match_conductor(OrderDescriptor("imaginary", 5, 1), 100) == \
            (8, 2)
        r = run_case(5, CaseParams(conductor_direction="imag-to-real",
                                   recognition=False))
        assert r.errors == ["BoundExceeded: |disc|=320 exceeds limit 100"]
        assert r.conductors is None and r.j_values is None

    def test_quotient_computed_once_per_candidate(self, monkeypatch):
        # h(-23) = 3 and h(Q(sqrt23)) = 1: all 99 real candidates are scanned.
        # Each f's class number takes one Q_f, and each prime power's first
        # unit-index search takes one more, as its bound
        calls = []
        quotient = _FieldOrders.quotient

        def spy(self, f):
            calls.append(f)
            return quotient(self, f)

        monkeypatch.setattr(_FieldOrders, "quotient", spy)
        classforms._field_orders.cache_clear()
        with pytest.raises(NoMatchWithinBound):
            match_conductor(OrderDescriptor("imaginary", 23, 1), 100)
        expected, bounded = [], set()
        for f in range(2, 101):
            expected.append(f)
            for p, e in _prime_powers(f):
                if p**e not in bounded:
                    bounded.add(p**e)
                    expected.append(p**e)
        assert calls == expected
        assert len(bounded) == 35

    def test_one_kronecker_symbol_per_prime(self, monkeypatch):
        # the same scan needs (d_K/p) for the 25 primes p <= 100, once each
        # for the candidates' Q_f and the unit-index bounds together
        calls = []
        kronecker = classforms._kronecker

        def spy(disc, p):
            calls.append(p)
            return kronecker(disc, p)

        monkeypatch.setattr(classforms, "_kronecker", spy)
        classforms._field_orders.cache_clear()
        with pytest.raises(NoMatchWithinBound):
            match_conductor(OrderDescriptor("imaginary", 23, 1), 100)
        assert sorted(calls) == [p for p in range(2, 101)
                                 if all(p % q for q in range(2, p))]
        assert len(calls) == 25

    def test_census_to_3000(self):
        # every square-free d <= 3000 outside EXCLUDED_D at bound 100; no
        # candidate is held to DISC_LIMIT, so nothing raises BoundExceeded.
        # Every outcome is pinned: a line "kind d f h" per match, and
        # "kind d ExceptionName: message" per miss
        ds = [d for d in range(2, 3001)
              if is_squarefree(d) and d not in EXCLUDED_D]
        census, lines = {}, []
        for kind in ("real", "imaginary"):
            outcomes = Counter()
            for d in ds:
                try:
                    f, h = match_conductor(OrderDescriptor(kind, d, 1), 100)
                    outcomes["match"] += 1
                    lines.append(f"{kind} {d} {f} {h}")
                except QuadexpError as exc:
                    outcomes[type(exc).__name__] += 1
                    lines.append(f"{kind} {d} {type(exc).__name__}: {exc}")
            census[kind] = dict(outcomes)
        assert census == {
            "real": {"match": 48, "NoMatchWithinBound": 1767},
            "imaginary": {"match": 860, "NoMatchWithinBound": 955}}
        text = "\n".join(sorted(lines))
        assert len(lines) == 3630
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1ceb9aa4c5b5b90dccc99509bd37a54b8766ca718a813360bee193454914a40e")

    @pytest.mark.parametrize("limit", [10, 500, 10**4, None])
    def test_against_reference(self, monkeypatch, limit):
        # the same match, or the same exception and message, as trying
        # every f; the class groups are checked against their own oracles
        if limit is not None:
            monkeypatch.setattr(classforms, "DISC_LIMIT", limit)

        def outcome(search, given, bound):
            try:
                return search(given, bound)
            except QuadexpError as exc:
                return type(exc).__name__, str(exc)

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
                f_match, _ = match_conductor(OrderDescriptor("real", d, 1), 60)
            except NoMatchWithinBound:
                continue
            h = class_group(OrderDescriptor("real", d, 1)).h
            for f in range(1, f_match):
                assert class_group(OrderDescriptor("imaginary", d, f)).h != h, (d, f)
            assert class_group(
                OrderDescriptor("imaginary", d, f_match)).h == h

    def test_minimality_rescan_imag_to_real(self):
        # wide class numbers of the real orders counted by enumerating
        # forms, never by the formula
        unmatched = []
        for d in range(2, 61):
            if not is_squarefree(d) or d in EXCLUDED_D:
                continue
            h = class_group(OrderDescriptor("imaginary", d, 1)).h
            try:
                f_match, _ = match_conductor(
                    OrderDescriptor("imaginary", d, 1), 100)
            except NoMatchWithinBound:
                unmatched.append(d)
                f_match = 101
            for f in range(1, f_match):
                assert _enumerated_h(OrderDescriptor("real", d, f)) != h, (d, f)
            if f_match <= 100:
                assert _enumerated_h(OrderDescriptor("real", d, f_match)) == h
        assert unmatched == [23, 31, 47, 59]
