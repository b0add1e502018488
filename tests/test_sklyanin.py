import dataclasses
import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadexp import pipeline, sklyanin, symbolic
from quadexp.errors import (ConstraintViolated, DomainError, PoleError,
                            StepBoundExceeded)
from quadexp.sklyanin import (Coeff, MU_C, MU_INV, NCPolynomial, ONE,
                              RelationSystem, ZETA_C, ZETA_INV, build_system,
                              check_derivation, complete, deglex_key,
                              jacobi_coefficients, star,
                              star_invariance_constraints,
                              substitute_coefficients, systems_equivalent,
                              systems_identical)

from oracles import (check_certificate, complete_reference, laurent_add,
                     laurent_conjugate, laurent_inverse, laurent_mul,
                     laurent_neg, overlaps_reference, reduce_reference,
                     unjoined_overlaps)

W = NCPolynomial.word


def coeff_st():
    mono = st.fixed_dictionaries({}, optional={
        "mu": st.integers(-2, 2), "zeta": st.integers(-2, 2)})
    return st.builds(
        lambda r, m: Coeff.monomial(r, m),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(bool),
        mono)


def coeff_sum_st(max_terms=3):
    """Sums of monomials in mu, zeta and a generic symbol with its conjugate."""
    mono = st.dictionaries(st.sampled_from(["mu", "zeta", "q13", "q13~"]),
                           st.integers(-2, 2), max_size=3)
    term = st.builds(Coeff.monomial,
                     st.fractions(min_value=Fraction(-3), max_value=Fraction(3)),
                     mono)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(ts, Coeff.zero()))


def rules(kind):
    return build_system(kind).rewrites


def reduce(poly, rule_list, trace=None):
    """poly's normal form under rule_list, through a fresh rule index."""
    return sklyanin._RuleIndex(rule_list).normal_form(poly, trace)


def poly_st(max_terms=3, max_len=3):
    word = st.lists(st.integers(1, 4), min_size=0, max_size=max_len).map(tuple)
    term = st.tuples(word, coeff_st())
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: sum((NCPolynomial.word(w, c) for w, c in ts),
                       NCPolynomial.zero()))


class TestCoeff:
    def test_laurent_arithmetic(self):
        q = MU_C * ZETA_C
        assert q * q.inverse() == ONE
        assert q.conjugate() == MU_C * ZETA_INV
        assert (q + q) == Coeff.monomial(2, {"mu": 1, "zeta": 1})

    def test_conjugate_involutive_on_symbols(self):
        c = Coeff.monomial(Fraction(3, 7), {"q13": 2, "zeta": -1, "mu": 4})
        assert c.conjugate().conjugate() == c

    def test_truth_is_nonzero(self):
        # __init__ drops the coefficients that test false
        assert not Coeff.zero() and not ONE - ONE and ONE and MU_C - ONE
        assert not NCPolynomial.zero() and W((1, 2)) and NCPolynomial.unit()
        assert NCPolynomial({(1,): ONE - ONE, (2,): ONE}).terms == {(2,): ONE}

    def test_integral_values_stored_as_ints(self):
        assert type(Coeff.rational(Fraction(4, 2)).terms[()]) is int
        assert type(Coeff.monomial(Fraction(3, 7), {"mu": 1}).terms[(("mu", 1),)]) \
            is Fraction
        assert Coeff.monomial(2, {"mu": 1}).inverse().terms == \
            {(("mu", -1),): Fraction(1, 2)}
        (r,) = Coeff.monomial(Fraction(1, 3), {"mu": 1}).inverse().terms.values()
        assert type(r) is int and r == 3

    @pytest.mark.parametrize("make", [
        lambda: Coeff.rational(0.1),
        lambda: Coeff.monomial(0.5, {"mu": 1}),
        lambda: jacobi_coefficients(0.5, 0, 0),
    ], ids=["rational", "monomial", "jacobi"])
    def test_floats_rejected(self, make):
        with pytest.raises(DomainError, match="not an exact rational"):
            make()

    def test_zero_inputs_raise_typed_errors(self):
        with pytest.raises(DomainError, match="zero polynomial has no lead word"):
            NCPolynomial.zero().lead_word()
        with pytest.raises(DomainError, match="zero coefficient is not invertible"):
            Coeff.zero().inverse()

    def test_mu_shift_detection(self):
        a = W((1, 2), MU_C * ZETA_C + Coeff.monomial(2, {"mu": 3})) + W((3,))
        b = W((1, 2), ZETA_C + Coeff.monomial(2, {"mu": 2})) + W((3,), MU_INV)
        assert a.mu_shift_from(b) == 1
        assert b.mu_shift_from(a) == -1
        assert a.mu_shift_from(a + W((1, 2))) is None
        assert a.mu_shift_from(a + W((4,))) is None
        assert a.mu_shift_from(NCPolynomial.zero()) is None
        assert NCPolynomial.zero().mu_shift_from(a) is None
        assert NCPolynomial.zero().mu_shift_from(NCPolynomial.zero()) == 0

    @settings(max_examples=60, deadline=None)
    @given(p=poly_st(max_terms=4).filter(bool), k=st.integers(-3, 3))
    def test_mu_shift_of_a_scaled_polynomial(self, p, k):
        assert p.scale(Coeff.monomial(1, {"mu": k})).mu_shift_from(p) == k


class TestBuildSystems:
    def test_relation_counts(self):
        for kind in ("torus_eq2", "sklyanin_eq9", "generic_eq10", "torus_eq13",
                     "sklyanin_eq14", "scaled_eq17", "reduced_eq16", "reduced_eq18"):
            assert len(build_system(kind).relations) == 6, kind

    def test_eq13_first_rule(self):
        eq13 = build_system("torus_eq13")
        rel = eq13.relations[0]
        assert rel.lhs_words == ((3, 1),)
        assert rel.rhs == W((1, 3), ZETA_C)

    def test_eq14_scalings(self):
        eq14 = build_system("sklyanin_eq14")
        assert eq14.relations[1].rhs == W((2, 4), MU_INV * ZETA_C)
        assert eq14.relations[2].rhs == W((1, 4), MU_C * ZETA_INV)

    def test_eq17_unit_rules(self):
        eq17 = build_system("scaled_eq17")
        unit = [r for r in eq17.rewrites
                if all(len(w) == 0 for w in r.rhs.terms)]
        assert len(unit) == 4
        assert all(r.rhs == NCPolynomial.unit(MU_INV) for r in unit)

    def test_orientation_enforced(self):
        from quadexp.sklyanin import RewriteRule
        with pytest.raises(DomainError):
            RewriteRule((1,), W((1, 2)), "x1")


class TestReduce:
    def test_eq13_scaling(self):
        assert reduce(W((3, 1)), rules("torus_eq13")) == W((1, 3), ZETA_C)

    def test_eq17_unit(self):
        assert reduce(W((2, 1)), rules("scaled_eq17")) == \
            NCPolynomial.unit(MU_INV)

    def test_empty_word_irreducible(self):
        for kind in ("torus_eq13", "scaled_eq17"):
            assert reduce(NCPolynomial.unit(), rules(kind)) == \
                NCPolynomial.unit()

    def test_three_letter_chain(self):
        # x3 x1 x4 -> zeta x1 under both the scaled and the reduced systems
        expected = W((1,), ZETA_C)
        assert reduce(W((3, 1, 4)), rules("scaled_eq17")) == expected
        assert reduce(W((3, 1, 4)), rules("reduced_eq18")) == expected

    def test_trace_schema(self):
        trace = []
        reduce(W((3, 1, 4)), rules("scaled_eq17"), trace=trace)
        assert trace, "expected at least one rewrite step"
        blob = trace[0].to_json()
        assert set(blob) == {"rule", "position", "before", "after"}
        assert isinstance(blob["before"], str)

    def test_deterministic(self):
        p = W((3, 1, 4)) + W((4, 2, 3), MU_C)
        sys17 = rules("scaled_eq17")
        assert reduce(p, sys17) == reduce(p, sys17)


_KINDS = ("torus_eq2", "sklyanin_eq9", "generic_eq10", "torus_eq13",
          "sklyanin_eq14", "scaled_eq17", "reduced_eq16", "reduced_eq18")
_LEMMA2_KINDS = ("torus_eq13", "scaled_eq17", "reduced_eq18")


def remark1_premises():
    eq2 = build_system("torus_eq2")
    return RelationSystem(
        "eq2_lines_1_5_6", [eq2.relations[0], eq2.relations[4], eq2.relations[5]])


@pytest.fixture(scope="module")
def oracle_systems():
    """The rules of every built system, and the completed rules of the
    remark1 premises and of the lemma2 systems; "eq13+eq17" lists two rules
    for each left word, so the first of them must win."""
    return {**{kind: rules(kind) for kind in _KINDS},
            "remark1": complete(remark1_premises()).rules,
            **{f"lemma2.{kind}": completed(kind).rules for kind in _LEMMA2_KINDS},
            "eq13+eq17": rules("torus_eq13") + rules("scaled_eq17")}


class TestReduceOracle:
    @pytest.mark.parametrize("name", [*_KINDS, "remark1",
                                      *(f"lemma2.{k}" for k in _LEMMA2_KINDS),
                                      "eq13+eq17"])
    @settings(max_examples=30, deadline=None)
    @given(p=poly_st(max_terms=4, max_len=5), q=poly_st(max_terms=4, max_len=5))
    def test_matches_scanning_reference(self, oracle_systems, name, p, q):
        rule_list = oracle_systems[name]
        trace = []
        nf, ref = reduce(p, rule_list, trace), reduce_reference(p, rule_list)
        assert nf == ref and nf.to_json() == ref.to_json()
        assert reduce(p, rule_list) == ref
        check_certificate(p, rule_list, trace, nf)
        # a traced walk through an index that memoized q's words, which
        # may hold some of p's and not others
        index = sklyanin._RuleIndex(rule_list)
        index.normal_form(q)
        warm_trace = []
        warm = index.normal_form(p, warm_trace)
        assert warm == ref and warm.to_json() == ref.to_json()
        check_certificate(p, rule_list, warm_trace, warm)
        assert warm_trace == trace

    def test_memo_does_not_outlive_a_rule(self):
        # x4 x1 -> x3 x1 is memoized; x3 x1 -> x1 x3 then rewrites a word
        # of that normal form, so the index must forget it
        index = sklyanin._RuleIndex(
            [sklyanin.RewriteRule((4,), W((3,)), "x4")])
        assert index.normal_form(W((4, 1))) == W((3, 1))
        assert (4, 1) in index.normal_forms
        swap = sklyanin.RewriteRule((3, 1), W((1, 3), ZETA_C), "x3x1")
        index.add(swap)
        fresh = sklyanin._RuleIndex(
            [sklyanin.RewriteRule((4,), W((3,)), "x4"), swap])
        assert index.normal_form(W((4, 1))) == \
            fresh.normal_form(W((4, 1))) == W((1, 3), ZETA_C)


class TestCompleteOracle:
    @pytest.mark.parametrize("kind", [*_KINDS, "remark1"])
    def test_matches_reference(self, kind):
        system = remark1_premises() if kind == "remark1" else build_system(kind)
        comp = complete(system)
        ref_rules, ref_findings = complete_reference(system)
        assert [(r.lhs, r.rhs, r.name) for r in comp.rules] == \
            [(r.lhs, r.rhs, r.name) for r in ref_rules]
        assert [f.to_json() for f in comp.findings] == \
            [f.to_json() for f in ref_findings]
        # the index grown during completion is that of the sorted rules
        fresh = sklyanin._RuleIndex(comp.rules)
        assert comp.index.by_lhs == fresh.by_lhs
        assert comp.index.lengths == fresh.lengths


def _unnamed_overlaps(comp) -> list:
    """The unjoined critical pairs of comp's final rules that no
    ``nonconfluent`` finding names with the same word and rules."""
    named = {(f.word, frozenset((f.rule_a, f.rule_b)))
             for f in comp.nonconfluent}
    return [(w, names) for w, names in unjoined_overlaps(comp)
            if (sklyanin.word_str(w), frozenset(names)) not in named]


def _system(rels) -> RelationSystem:
    """One relation per (left word, right side) pair."""
    return RelationSystem("s", [sklyanin.Relation((lhs,), rhs) for lhs, rhs in rels])


# ordered overlaps of the final rules that the completion leaves unjoined
_UNJOINED = {"scaled_eq17": 8, "reduced_eq18": 66}


class TestCriticalPairs:
    """The critical-pair lemma of Knuth-Bendix completion: the final rules
    are locally confluent except where ``complete`` says they are not."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_unjoined_overlap_is_named(self, kind):
        comp = complete(build_system(kind))
        assert len(unjoined_overlaps(comp)) == _UNJOINED.get(kind, 0)
        assert _unnamed_overlaps(comp) == []

    def test_raw_rules_leave_overlaps_unnamed(self):
        # the control: the rules of reduced_eq16 before completion, with no
        # findings, leave overlaps that completion joins, and none is named
        system = build_system("reduced_eq16")
        rules = system.rewrites
        raw = sklyanin.CompletedSystem(system, rules, [],
                                       sklyanin._RuleIndex(rules))
        assert len(_unnamed_overlaps(raw)) == len(unjoined_overlaps(raw)) == 20

    def test_overlap_words_match_reference(self):
        # every ordered pair of words of length 1-4 over x1..x3: the same
        # (word, position, position) triples, each once; a rule paired with
        # itself has each mirrored gluing once and no inclusion
        words = [w for n in range(1, 5)
                 for w in itertools.product((1, 2, 3), repeat=n)]
        distinct = 0
        for l1 in words:
            for l2 in words:
                ref = overlaps_reference(l1, l2, False)
                assert sorted(sklyanin._overlap_words(l1, l2, False)) == sorted(ref)
                distinct += len(ref) if l1 != l2 else 0
            mirrored = {(w, min(pa, pb), max(pa, pb))
                        for w, pa, pb in overlaps_reference(l1, l1, True)}
            assert sorted(sklyanin._overlap_words(l1, l1, True)) == sorted(mirrored)
        assert distinct == 13860

    def test_equal_left_words_are_a_critical_pair(self):
        # x2x1 -> 1 and x2x1 -> x1x3 give x1x3 -> 1; the index keeps only
        # the first rule for x2x1, so a completion that skips the pair
        # leaves it unjoined
        comp = complete(_system([((2, 1), NCPolynomial.unit()),
                                 ((2, 1), W((1, 3)))]))
        assert len(comp.rules) == 5
        assert not comp.nonconfluent
        assert unjoined_overlaps(comp) == []
        assert reduce(W((1, 3)), comp.rules) == NCPolynomial.unit()

    def test_invertible_constant_resolvent_is_unit_ideal(self):
        # x2x1 -> 1 and x1x1 -> 0 give x1 -> 0, so 1 = x2x1 = 0
        comp = complete(_system([((2, 1), NCPolynomial.unit()),
                                 ((1, 1), NCPolynomial.zero())]))
        assert [f.status for f in comp.nonconfluent] == ["unit_ideal"]
        assert comp.findings[-1].status == "unit_ideal"
        assert all(r.lhs for r in comp.rules)

    def test_census_claims_no_false_confluence(self):
        # 300 seeded systems of 2-3 rules over x1..x3 with left words of
        # length 2-3; each right side is 0 or one deglex-smaller word (the
        # empty word included) with coefficient +-1. Right sides of one
        # word keep normal forms small: two-word right sides make them grow
        # without bound, which this census does not cover.
        rng = random.Random(1)
        words = [w for n in range(4) for w in itertools.product((1, 2, 3), repeat=n)]
        claims = 0
        for _ in range(300):
            rels = []
            for _ in range(rng.randint(2, 3)):
                lhs = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(2, 3)))
                smaller = [w for w in words if deglex_key(w) < deglex_key(lhs)]
                rhs = (W(rng.choice(smaller), Coeff.rational(rng.choice((1, -1))))
                       if rng.randint(0, 1) else NCPolynomial.zero())
                rels.append((lhs, rhs))
            comp = complete(_system(rels))
            if not comp.nonconfluent:
                claims += 1
                assert unjoined_overlaps(comp) == [], comp.system.relations
        assert claims == 245



class TestBounds:
    def test_step_bound(self, monkeypatch):
        trace = []
        reduce(W((3, 1, 4)), rules("scaled_eq17"), trace)
        assert len(trace) == 2
        monkeypatch.setattr(sklyanin, "STEP_BOUND", 1)
        with pytest.raises(StepBoundExceeded, match="within 1 steps"):
            reduce(W((3, 1, 4)), rules("scaled_eq17"))

    def test_certificate_bound(self, monkeypatch):
        # the words are memoized, so an untraced walk performs no rewrite,
        # but a traced one rewrites both and meets the bound
        index = sklyanin._RuleIndex(rules("scaled_eq17"))
        nf = index.normal_form(W((3, 1, 4)))
        monkeypatch.setattr(sklyanin, "STEP_BOUND", 1)
        assert index.normal_form(W((3, 1, 4))) == nf
        with pytest.raises(StepBoundExceeded, match="within 1 steps"):
            index.normal_form(W((3, 1, 4)), [])

    @pytest.mark.parametrize("traced", [False, True], ids=["memo", "traced"])
    def test_deep_chain(self, traced):
        # x4^n takes 3n rewrites, one word deep each: 900 reach x1^300, and
        # 12000 pass STEP_BOUND without exhausting the Python stack
        chain = [sklyanin.RewriteRule((4,), W((3,)), "x4"),
                 sklyanin.RewriteRule((3,), W((2,)), "x3"),
                 sklyanin.RewriteRule((2,), W((1,)), "x2")]
        trace = [] if traced else None
        assert reduce(W((4,) * 300), chain, trace) == W((1,) * 300)
        if traced:
            assert len(trace) == 900
            check_certificate(W((4,) * 300), chain, trace, W((1,) * 300))
        with pytest.raises(StepBoundExceeded, match="within 10000 steps"):
            reduce(W((4,) * 4000), chain, [] if traced else None)

    def test_rule_bound(self, monkeypatch):
        system = build_system("reduced_eq18")
        assert len(system.rewrites) == 8
        assert len(complete(system).rules) == 16
        monkeypatch.setattr(sklyanin, "MAX_RULES", 10)
        with pytest.raises(StepBoundExceeded, match="exceeded 10 rules"):
            complete(system)


class TestCheckDerivation:
    def setup_method(self):
        eq2 = build_system("torus_eq2")
        self.premises = complete(RelationSystem(
            "eq2_156", [eq2.relations[0], eq2.relations[4], eq2.relations[5]]))

    def test_derives_line3(self):
        res = check_derivation(self.premises, W((4, 1)), W((1, 4), ZETA_INV))
        assert res.ok
        assert not res.normal_form

    def test_derives_line2_and_line4(self):
        assert check_derivation(self.premises, W((4, 2)), W((2, 4), ZETA_C)).ok
        assert check_derivation(self.premises, W((3, 2)), W((2, 3), ZETA_INV)).ok

    def test_worked_intermediate(self):
        res = check_derivation(self.premises, W((2, 3, 1, 4)),
                               NCPolynomial.unit(ZETA_C))
        assert res.ok

    def test_failure_without_units(self):
        eq14 = build_system("sklyanin_eq14")
        res = check_derivation(complete(eq14), W((2, 1)),
                               NCPolynomial.unit(MU_INV))
        assert not res.ok
        assert res.normal_form

    def test_certificate_soundness(self):
        lhs, rhs = W((4, 1)), W((1, 4), ZETA_INV)
        res = check_derivation(self.premises, lhs, rhs)
        assert res.trace
        check_certificate(lhs - rhs, self.premises.rules, res.trace,
                          res.normal_form)

    @pytest.mark.parametrize("corrupt", ["position", "rule", "dropped"])
    def test_corrupt_certificate_rejected(self, corrupt):
        lhs, rhs = W((2, 3, 1, 4)), NCPolynomial.unit(ZETA_C)
        res = check_derivation(self.premises, lhs, rhs)
        assert len(res.trace) == 3
        names = {r.name for r in self.premises.rules}
        for i, step in enumerate(res.trace):
            trace = list(res.trace)
            if corrupt == "dropped":
                del trace[i]
            elif corrupt == "position":
                trace[i] = dataclasses.replace(step, position=step.position + 1)
            else:
                other = min(names - {step.rule})
                trace[i] = dataclasses.replace(step, rule=other)
            with pytest.raises(AssertionError):
                check_certificate(lhs - rhs, self.premises.rules, trace,
                                  res.normal_form)

    @pytest.mark.parametrize("earlier", ["reduce", "systems_equivalent"])
    def test_certificate_of_memoized_words(self, earlier):
        # the index already holds the target's word normal forms, so a
        # reduction performs no rewrite; the certificate must list them
        if earlier == "reduce":
            comp = self.premises
            lhs, rhs = W((2, 3, 1, 4)), NCPolynomial.unit(ZETA_C)
            comp.index.normal_form(lhs - rhs)
        else:
            comp = completed("scaled_eq17")
            lhs, rhs = W((3, 1)), W((1, 3), MU_C * ZETA_C)
            systems_equivalent(completed("torus_eq13"), comp)
        assert (lhs - rhs).lead_word() in comp.index.normal_forms
        res = check_derivation(comp, lhs, rhs)
        assert res.ok and res.trace
        check_certificate(lhs - rhs, comp.rules, res.trace, res.normal_form)
        # the certificate an index that memoized none of the words gives
        assert res.trace == check_derivation(complete(comp.system),
                                             lhs, rhs).trace


def completed(kind):
    return complete(build_system(kind))


class TestSystemsEquivalent:
    def test_eq13_eq17_mod_unit_scale(self):
        v = systems_equivalent(completed("torus_eq13"), completed("scaled_eq17"))
        assert v.mod_unit_scale
        assert not v.strict  # mu-power discrepancies are real and reported
        assert all(c.mu_shift is not None for c in v.comparisons)

    def test_eq17_eq18_mod_unit_scale(self):
        v = systems_equivalent(completed("scaled_eq17"), completed("reduced_eq18"))
        assert v.mod_unit_scale

    def test_eq13_eq16_strict(self):
        v = systems_equivalent(completed("torus_eq13"), completed("reduced_eq16"))
        assert v.strict and v.mod_unit_scale

    def test_eq13_vs_unscaled_sklyanin_false(self):
        v = systems_equivalent(completed("torus_eq13"), completed("sklyanin_eq14"))
        assert not v.mod_unit_scale and not v.strict
        separating = {c.rule for c in v.separators}
        assert any("x2 x1" in s or ".5" in s for s in separating)

    def test_nonconfluence_reported_for_eq17(self):
        comp = complete(build_system("scaled_eq17"))
        assert comp.nonconfluent, "printed scaling forces unorientable pairs"


class TestInvolution:
    def test_involutive(self):
        mixed = W((3, 1, 4), ZETA_C) + W((2,), MU_C) + NCPolynomial.unit()
        assert star(star(mixed)) == mixed

    @settings(max_examples=40, deadline=None)
    @given(poly_st(), poly_st())
    def test_antimultiplicative(self, p, q):
        assert star(p * q) == star(q) * star(p)

    def test_eq11_constraints(self):
        by = star_invariance_constraints(build_system("generic_eq10"))
        assert by["q13"] == Coeff.monomial(1, {"q24~": -1})
        assert by["q24"] == Coeff.monomial(1, {"q13~": -1})
        assert by["q14"] == Coeff.monomial(1, {"q23~": -1})
        assert by["q23"] == Coeff.monomial(1, {"q14~": -1})
        assert by["q12"] == Coeff.monomial(1, {"q12~": 1})
        assert by["q34"] == Coeff.monomial(1, {"q34~": 1})
        assert len(by) == 6

    def test_duplicate_left_word_constrains_the_first_rule(self):
        # two rules for x3 x1: the constraints are those of the first,
        # the rule that the index keeps and every reduction uses
        q = {name: Coeff.monomial(1, {name: 1}) for name in ("q13", "q24", "q99")}
        system = RelationSystem("x", [
            sklyanin._rel([(3, 1)], W((1, 3), q["q13"])),
            sklyanin._rel([(4, 2)], W((2, 4), q["q24"])),
            sklyanin._rel([(3, 1)], W((1, 3), q["q99"]))])
        assert reduce(W((3, 1)), system.rewrites) == W((1, 3), q["q13"])
        assert star_invariance_constraints(system) == {
            "q13": Coeff.monomial(1, {"q24~": -1}),
            "q24": Coeff.monomial(1, {"q13~": -1})}

    def test_multi_term_rule_raises_typed_error(self):
        # x3 x1 -> zeta x1 x3 stars to a constraint on the rule for x4 x2,
        # whose right side has two terms and so no one coefficient
        system = RelationSystem("x", [
            sklyanin._rel([(3, 1)], W((1, 3), ZETA_C)),
            sklyanin._rel([(4, 2)], W((2, 4), ZETA_C) + W((1,), ONE))])
        with pytest.raises(DomainError, match=r"rule x\.2 \(x4 x2 -> .*\) has no "
                                              "single-term right side"):
            star_invariance_constraints(system)

    def test_eq12_collapse(self):
        q13 = MU_C * ZETA_C
        mapping = {"q13": q13, "q14": q13.conjugate(),
                   "q24": q13.conjugate().inverse(), "q23": q13.inverse(),
                   "q12": ONE, "q34": ONE}
        collapsed = substitute_coefficients(build_system("generic_eq10"), mapping)
        assert systems_identical(collapsed, build_system("sklyanin_eq9"))


class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(poly_st(), poly_st(), poly_st())
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=40, deadline=None)
    @given(poly_st(), poly_st(), poly_st())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (q + r) * p == q * p + r * p

    @settings(max_examples=40, deadline=None)
    @given(poly_st())
    def test_additive_group(self, p):
        assert p + (-p) == NCPolynomial.zero()
        assert p + NCPolynomial.zero() == p


class TestCoeffRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(coeff_sum_st(), coeff_sum_st(), coeff_sum_st())
    def test_mul_associative_and_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(coeff_sum_st(), coeff_sum_st(), coeff_sum_st())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (b + c) * a == b * a + c * a

    @settings(max_examples=60, deadline=None)
    @given(coeff_sum_st())
    def test_additive_group_and_zero(self, a):
        zero = Coeff.zero()
        assert a + (-a) == zero
        assert a + zero == a and zero + a == a
        assert a * zero == zero and not a * zero
        assert a * ONE == a

    @settings(max_examples=60, deadline=None)
    @given(coeff_sum_st(), coeff_sum_st())
    def test_conjugate_multiplicative_and_involutive(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a


def laurent_st(max_terms=3):
    """{monomial: Fraction} in mu, zeta and a generic symbol with its
    conjugate; integral and non-integral rationals, zeros included."""
    mono = st.dictionaries(st.sampled_from(["mu", "zeta", "q13", "q13~"]),
                           st.integers(-2, 2), max_size=3).map(
        lambda d: tuple(sorted((s, e) for s, e in d.items() if e)))
    return st.dictionaries(
        mono, st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=max_terms).map(lambda d: laurent_add({}, d))


def as_coeff(d):
    return sum((Coeff.monomial(r, dict(m)) for m, r in d.items()), Coeff.zero())


def assert_matches(c, ref):
    """c equals the all-Fraction Laurent polynomial ref, and hashes,
    serializes and prints as it."""
    twin = Coeff(ref)
    assert c == twin and hash(c) == hash(twin)
    assert c.to_json() == twin.to_json() and repr(c) == repr(twin)


class TestCoeffOracle:
    @settings(max_examples=80, deadline=None)
    @given(laurent_st(), laurent_st())
    def test_ring_operations(self, a, b):
        ca, cb = as_coeff(a), as_coeff(b)
        assert_matches(ca, a)
        assert_matches(ca + cb, laurent_add(a, b))
        assert_matches(ca - cb, laurent_add(a, laurent_neg(b)))
        assert_matches(ca * cb, laurent_mul(a, b))
        assert_matches(-ca, laurent_neg(a))
        assert_matches(ca.conjugate(), laurent_conjugate(a))

    @settings(max_examples=80, deadline=None)
    @given(laurent_st(max_terms=1).filter(bool))
    def test_monomial_inverse(self, a):
        assert_matches(as_coeff(a).inverse(), laurent_inverse(a))


@pytest.fixture(scope="module")
def suite_round():
    """One round of the four symbolic suites, counting the reductions and
    rewrite placements it makes and keeping the completions it builds and
    the derivations it checks, each as (completion, target difference,
    result)."""
    calls = {"normal_form": 0, "_apply_at": 0}
    completions = []
    derivations = []

    def counting(owner, name):
        inner = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return spy

    def keeping(system):
        completions.append(complete(system))
        return completions[-1]

    def recording(comp, lhs, rhs):
        derivations.append((comp, lhs - rhs, check_derivation(comp, lhs, rhs)))
        return derivations[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((sklyanin._RuleIndex, "normal_form"),
                            (sklyanin, "_apply_at")):
            mp.setattr(owner, name, counting(owner, name))
        mp.setattr(sklyanin, "complete", keeping)
        mp.setattr(symbolic, "check_derivation", recording)
        for suite in pipeline.SYMBOLIC_SUITES:
            assert all(c.passed for c in pipeline.verify_symbolic(suite))
    return calls, completions, derivations


class TestSuiteWork:
    def test_work_census(self, suite_round):
        # the reductions the suites make and the rewrites they place; a
        # change to the arithmetic alone leaves both counts as they are, and
        # a rewrite that several critical pairs share is placed once, and
        # the four derivations' traced walks place 6, each word's rewrite
        # once for both its normal form and its certificate entry
        calls, _, _ = suite_round
        assert calls == {"normal_form": 338, "_apply_at": 481}

    def test_rule_coefficients_are_ints(self, suite_round):
        # every coefficient the suites create is integral, so none of their
        # arithmetic runs on Fractions
        _, completions, _ = suite_round
        assert len(completions) == 4
        rationals = [r for comp in completions for rule in comp.rules
                     for c in rule.rhs.terms.values() for r in c.terms.values()]
        assert rationals and all(type(r) is int for r in rationals)

    def test_derivation_certificates(self, suite_round):
        # every derivation the suites check carries a certificate that the
        # oracle accepts
        _, _, derivations = suite_round
        assert len(derivations) == 4
        for comp, target, res in derivations:
            assert res.ok
            check_certificate(target, comp.rules, res.trace, res.normal_form)


class TestScaledUnitCollapse:
    def test_block_normal_forms_length4(self):
        sys17 = rules("scaled_eq17")
        for length in range(1, 5):
            for w in itertools.product((1, 2, 3, 4), repeat=length):
                nf = reduce(W(w), sys17)
                for word in nf.terms:
                    left = [g for g in word if g <= 2]
                    right = [g for g in word if g >= 3]
                    assert tuple(left + right) == word
                    assert len(set(left)) <= 1 and len(set(right)) <= 1

    def test_trace_mu_bookkeeping(self):
        # mu exponent of the scalar equals the sum of rule contributions
        sys17 = rules("scaled_eq17")
        rule_mu = {}
        for r in sys17:
            (rw, rc), = r.rhs.terms.items()
            (mono, _), = rc.terms.items()
            rule_mu[r.name] = dict(mono).get("mu", 0)
        for w in [(2, 1), (3, 1, 4), (2, 1, 4, 3), (3, 2, 4, 1)]:
            trace = []
            nf = reduce(W(w), sys17, trace=trace)
            applied = sum(rule_mu[t.rule] for t in trace)
            for word, c in nf.terms.items():
                (mono, _), = c.terms.items()
                assert dict(mono).get("mu", 0) == applied, w


class TestJacobi:
    def test_symmetric_point(self):
        j = jacobi_coefficients(Fraction(0), Fraction(0), Fraction(0))
        assert j.a_coeff == 1 and j.b_coeff == 1 and j.constraint_holds

    def test_declared_pole(self):
        with pytest.raises(PoleError):
            jacobi_coefficients(Fraction(1), Fraction(-1), Fraction(1, 2))
        with pytest.raises(PoleError):
            jacobi_coefficients(Fraction(1), Fraction(1, 2), Fraction(1))

    def test_rational_point(self):
        j = jacobi_coefficients(Fraction(1, 2), Fraction(-1, 5), Fraction(-1, 3))
        assert j.a_coeff == Fraction(5, 8)
        assert j.b_coeff == Fraction(9, 8)
        assert j.constraint_holds

    def test_constraint_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            j = jacobi_coefficients(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert not j.constraint_holds
        assert any(w.category is ConstraintViolated for w in caught)
