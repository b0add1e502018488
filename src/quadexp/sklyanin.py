"""Symbolic quadratic relation systems on the free *-algebra C<x1..x4>.

Coefficients are formal Laurent polynomials over Q in the scale symbol mu,
the phase symbol zeta (conjugation inverts it), and optionally the six
generic coefficients q12..q34 with their formal conjugates. Working with
formal coefficients makes every verified identity hold identically in the
parameters, which is stronger than any numeric specialization.

Rewriting is oriented by degree-lexicographic order with x1 < x2 < x3 < x4.
Bounded critical-pair saturation is available because several of the target
derivations are honest ideal-membership facts that single-step rewriting
cannot reach; unresolved or unorientable overlaps are reported, never
silently patched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolated, DomainError, PoleError, StepBoundExceeded

Word = tuple[int, ...]
Mono = tuple[tuple[str, int], ...]

MU = "mu"
ZETA = "zeta"

_CONJ_FIXED = {MU}


def _conj_symbol(name: str) -> str:
    if name in _CONJ_FIXED or name == ZETA:
        return name
    return name[:-1] if name.endswith("~") else name + "~"


class Coeff:
    """Formal Laurent polynomial in the coefficient symbols, over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, Fraction]):
        self.terms = {m: r for m, r in terms.items() if r != 0}

    @classmethod
    def rational(cls, r) -> "Coeff":
        r = Fraction(r)
        return cls({(): r} if r else {})

    @classmethod
    def monomial(cls, r, exps: dict[str, int]) -> "Coeff":
        mono = tuple(sorted((s, e) for s, e in exps.items() if e != 0))
        return cls({mono: Fraction(r)})

    @classmethod
    def zero(cls) -> "Coeff":
        return cls({})

    @classmethod
    def one(cls) -> "Coeff":
        return cls.rational(1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other):
        return isinstance(other, Coeff) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Coeff") -> "Coeff":
        t = dict(self.terms)
        for m, r in other.terms.items():
            t[m] = t.get(m, Fraction(0)) + r
        return Coeff(t)

    def __neg__(self) -> "Coeff":
        return Coeff({m: -r for m, r in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        t: dict[Mono, Fraction] = {}
        for m1, r1 in self.terms.items():
            d1 = dict(m1)
            for m2, r2 in other.terms.items():
                d = dict(d1)
                for s, e in m2:
                    d[s] = d.get(s, 0) + e
                mono = tuple(sorted((s, e) for s, e in d.items() if e != 0))
                t[mono] = t.get(mono, Fraction(0)) + r1 * r2
        return Coeff(t)

    def inverse(self) -> "Coeff":
        if len(self.terms) != 1:
            raise DomainError("only monomial coefficients are invertible")
        (mono, r), = self.terms.items()
        return Coeff({tuple((s, -e) for s, e in mono): Fraction(1) / r})

    def conjugate(self) -> "Coeff":
        t: dict[Mono, Fraction] = {}
        for m, r in self.terms.items():
            d: dict[str, int] = {}
            for s, e in m:
                if s == ZETA:
                    d[s] = d.get(s, 0) - e
                else:
                    cs = _conj_symbol(s)
                    d[cs] = d.get(cs, 0) + e
            mono = tuple(sorted((s, e) for s, e in d.items() if e != 0))
            t[mono] = t.get(mono, Fraction(0)) + r
        return Coeff(t)

    def mu_shift(self, k: int) -> "Coeff":
        if k == 0:
            return self
        t = {}
        for m, r in self.terms.items():
            d = dict(m)
            d[MU] = d.get(MU, 0) + k
            t[tuple(sorted((s, e) for s, e in d.items() if e != 0))] = r
        return Coeff(t)

    def mu_shift_from(self, other: "Coeff") -> int | None:
        """k with self == mu**k * other, or None."""
        if self.is_zero() and other.is_zero():
            return 0
        if self.is_zero() or other.is_zero() or len(self.terms) != len(other.terms):
            return None

        def strip(mono):
            return tuple((s, e) for s, e in mono if s != MU), dict(mono).get(MU, 0)

        mine = sorted((strip(m), r) for m, r in self.terms.items())
        theirs = sorted((strip(m), r) for m, r in other.terms.items())
        k = None
        for ((ms, me), mr), ((ts, te), tr) in zip(mine, theirs):
            if ms != ts or mr != tr:
                return None
            shift = me - te
            if k is None:
                k = shift
            elif k != shift:
                return None
        return k

    def to_json(self):
        out = []
        for m, r in sorted(self.terms.items()):
            d = dict(m)
            entry = {"r": f"{r.numerator}/{r.denominator}",
                     "mu": d.pop(MU, 0), "phase": d.pop(ZETA, 0)}
            if d:
                entry["symbols"] = d
            out.append(entry)
        return out if len(out) != 1 else out[0]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, r in sorted(self.terms.items()):
            bits = [] if r == 1 and m else [str(r)]
            for s, e in m:
                bits.append(s if e == 1 else f"{s}^{e}")
            parts.append("*".join(bits) or str(r))
        return " + ".join(parts)


ZETA_C = Coeff.monomial(1, {ZETA: 1})
ZETA_INV = Coeff.monomial(1, {ZETA: -1})
MU_C = Coeff.monomial(1, {MU: 1})
MU_INV = Coeff.monomial(1, {MU: -1})
ONE = Coeff.one()


def word_str(w: Word) -> str:
    return " ".join(f"x{i}" for i in w) if w else "e"


def deglex_key(w: Word):
    return (len(w), w)


class NCPolynomial:
    """Finite sum of words with Coeff coefficients; zero terms dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Coeff]):
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls({})

    @classmethod
    def unit(cls, coeff: Coeff = ONE) -> "NCPolynomial":
        return cls({(): coeff})

    @classmethod
    def word(cls, w: Word, coeff: Coeff = ONE) -> "NCPolynomial":
        return cls({tuple(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, Coeff.zero()) + c
        return NCPolynomial(t)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        t: dict[Word, Coeff] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prod = c1 * c2
                t[w] = t.get(w, Coeff.zero()) + prod
        return NCPolynomial(t)

    def scale(self, coeff: Coeff) -> "NCPolynomial":
        return NCPolynomial({w: c * coeff for w, c in self.terms.items()})

    def lead_word(self) -> Word:
        return max(self.terms, key=deglex_key)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def mu_shift_from(self, other: "NCPolynomial") -> int | None:
        """k with self == mu**k * other term-by-term, or None."""
        if set(self.terms) != set(other.terms):
            return None
        k = None
        for w, c in self.terms.items():
            shift = c.mu_shift_from(other.terms[w])
            if shift is None:
                return None
            if k is None:
                k = shift
            elif k != shift:
                return None
        return 0 if k is None else k

    def to_json(self):
        return [{"word": word_str(w), "coeff": c.to_json()}
                for w, c in sorted(self.terms.items(), key=lambda t: deglex_key(t[0]))]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"({c!r})*{word_str(w)}"
                 for w, c in sorted(self.terms.items(), key=lambda t: deglex_key(t[0]),
                                    reverse=True)]
        return " + ".join(parts)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NCPolynomial
    name: str = ""
    is_unit_rule: bool = False  # rhs supported on the empty word

    def __post_init__(self):
        for w in self.rhs.terms:
            if deglex_key(w) >= deglex_key(self.lhs):
                raise DomainError(
                    f"rule {word_str(self.lhs)} -> {self.rhs!r} is not oriented")

    def to_json(self):
        return {"lhs": word_str(self.lhs), "rhs": self.rhs.to_json(),
                "name": self.name}


@dataclass(frozen=True)
class Relation:
    """One display equation: several equal left words sharing a right side."""

    lhs_words: tuple[Word, ...]
    rhs: NCPolynomial

    def rewrites(self, name: str) -> list[RewriteRule]:
        unit = all(len(w) == 0 for w in self.rhs.terms)
        return [RewriteRule(w, self.rhs, name, unit) for w in self.lhs_words]


@dataclass
class RelationSystem:
    name: str
    relations: list[Relation]

    def __len__(self):
        return len(self.relations)

    @property
    def rewrites(self) -> list[RewriteRule]:
        out = []
        for i, rel in enumerate(self.relations):
            out.extend(rel.rewrites(f"{self.name}.{i + 1}"))
        return sorted(out, key=lambda r: deglex_key(r.lhs), reverse=True)

    def to_json(self):
        return {"name": self.name,
                "relations": [{"lhs": [word_str(w) for w in rel.lhs_words],
                               "rhs": rel.rhs.to_json()} for rel in self.relations]}


def _rel(lhs_words, rhs) -> Relation:
    return Relation(tuple(tuple(w) for w in lhs_words), rhs)


def _scaled_rows(c31: Coeff, c42: Coeff, c41: Coeff, c32: Coeff) -> list[Relation]:
    return [
        _rel([(3, 1)], NCPolynomial.word((1, 3), c31)),
        _rel([(4, 2)], NCPolynomial.word((2, 4), c42)),
        _rel([(4, 1)], NCPolynomial.word((1, 4), c41)),
        _rel([(3, 2)], NCPolynomial.word((2, 3), c32)),
    ]


def build_system(kind: str) -> RelationSystem:
    """Exact transcription of the named display, oriented left to right."""
    if kind in ("torus_eq2", "torus_eq13"):
        rows = _scaled_rows(ZETA_C, ZETA_C, ZETA_INV, ZETA_INV)
        rows.append(_rel([(2, 1), (1, 2)], NCPolynomial.unit()))
        rows.append(_rel([(4, 3), (3, 4)], NCPolynomial.unit()))
        return RelationSystem(kind, rows)
    if kind in ("sklyanin_eq9", "sklyanin_eq14"):
        rows = _scaled_rows(MU_C * ZETA_C, MU_INV * ZETA_C,
                            MU_C * ZETA_INV, MU_INV * ZETA_INV)
        rows.append(_rel([(2, 1)], NCPolynomial.word((1, 2))))
        rows.append(_rel([(4, 3)], NCPolynomial.word((3, 4))))
        return RelationSystem(kind, rows)
    if kind == "scaled_eq17":
        rows = _scaled_rows(MU_C * ZETA_C, MU_INV * ZETA_C,
                            MU_C * ZETA_INV, MU_INV * ZETA_INV)
        rows.append(_rel([(2, 1), (1, 2)], NCPolynomial.unit(MU_INV)))
        rows.append(_rel([(4, 3), (3, 4)], NCPolynomial.unit(MU_INV)))
        return RelationSystem(kind, rows)
    if kind == "generic_eq10":
        syms = {pair: Coeff.monomial(1, {f"q{pair[0]}{pair[1]}": 1})
                for pair in ((1, 3), (2, 4), (1, 4), (2, 3), (1, 2), (3, 4))}
        rows = _scaled_rows(syms[(1, 3)], syms[(2, 4)], syms[(1, 4)], syms[(2, 3)])
        rows.append(_rel([(2, 1)], NCPolynomial.word((1, 2), syms[(1, 2)])))
        rows.append(_rel([(4, 3)], NCPolynomial.word((3, 4), syms[(3, 4)])))
        return RelationSystem(kind, rows)
    if kind in ("reduced_eq16", "reduced_eq18"):
        unit_c = ONE if kind == "reduced_eq16" else MU_INV
        rows = [
            _rel([(3, 1, 4)], NCPolynomial.word((1,), ZETA_C)),
            _rel([(2, 4, 1)], NCPolynomial.word((4,), ZETA_INV)),
            _rel([(4, 1, 3)], NCPolynomial.word((1,), ZETA_INV)),
            _rel([(4, 2, 3)], NCPolynomial.word((2,), ZETA_C)),
            _rel([(2, 1), (1, 2)], NCPolynomial.unit(unit_c)),
            _rel([(4, 3), (3, 4)], NCPolynomial.unit(unit_c)),
        ]
        return RelationSystem(kind, rows)
    raise DomainError(f"unknown system kind: {kind}")


# -- rewriting ----------------------------------------------------------------


@dataclass
class TraceStep:
    rule: str
    position: int
    before: str
    after: list

    def to_json(self):
        return {"rule": self.rule, "position": self.position,
                "before": self.before, "after": self.after}


def _find_redex(word: Word, rules) -> tuple[int, RewriteRule] | None:
    """Leftmost position; among matches at a position, the longest lhs."""
    best = None
    for pos in range(len(word)):
        for rule in rules:
            l = len(rule.lhs)
            if word[pos:pos + l] == rule.lhs:
                if best is None or l > len(best[1].lhs):
                    best = (pos, rule)
        if best is not None:
            return best
    return None


def reduce(poly: NCPolynomial, system, step_bound: int = 10**4,
           trace: list | None = None) -> NCPolynomial:
    """Normal form under the system, leftmost-greatest strategy.

    system may be a RelationSystem or an explicit rule list (as produced by
    complete()). Deterministic; raises StepBoundExceeded rather than spin.
    """
    rules = system.rewrites if isinstance(system, RelationSystem) else list(system)
    current = poly
    for _ in range(step_bound):
        target = None
        for w in sorted(current.terms, key=deglex_key, reverse=True):
            hit = _find_redex(w, rules)
            if hit is not None:
                target = (w, current.terms[w], hit[0], hit[1])
                break
        if target is None:
            return current
        w, coeff, pos, rule = target
        prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
        replacement = NCPolynomial.word(prefix) * rule.rhs * NCPolynomial.word(suffix)
        current = current - NCPolynomial.word(w, coeff) + replacement.scale(coeff)
        if trace is not None:
            trace.append(TraceStep(rule.name, pos, word_str(w),
                                   replacement.scale(coeff).to_json()))
    raise StepBoundExceeded(f"no normal form within {step_bound} steps")


# -- bounded critical-pair saturation -------------------------------------------


@dataclass
class OverlapFinding:
    word: str
    rule_a: str
    rule_b: str
    status: str  # "joined" | "new_rule" | "unorientable" | "over_degree"
    detail: str = ""

    def to_json(self):
        return {"word": self.word, "rules": [self.rule_a, self.rule_b],
                "status": self.status, "detail": self.detail}


@dataclass
class CompletedSystem:
    rules: list[RewriteRule]
    findings: list[OverlapFinding]

    @property
    def nonconfluent(self) -> list[OverlapFinding]:
        return [f for f in self.findings
                if f.status in ("unorientable", "over_degree")]


def _overlap_words(l1: Word, l2: Word):
    """Nontrivial overlaps: suffix-prefix gluings and full containments."""
    out = set()
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            out.add(l1 + l2[k:])
        if l2[-k:] == l1[:k]:
            out.add(l2 + l1[k:])
    if len(l1) < len(l2):
        for pos in range(len(l2) - len(l1) + 1):
            if l2[pos:pos + len(l1)] == l1:
                out.add(l2)
    elif len(l2) < len(l1):
        for pos in range(len(l1) - len(l2) + 1):
            if l1[pos:pos + len(l2)] == l2:
                out.add(l1)
    return sorted(out, key=deglex_key)


def _apply_at(word: Word, pos: int, rule: RewriteRule) -> NCPolynomial:
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    return NCPolynomial.word(prefix) * rule.rhs * NCPolynomial.word(suffix)


def complete(system: RelationSystem, degree_bound: int = 6,
             step_bound: int = 10**4, max_rules: int = 300) -> CompletedSystem:
    """Bounded Knuth-Bendix style saturation of the oriented rules.

    New rules only join critical pairs whose resolvent has monomial leading
    coefficient and lead word within degree_bound; everything else becomes a
    reported finding. Every added rule is an exact consequence of the input
    ideal (each critical pair is formed from two rewrites of one word).
    """
    rules = list(system.rewrites)
    findings: list[OverlapFinding] = []
    queue: list[tuple[Word, int, int]] = []

    def enqueue_pairs(idx):
        for j in range(len(rules)):
            for w in _overlap_words(rules[idx].lhs, rules[j].lhs):
                queue.append((w, idx, j))

    for i in range(len(rules)):
        for j in range(i, len(rules)):
            for w in _overlap_words(rules[i].lhs, rules[j].lhs):
                queue.append((w, i, j))
    queue.sort(key=lambda t: (deglex_key(t[0]), t[1], t[2]))

    seen = set()
    qi = 0
    while qi < len(queue):
        w, ia, ib = queue[qi]
        qi += 1
        key = (w, rules[ia].lhs, rules[ib].lhs)
        if key in seen:
            continue
        seen.add(key)
        ra, rb = rules[ia], rules[ib]
        # locate actual positions of both lhs inside w
        pos_a = _find_sub(w, ra.lhs)
        pos_b = _find_sub(w, rb.lhs, prefer_late=True)
        if pos_a is None or pos_b is None:
            continue
        nf1 = reduce(_apply_at(w, pos_a, ra), rules, step_bound)
        nf2 = reduce(_apply_at(w, pos_b, rb), rules, step_bound)
        if nf1 == nf2:
            findings.append(OverlapFinding(word_str(w), ra.name, rb.name, "joined"))
            continue
        g = nf1 - nf2
        lead = g.lead_word()
        lead_coeff = g.terms[lead]
        if not lead_coeff.is_monomial():
            findings.append(OverlapFinding(
                word_str(w), ra.name, rb.name, "unorientable",
                f"lead {word_str(lead)} has non-invertible coefficient {lead_coeff!r}"))
            continue
        if len(lead) > degree_bound:
            findings.append(OverlapFinding(
                word_str(w), ra.name, rb.name, "over_degree",
                f"lead {word_str(lead)} exceeds degree {degree_bound}"))
            continue
        rest = NCPolynomial({u: c for u, c in g.terms.items() if u != lead})
        rhs = (-rest).scale(lead_coeff.inverse())
        new_rule = RewriteRule(lead, rhs, f"{system.name}.cp{len(rules) + 1}",
                               all(len(u) == 0 for u in rhs.terms))
        rules.append(new_rule)
        findings.append(OverlapFinding(word_str(w), ra.name, rb.name, "new_rule",
                                       f"{word_str(lead)} -> {rhs!r}"))
        if len(rules) > max_rules:
            raise StepBoundExceeded(f"completion exceeded {max_rules} rules")
        enqueue_pairs(len(rules) - 1)
        queue[qi:] = sorted(queue[qi:], key=lambda t: (deglex_key(t[0]), t[1], t[2]))
    rules.sort(key=lambda r: deglex_key(r.lhs), reverse=True)
    return CompletedSystem(rules, findings)


def _find_sub(w: Word, sub: Word, prefer_late: bool = False):
    positions = [p for p in range(len(w) - len(sub) + 1)
                 if w[p:p + len(sub)] == sub]
    if not positions:
        return None
    return positions[-1] if prefer_late else positions[0]


# -- derivation and equivalence checking ----------------------------------------


@dataclass
class DerivationResult:
    ok: bool
    normal_form: NCPolynomial
    trace: list[TraceStep]
    completion_findings: list[OverlapFinding]

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok,
                "normal_form": self.normal_form.to_json(),
                "trace": [t.to_json() for t in self.trace],
                "completion": [f.to_json() for f in self.completion_findings]}


def check_derivation(premises: RelationSystem, lhs: NCPolynomial,
                     rhs: NCPolynomial, degree_bound: int = 6,
                     step_bound: int = 10**4) -> DerivationResult:
    """Does lhs = rhs follow from the premises (bounded ideal membership)?

    The premises are saturated by bounded critical pairs first; the target
    difference must then rewrite to zero. The trace plus the completion
    findings form a machine-checkable certificate.
    """
    comp = complete(premises, degree_bound, step_bound)
    trace: list[TraceStep] = []
    nf = reduce(lhs - rhs, comp.rules, step_bound, trace)
    return DerivationResult(nf.is_zero(), nf, trace, comp.findings)


@dataclass
class RuleComparison:
    rule: str
    lhs_nf: NCPolynomial
    rhs_nf: NCPolynomial
    equal: bool
    mu_shift: int | None

    def to_json(self):
        return {"rule": self.rule, "equal": self.equal, "mu_shift": self.mu_shift,
                "lhs_nf": self.lhs_nf.to_json(), "rhs_nf": self.rhs_nf.to_json()}


@dataclass
class EquivalenceVerdict:
    """systems_equivalent outcome.

    strict: every defining relation of each system has both sides reducing
    to the same normal form under the other system. mod_unit_scale: the
    same up to one uniform power of mu per relation, the operative sense
    of working modulo the scaled unit relation. Discrepancies and
    non-confluent overlaps are carried as findings.
    """

    system_a: str
    system_b: str
    strict: bool
    mod_unit_scale: bool
    comparisons: list[RuleComparison]
    separators: list[RuleComparison]
    nonconfluent: list[OverlapFinding]

    def __bool__(self):
        return self.mod_unit_scale

    def to_json(self):
        return {"system_a": self.system_a, "system_b": self.system_b,
                "strict": self.strict, "mod_unit_scale": self.mod_unit_scale,
                "separators": [s.to_json() for s in self.separators],
                "nonconfluent": [f.to_json() for f in self.nonconfluent]}


def _compare_direction(sys_a: RelationSystem, comp_b: CompletedSystem,
                       step_bound: int):
    out = []
    for i, rel in enumerate(sys_a.relations):
        targets = [NCPolynomial.word(w) for w in rel.lhs_words] + [rel.rhs]
        nfs = [reduce(t, comp_b.rules, step_bound) for t in targets]
        base = nfs[-1]
        for w, nf in zip(rel.lhs_words, nfs[:-1]):
            shift = nf.mu_shift_from(base)
            out.append(RuleComparison(f"{sys_a.name}.{i + 1}[{word_str(w)}]",
                                      nf, base, nf == base, shift))
    return out


def systems_equivalent(a: RelationSystem, b: RelationSystem,
                       degree_bound: int = 6,
                       step_bound: int = 10**4) -> EquivalenceVerdict:
    """Mutual bounded reduction of the defining relations, both senses.

    strict requires exact normal-form equality in both directions;
    mod_unit_scale additionally accepts a uniform mu-power discrepancy
    per relation, which
    is exactly what quotienting by the scaled unit relation absorbs. The
    verdict carries the separating relations and all non-confluent overlap
    findings rather than hiding them.
    """
    comp_a = complete(a, degree_bound, step_bound)
    comp_b = complete(b, degree_bound, step_bound)
    comps = _compare_direction(a, comp_b, step_bound) + \
        _compare_direction(b, comp_a, step_bound)
    strict = all(c.equal for c in comps)
    mod_unit_scale = all(c.mu_shift is not None for c in comps)
    separators = [c for c in comps if c.mu_shift is None]
    return EquivalenceVerdict(a.name, b.name, strict, mod_unit_scale,
                              comps, separators,
                              comp_a.nonconfluent + comp_b.nonconfluent)


# -- involution ------------------------------------------------------------------


@dataclass(frozen=True)
class Involution:
    """The star structure x1 <-> x2, x3 <-> x4 with coefficient conjugation."""

    pairing: tuple[tuple[int, int], ...] = ((1, 2), (3, 4))

    def _map(self) -> dict[int, int]:
        m = {}
        for i, j in self.pairing:
            m[i] = j
            m[j] = i
        return m

    def apply_word(self, w: Word) -> Word:
        m = self._map()
        return tuple(m[g] for g in reversed(w))

    def apply(self, poly: NCPolynomial) -> NCPolynomial:
        t: dict[Word, Coeff] = {}
        for w, c in poly.terms.items():
            ws = self.apply_word(w)
            t[ws] = t.get(ws, Coeff.zero()) + c.conjugate()
        return NCPolynomial(t)


@dataclass
class StarConstraint:
    """Required coefficient identity for star-invariance of one relation."""

    lhs_symbol: str
    required: Coeff  # the coefficient forced on lhs_symbol by the involution

    def to_json(self):
        return {"symbol": self.lhs_symbol, "required": self.required.to_json()}

    def __repr__(self):
        return f"{self.lhs_symbol} = {self.required!r}"


def star_invariance_constraints(system: RelationSystem,
                                inv: Involution) -> list[StarConstraint]:
    """Conditions on the coefficients making the relations star-invariant.

    Each rule x_i x_j = c x_j x_i is starred and re-oriented; the resulting
    coefficient must agree with the system's own rule for that left side.
    """
    rules = {r.lhs: r for r in system.rewrites}
    constraints = []
    for rule in system.rewrites:
        if len(rule.lhs) != 2 or len(rule.rhs.terms) != 1:
            continue
        (rhs_word, coeff), = rule.rhs.terms.items()
        if len(rhs_word) != 2:
            continue
        lhs_star = inv.apply_word(rule.lhs)
        rhs_star = inv.apply_word(rhs_word)
        c_star = coeff.conjugate()
        # starred equation: lhs_star = c_star * rhs_star
        if deglex_key(lhs_star) > deglex_key(rhs_star):
            target, required = lhs_star, c_star
        else:
            target, required = rhs_star, c_star.inverse()
        own = rules.get(target)
        if own is None:
            raise DomainError(f"no rule with left side {word_str(target)}")
        (own_word, own_coeff), = own.rhs.terms.items()
        sym = _single_symbol(own_coeff)
        constraints.append(StarConstraint(sym, required))
    return constraints


def _single_symbol(c: Coeff) -> str:
    if len(c.terms) == 1:
        (mono, r), = c.terms.items()
        if r == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
    return repr(c)


def substitute_coefficients(system: RelationSystem,
                            mapping: dict[str, Coeff]) -> RelationSystem:
    """Replace coefficient symbols by concrete Coeff values."""

    def sub_coeff(c: Coeff) -> Coeff:
        out = Coeff.zero()
        for mono, r in c.terms.items():
            term = Coeff.rational(r)
            for s, e in mono:
                base = mapping.get(s)
                if base is None and s.endswith("~"):
                    root = mapping.get(s[:-1])
                    if root is not None:
                        base = root.conjugate()
                if base is None:
                    base = Coeff.monomial(1, {s: 1})
                for _ in range(abs(e)):
                    term = term * (base if e > 0 else base.inverse())
            out = out + term
        return out

    rels = [Relation(rel.lhs_words,
                     NCPolynomial({w: sub_coeff(c)
                                   for w, c in rel.rhs.terms.items()}))
            for rel in system.relations]
    return RelationSystem(f"{system.name}|subst", rels)


def systems_identical(a: RelationSystem, b: RelationSystem) -> bool:
    """Same oriented rewrite rules, order-insensitively."""
    ka = {(r.lhs, r.rhs) for r in a.rewrites}
    kb = {(r.lhs, r.rhs) for r in b.rewrites}
    return ka == kb


# -- Jacobi form coefficients ------------------------------------------------------


@dataclass
class JacobiCoefficients:
    a_coeff: object  # Fraction or symbolic expression
    b_coeff: object
    constraint_value: object
    constraint_holds: bool

    def to_json(self):
        return {"A": str(self.a_coeff), "B": str(self.b_coeff),
                "constraint_holds": self.constraint_holds}


def _is_zero_exact(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 0
    try:
        import sympy
        return bool(sympy.simplify(v) == 0)
    except ImportError:  # pragma: no cover
        return v == 0


def jacobi_coefficients(alpha, beta, gamma) -> JacobiCoefficients:
    """Quadric coefficients A = (1-alpha)/(1+beta), B = (1+alpha)/(1-gamma).

    Exact rational (or symbolic) arithmetic; the surface constraint
    alpha + beta + gamma + alpha*beta*gamma = 0 is checked and reported,
    violating it only warns since the map itself stays well defined.
    """
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if isinstance(beta, int):
        beta = Fraction(beta)
    if isinstance(gamma, int):
        gamma = Fraction(gamma)
    if _is_zero_exact(beta + 1):
        raise PoleError("beta = -1 is a pole of the first coefficient")
    if _is_zero_exact(1 - gamma):
        raise PoleError("gamma = 1 is a pole of the second coefficient")
    constraint = alpha + beta + gamma + alpha * beta * gamma
    holds = _is_zero_exact(constraint)
    if not holds:
        warnings.warn(f"surface constraint violated: {constraint} != 0",
                      ConstraintViolated, stacklevel=2)
    return JacobiCoefficients((1 - alpha) / (1 + beta),
                              (1 + alpha) / (1 - gamma),
                              constraint, holds)
