"""Symbolic quadratic relation systems on the free *-algebra C<x1..x4>.

Coefficients are formal Laurent polynomials over Q in the scale symbol mu,
the phase symbol zeta (conjugation inverts it), and optionally the six
generic coefficients q12..q34 with their formal conjugates. Their rational
coefficients are exact: int when integral, Fraction otherwise, and floats
are rejected. Working with formal coefficients makes every verified
identity hold identically in the parameters, which is stronger than any
numeric specialization. Coeff and
NCPolynomial are both sparse sums over one private base, ``_Sum``, which
holds their arithmetic; each adds only how its keys multiply (exponent
addition for monomials, concatenation for words) and its own methods.

Rewriting is oriented by degree-lexicographic order with x1 < x2 < x3 < x4.
Bounded critical-pair saturation is available because several of the target
derivations are honest ideal-membership facts that single-step rewriting
cannot reach; unresolved or unorientable overlaps are reported, never
silently patched.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConstraintViolated, DomainError, PoleError, StepBoundExceeded

Word = tuple[int, ...]
Mono = tuple[tuple[str, int], ...]

MU = "mu"
ZETA = "zeta"

DEGREE_BOUND = 6  # longest lead word of a rule that completion adds
# rewrites one reduction's walk may perform; untraced, a word whose
# normal form is memoized costs none
STEP_BOUND = 10**4
MAX_RULES = 300  # rules one completion may hold

_CONJ_FIXED = {MU}


def _conj_symbol(name: str) -> str:
    if name in _CONJ_FIXED:
        return name
    return name[:-1] if name.endswith("~") else name + "~"


def _rational(r) -> int | Fraction:
    """r as an exact rational: int when integral, Fraction otherwise.

    A float is rejected, because a binary float is not the rational it
    was written as (0.1 is 3602879701896397/36028797018963968).
    """
    if isinstance(r, Fraction):
        return r.numerator if r.denominator == 1 else r
    if isinstance(r, int):
        return int(r)
    raise DomainError(f"{r!r} is not an exact rational (int or Fraction)")


def _mono(exps: dict[str, int]) -> Mono:
    """The monomial of symbol exponents, in normal form: sorted, no zeros."""
    return tuple(sorted((s, e) for s, e in exps.items() if e != 0))


class _Sum:
    """A finite sum {key: coefficient} with zero coefficients dropped.

    The arithmetic shared by Coeff (monomials over exact rationals: int
    when integral, Fraction otherwise) and NCPolynomial (words over Coeffs);
    a subclass gives ``_key_mul``, the product of two keys. Neither ring has
    zero divisors, so a negation or a product of one term by one term is
    built without dropping zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def _nonzero(cls, terms: dict):
        """The sum of terms, none of whose coefficients is zero."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t[k] + c if k in t else c
        return type(self)(t)

    def __neg__(self):
        return self._nonzero({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if len(self.terms) == len(other.terms) == 1:
            (k1, c1), = self.terms.items()
            (k2, c2), = other.terms.items()
            return self._nonzero({self._key_mul(k1, k2): c1 * c2})
        t = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k, c = self._key_mul(k1, k2), c1 * c2
                t[k] = t[k] + c if k in t else c
        return type(self)(t)


class Coeff(_Sum):
    """Formal Laurent polynomial in the coefficient symbols, over Q.

    Its rational coefficients are exact: int when integral, Fraction
    otherwise, and floats are rejected (DomainError). ``rational``,
    ``monomial`` and ``inverse`` store an integral value as an int, so
    integral inputs never meet Fraction arithmetic; a sum or product of
    Fractions that comes out integral stays a Fraction, which equals,
    hashes and serializes as the int.
    """

    __slots__ = ()

    @classmethod
    def rational(cls, r) -> "Coeff":
        return cls({(): _rational(r)})

    @classmethod
    def monomial(cls, r, exps: dict[str, int]) -> "Coeff":
        return cls({_mono(exps): _rational(r)})

    @staticmethod
    def _key_mul(m1: Mono, m2: Mono) -> Mono:
        if not m1 or not m2:
            return m1 or m2
        d = dict(m1)
        for s, e in m2:
            d[s] = d.get(s, 0) + e
        return _mono(d)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "Coeff":
        if not self.terms:
            raise DomainError("the zero coefficient is not invertible")
        if len(self.terms) != 1:
            raise DomainError("only monomial coefficients are invertible")
        (mono, r), = self.terms.items()
        return Coeff({tuple((s, -e) for s, e in mono): _rational(Fraction(1, r))})

    def conjugate(self) -> "Coeff":
        t: dict[Mono, int | Fraction] = {}
        for m, r in self.terms.items():
            d: dict[str, int] = {}
            for s, e in m:
                if s == ZETA:
                    d[s] = d.get(s, 0) - e
                else:
                    cs = _conj_symbol(s)
                    d[cs] = d.get(cs, 0) + e
            mono = _mono(d)
            t[mono] = t.get(mono, 0) + r
        return Coeff(t)

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
        if not self:
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
ONE = Coeff.rational(1)


def word_str(w: Word) -> str:
    return " ".join(f"x{i}" for i in w) if w else "e"


def deglex_key(w: Word):
    return (len(w), w)


class NCPolynomial(_Sum):
    """Finite sum of words with Coeff coefficients; zero terms dropped."""

    __slots__ = ()

    @classmethod
    def unit(cls, coeff: Coeff = ONE) -> "NCPolynomial":
        return cls({(): coeff})

    @classmethod
    def word(cls, w: Word, coeff: Coeff = ONE) -> "NCPolynomial":
        return cls({tuple(w): coeff})

    @staticmethod
    def _key_mul(w1: Word, w2: Word) -> Word:
        return w1 + w2

    def scale(self, coeff: Coeff) -> "NCPolynomial":
        return NCPolynomial({w: c * coeff for w, c in self.terms.items()})

    def lead_word(self) -> Word:
        if not self.terms:
            raise DomainError("the zero polynomial has no lead word")
        return max(self.terms, key=deglex_key)

    def mu_shift_from(self, other: "NCPolynomial") -> int | None:
        """k with self == mu**k * other, or None; 0 when both are zero.

        Multiplying by mu**k shifts every mu exponent by k, so k can only
        be the gap between the least mu exponents of one word's two
        coefficients.
        """
        w = next(iter(self.terms), None)
        if w not in other.terms:
            return None if self or other else 0
        mine, theirs = (min(dict(m).get(MU, 0) for m in p.terms[w].terms)
                        for p in (self, other))
        k = mine - theirs
        return k if self == other.scale(Coeff.monomial(1, {MU: k})) else None

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
    name: str

    def __post_init__(self):
        for w in self.rhs.terms:
            if deglex_key(w) >= deglex_key(self.lhs):
                raise DomainError(
                    f"rule {word_str(self.lhs)} -> {self.rhs!r} is not oriented")


@dataclass(frozen=True)
class Relation:
    """One display equation: several equal left words sharing a right side."""

    lhs_words: tuple[Word, ...]
    rhs: NCPolynomial


@dataclass
class RelationSystem:
    name: str
    relations: list[Relation]

    @property
    def rewrites(self) -> list[RewriteRule]:
        out = [RewriteRule(w, rel.rhs, f"{self.name}.{i}")
               for i, rel in enumerate(self.relations, 1) for w in rel.lhs_words]
        return sorted(out, key=lambda r: deglex_key(r.lhs), reverse=True)


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


class _RuleIndex:
    """The rules by left word, the distinct left-word lengths, and a memo
    of word normal forms.

    Each left word keeps the first rule added with it: every reduction,
    completion and star constraint reads that one choice, so each word has
    one normal form. Lengths run longest first. ``normal_forms`` maps each
    word a reduction's walk has finished to its normal-form terms; a rule
    added to the index clears it, since the new rule may rewrite words
    those normal forms hold.
    """

    __slots__ = ("by_lhs", "lengths", "normal_forms")

    def __init__(self, rules):
        self.by_lhs: dict[Word, RewriteRule] = {}
        self.lengths: list[int] = []
        self.normal_forms: dict[Word, dict[Word, Coeff]] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: RewriteRule) -> None:
        if rule.lhs in self.by_lhs:
            return
        self.by_lhs[rule.lhs] = rule
        self.normal_forms.clear()
        if len(rule.lhs) not in self.lengths:
            self.lengths.append(len(rule.lhs))
            self.lengths.sort(reverse=True)

    def find_redex(self, word: Word) -> tuple[int, RewriteRule] | None:
        """Leftmost position; at it, the longest lhs.

        A slice cut short by the end of word is the longest subword at pos,
        so a rule it hits is the longest match there too.
        """
        get, lengths = self.by_lhs.get, self.lengths
        for pos in range(len(word)):
            for l in lengths:
                rule = get(word[pos:pos + l])
                if rule is not None:
                    return pos, rule
        return None

    def normal_form(self, poly: NCPolynomial,
                    trace: list | None = None) -> NCPolynomial:
        """The sum of c*NF(w) over the terms c*w of poly, in one walk.

        NF(w) is w when w has no redex, and otherwise the sum of c*NF(u)
        over the terms c*u of the one rewrite ``find_redex`` gives w. The
        walk is depth-first with an explicit stack, so a chain of rewrites
        as long as STEP_BOUND allows runs in constant Python stack depth: a
        word goes on it with its rewrite and is memoized after the words of
        that rewrite. It rewrites each word once: untraced, only the words
        the memo lacks; traced, every reducible word poly reaches, and the
        trace receives these rewrites as TraceSteps, deglex-greatest word
        first. More than STEP_BOUND rewrites raise StepBoundExceeded.
        """
        memo = self.normal_forms
        done = memo if trace is None else {}  # the words whose NF is found
        out: dict[Word, Coeff] = {}
        stack = []  # (word, rewrite terms not yet summed, their sum so far)
        placed = []  # (word, redex, rewrite terms) of each rewrite
        for w, c in poly.terms.items():
            word = None if w in done else w
            while word is not None:
                hit = self.find_redex(word)
                if hit is None:
                    memo[word] = done[word] = {word: ONE}
                else:
                    if len(placed) == STEP_BOUND:
                        raise StepBoundExceeded(
                            f"no normal form within {STEP_BOUND} steps")
                    after = _apply_at(word, *hit)
                    placed.append((word, hit, after))
                    stack.append((word, list(after.items()), {}))
                word = None
                while stack:
                    top, todo, acc = stack[-1]
                    while todo and todo[-1][0] in done:
                        u, k = todo.pop()
                        _add_scaled(acc, done[u], k)
                    if todo:
                        word = todo[-1][0]
                        break
                    stack.pop()
                    memo[top] = done[top] = {u: k for u, k in acc.items() if k}
            _add_scaled(out, done[w], c)
        if trace is not None:
            placed.sort(key=lambda p: deglex_key(p[0]), reverse=True)
            trace.extend(TraceStep(rule.name, pos, word_str(word),
                                   NCPolynomial(after).to_json())
                         for word, (pos, rule), after in placed)
        return NCPolynomial(out)


def _add_scaled(acc: dict[Word, Coeff], terms: dict[Word, Coeff],
                coeff: Coeff) -> None:
    """acc += coeff * terms, zero sums kept for the caller to drop.

    A factor that is the ONE object is skipped: most rule coefficients and
    every irreducible word's normal form carry it.
    """
    for u, c in terms.items():
        if coeff is not ONE:
            c = coeff if c is ONE else c * coeff
        acc[u] = acc[u] + c if u in acc else c


def _apply_at(word: Word, pos: int, rule: RewriteRule) -> dict[Word, Coeff]:
    """The terms replacing word when rule rewrites it at pos."""
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    return {prefix + u + suffix: c for u, c in rule.rhs.terms.items()}


# -- bounded critical-pair saturation -------------------------------------------


@dataclass
class OverlapFinding:
    word: str
    rule_a: str
    rule_b: str
    status: str  # "joined" | "new_rule" | "unorientable" | "over_degree" | "unit_ideal"
    # (unit_ideal: the resolvent is an invertible constant, so 1 = 0; completion stops)
    detail: str = ""

    def to_json(self):
        return {"word": self.word, "rules": [self.rule_a, self.rule_b],
                "status": self.status, "detail": self.detail}


@dataclass
class CompletedSystem:
    """The rules ``complete`` returns, its findings, and the index of the
    rules, which ``complete`` grows as it adds each rule and which
    ``check_derivation`` and ``systems_equivalent`` reduce through.

    The index keeps the word normal forms that its reductions' walks
    memoized (the ones ``check_derivation`` and ``systems_equivalent`` make
    add to them); every rule ``complete`` added cleared them, so those left
    are of the final rules. Only untraced walks read them: the traced walk
    of ``check_derivation`` rewrites every word it reaches."""

    system: RelationSystem
    rules: list[RewriteRule]
    findings: list[OverlapFinding]
    index: _RuleIndex = field(repr=False, compare=False)

    @property
    def nonconfluent(self) -> list[OverlapFinding]:
        return [f for f in self.findings
                if f.status in ("unorientable", "over_degree", "unit_ideal")]


def _overlap_words(l1: Word, l2: Word, one_rule: bool):
    """The critical pairs of two rules with left words l1 and l2, as
    (word, position of l1, position of l2).

    Each suffix of one glued to a prefix of the other, in both orders, and
    each position where one lies inside the other, equal left words at
    (0, 0) included. A rule paired with itself (one_rule) has each gluing
    once, not also mirrored, and no inclusion. Unordered: the critical-pair
    heap orders them.
    """
    n1, n2 = len(l1), len(l2)
    out = [(l1 + l2[k:], 0, n1 - k) for k in range(1, min(n1, n2))
           if l1[-k:] == l2[:k]]
    if one_rule:
        return out
    out += [(l2 + l1[k:], n2 - k, 0) for k in range(1, min(n1, n2))
            if l2[-k:] == l1[:k]]
    if n2 <= n1:
        return out + [(l1, 0, p) for p in range(n1 - n2 + 1) if l1[p:p + n2] == l2]
    return out + [(l2, p, 0) for p in range(n2 - n1 + 1) if l2[p:p + n1] == l1]


def complete(system: RelationSystem) -> CompletedSystem:
    """Bounded Knuth-Bendix style saturation of the oriented rules.

    Both rules of each critical pair from ``_overlap_words`` rewrite its
    word at their own positions. Pairs are resolved in deglex order of
    their overlap word, then by the rule indices and positions; each pair of
    rules is enqueued once. New rules only join critical pairs whose
    resolvent has monomial leading coefficient and lead word of length at
    most DEGREE_BOUND; everything else becomes a reported finding, and an
    invertible constant resolvent (1 = 0) a ``unit_ideal`` one that stops
    completion. Every added rule is an exact consequence of the input ideal
    (each critical pair is formed from two rewrites of one word). More
    than MAX_RULES rules raise StepBoundExceeded. The rules are indexed
    once, and each added rule joins the index, which both sides of every
    critical pair reduce through and the result carries. Those reductions
    sum memoized word normal forms, so a rewrite that several pairs share
    is performed once, and each added rule clears the memo.
    """
    rules = list(system.rewrites)
    index = _RuleIndex(rules)
    findings: list[OverlapFinding] = []
    queue: list[tuple[tuple[int, Word], int, int, int, int]] = []

    def enqueue(i, j):
        for w, pos_a, pos_b in _overlap_words(rules[i].lhs, rules[j].lhs, i == j):
            heapq.heappush(queue, (deglex_key(w), i, j, pos_a, pos_b))

    for i in range(len(rules)):
        for j in range(i, len(rules)):
            enqueue(i, j)

    while queue:
        (_, w), ia, ib, pos_a, pos_b = heapq.heappop(queue)
        ra, rb = rules[ia], rules[ib]
        nf1 = index.normal_form(NCPolynomial(_apply_at(w, pos_a, ra)))
        nf2 = index.normal_form(NCPolynomial(_apply_at(w, pos_b, rb)))
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
        if not lead:
            findings.append(OverlapFinding(
                word_str(w), ra.name, rb.name, "unit_ideal",
                f"resolvent {g!r} is an invertible constant, so 1 = 0"))
            break
        if len(lead) > DEGREE_BOUND:
            findings.append(OverlapFinding(
                word_str(w), ra.name, rb.name, "over_degree",
                f"lead {word_str(lead)} exceeds degree {DEGREE_BOUND}"))
            continue
        rest = NCPolynomial({u: c for u, c in g.terms.items() if u != lead})
        rhs = (-rest).scale(lead_coeff.inverse())
        rule = RewriteRule(lead, rhs, f"{system.name}.cp{len(rules) + 1}")
        rules.append(rule)
        index.add(rule)
        findings.append(OverlapFinding(word_str(w), ra.name, rb.name, "new_rule",
                                       f"{word_str(lead)} -> {rhs!r}"))
        if len(rules) > MAX_RULES:
            raise StepBoundExceeded(f"completion exceeded {MAX_RULES} rules")
        for j in range(len(rules)):
            enqueue(len(rules) - 1, j)
    # a stable sort keeps the first rule of each left word first, so the
    # index stays that of the sorted rules
    rules.sort(key=lambda r: deglex_key(r.lhs), reverse=True)
    return CompletedSystem(system, rules, findings, index)


# -- derivation and equivalence checking ----------------------------------------


@dataclass
class DerivationResult:
    normal_form: NCPolynomial
    trace: list[TraceStep]
    completion_findings: list[OverlapFinding]

    @property
    def ok(self) -> bool:
        return not self.normal_form

    def to_json(self):
        return {"ok": self.ok,
                "normal_form": self.normal_form.to_json(),
                "trace": [t.to_json() for t in self.trace],
                "completion": [f.to_json() for f in self.completion_findings]}


def check_derivation(completed: CompletedSystem, lhs: NCPolynomial,
                     rhs: NCPolynomial) -> DerivationResult:
    """Does lhs = rhs follow from the premises (bounded ideal membership)?

    The premises come saturated by bounded critical pairs (``complete``);
    the target difference must then rewrite to zero. The trace plus the
    completion findings form a machine-checkable certificate: the trace
    lists the rewrite of every reducible word the difference reaches,
    whatever the index had memoized before, since the traced walk that
    gives the normal form rewrites each such word itself.
    """
    trace: list[TraceStep] = []
    nf = completed.index.normal_form(lhs - rhs, trace)
    return DerivationResult(nf, trace, completed.findings)


@dataclass
class RuleComparison:
    rule: str
    lhs_nf: NCPolynomial
    rhs_nf: NCPolynomial
    mu_shift: int | None

    @property
    def equal(self) -> bool:
        return self.lhs_nf == self.rhs_nf

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
    comparisons: list[RuleComparison]
    nonconfluent: list[OverlapFinding]

    @property
    def strict(self) -> bool:
        return all(c.equal for c in self.comparisons)

    @property
    def separators(self) -> list[RuleComparison]:
        return [c for c in self.comparisons if c.mu_shift is None]

    @property
    def mod_unit_scale(self) -> bool:
        return not self.separators

    def to_json(self):
        return {"system_a": self.system_a, "system_b": self.system_b,
                "strict": self.strict, "mod_unit_scale": self.mod_unit_scale,
                "separators": [s.to_json() for s in self.separators],
                "nonconfluent": [f.to_json() for f in self.nonconfluent]}


def _compare_direction(sys_a: RelationSystem, comp_b: CompletedSystem):
    out = []
    for i, rel in enumerate(sys_a.relations):
        targets = [NCPolynomial.word(w) for w in rel.lhs_words] + [rel.rhs]
        nfs = [comp_b.index.normal_form(t) for t in targets]
        base = nfs[-1]
        for w, nf in zip(rel.lhs_words, nfs[:-1]):
            out.append(RuleComparison(f"{sys_a.name}.{i + 1}[{word_str(w)}]",
                                      nf, base, nf.mu_shift_from(base)))
    return out


def systems_equivalent(comp_a: CompletedSystem,
                       comp_b: CompletedSystem) -> EquivalenceVerdict:
    """Mutual bounded reduction of the defining relations, both senses.

    Each system's relations are reduced under the other's completion
    (``complete``).

    strict requires exact normal-form equality in both directions;
    mod_unit_scale additionally accepts a uniform mu-power discrepancy
    per relation, which
    is exactly what quotienting by the scaled unit relation absorbs. The
    verdict carries the separating relations and all non-confluent overlap
    findings rather than hiding them.
    """
    a, b = comp_a.system, comp_b.system
    comps = _compare_direction(a, comp_b) + _compare_direction(b, comp_a)
    return EquivalenceVerdict(a.name, b.name, comps,
                              comp_a.nonconfluent + comp_b.nonconfluent)


# -- involution ------------------------------------------------------------------


# The star structure: x1 <-> x2, x3 <-> x4, reversing words and conjugating
# coefficients.
_STAR = {1: 2, 2: 1, 3: 4, 4: 3}


def star_word(w: Word) -> Word:
    return tuple(_STAR[g] for g in reversed(w))


def star(poly: NCPolynomial) -> NCPolynomial:
    # star_word is a bijection, so no two terms land on one word
    return NCPolynomial({star_word(w): c.conjugate() for w, c in poly.terms.items()})


def star_invariance_constraints(system: RelationSystem) -> dict[str, Coeff]:
    """Conditions on the coefficients making the relations star-invariant.

    Each rule x_i x_j = c x_j x_i that ``_RuleIndex`` keeps (the first for
    its left word, as in every reduction) is starred and re-oriented; the
    resulting coefficient must agree with the index's rule for that left
    side. Returns {symbol: required}: the coefficient the involution
    forces on the symbol of that rule.
    """
    rules = _RuleIndex(system.rewrites).by_lhs
    constraints = {}
    for rule in rules.values():
        if len(rule.lhs) != 2 or len(rule.rhs.terms) != 1:
            continue
        (rhs_word, coeff), = rule.rhs.terms.items()
        if len(rhs_word) != 2:
            continue
        lhs_star = star_word(rule.lhs)
        rhs_star = star_word(rhs_word)
        c_star = coeff.conjugate()
        # starred equation: lhs_star = c_star * rhs_star
        if deglex_key(lhs_star) > deglex_key(rhs_star):
            target, required = lhs_star, c_star
        else:
            target, required = rhs_star, c_star.inverse()
        own = rules.get(target)
        if own is None:
            raise DomainError(f"no rule with left side {word_str(target)}")
        if len(own.rhs.terms) != 1:
            raise DomainError(
                f"rule {own.name} ({word_str(target)} -> {own.rhs!r}) has no "
                "single-term right side to constrain")
        (own_coeff,) = own.rhs.terms.values()
        constraints[_single_symbol(own_coeff)] = required
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
    a_coeff: Fraction
    b_coeff: Fraction
    constraint_value: Fraction

    @property
    def constraint_holds(self) -> bool:
        return self.constraint_value == 0

    def to_json(self):
        return {"A": str(self.a_coeff), "B": str(self.b_coeff),
                "constraint_holds": self.constraint_holds}


def jacobi_coefficients(alpha: Fraction, beta: Fraction,
                        gamma: Fraction) -> JacobiCoefficients:
    """Quadric coefficients A = (1-alpha)/(1+beta), B = (1+alpha)/(1-gamma).

    Exact rational arithmetic on int or Fraction inputs, a float raising
    DomainError; the surface constraint alpha + beta + gamma +
    alpha*beta*gamma = 0 is checked and reported, violating it only warns
    since the map itself stays well defined.
    """
    alpha, beta, gamma = (Fraction(_rational(x)) for x in (alpha, beta, gamma))
    if beta == -1:
        raise PoleError("beta = -1 is a pole of the first coefficient")
    if gamma == 1:
        raise PoleError("gamma = 1 is a pole of the second coefficient")
    constraint = alpha + beta + gamma + alpha * beta * gamma
    if constraint != 0:
        warnings.warn(f"surface constraint violated: {constraint} != 0",
                      ConstraintViolated, stacklevel=2)
    return JacobiCoefficients((1 - alpha) / (1 + beta),
                              (1 + alpha) / (1 - gamma), constraint)
