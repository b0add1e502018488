"""Class groups of quadratic orders via binary quadratic forms.

Definite class numbers come from the |b| <= a <= c reduced-form box;
indefinite ones from cycles of reduced forms under the reduction step.
For real orders the headline class number is the wide (module) count.
The narrow-to-wide map has kernel {1, [-1]}, so a wide class is a
reduction cycle C together with its negative -C, the cycle of the forms
(-a, b, -c); C = -C exactly when a unit of norm -1 exists. As
rho(-q) = -rho(q), the walk negates each cycle it walks into its partner,
and yields the pairs. The proper (form class / narrow) count, the number
of cycles, is carried alongside. Forms are plain (a, b, c) int triples
from enumeration to report: the reduced forms of both signs, the rho step,
the cycles (Buchmann-Vollmer, ch. 6; Cohen, GTM 138, 5.7) and the
representatives a summary hands out.

Conductor matching needs only class numbers, and takes them from the
class-number formula for orders (Cox, *Primes of the form x^2+ny^2*,
Thm 7.24; Buchmann-Vollmer, *Binary Quadratic Forms*, for real orders):

    h(O_f) = h(O_K) f / [O_K^*:O_f^*] prod_{p | f} (1 - (d_K/p)/p).

Here Q_f = f prod_{p | f} (1 - (d_K/p)/p) is the order of (O_K/f)^*/(Z/f)^*.
The candidate loop runs on plain integers, taken once per field from the
maximal order: d_K, h(O_K), the fundamental unit's norm and coordinates,
and one memo of the symbols (d_K/p). Each f costs one Q_f, and the real
unit index is the lcm of the indices of the prime powers p^e exactly
dividing f, each found once per field by stepping the unit's coordinates
mod p^e at most Q_{p^e} times; that bound reads the same memo. Since
[O_K^*:O_f^*] divides Q_f, h(O_K) divides every h(O_f), and a scan whose
given class number h(O_K) does not divide ends at f = 1. Forms are
enumerated only for h(O_K) and the given order, and ``DISC_LIMIT`` bounds
that enumeration alone: no candidate of the formula is held to it.
``class_group`` remembers the last few orders it enumerated, so a case,
with recognition on or off, enumerates each of its orders (given, opposite
maximal, matched) once, whichever layer asks for it.

The same formula bounds the enumeration of a real order of conductor
f > 1. It gives the wide h, and the cycle count: h when O_f has a unit of
norm -1, 2h otherwise. The reduced forms are scanned with b descending
from isqrt(D), where the divisor loop is shortest and the forms of small
|a| lie, and every cycle met is walked and taken with its negative; the
scan stops once its pairs hold that many cycles. The cycles of the orders
matched in a scan each hold a form of small |a| (at most 75 for d = 6,
f = 89, with D = 190,104), so a few values of b suffice. Forms running out
first, or cycles that make another wide count, raise ``DomainError``.
Maximal orders have no count and walk every form, through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import BoundExceeded, DomainError, NoMatchWithinBound
from .quadfield import (OrderDescriptor, QuadraticIrrational,
                        _integral_coordinates, _prime_powers, fundamental_unit)

DISC_LIMIT = 10**8  # largest |disc| enumerated; read at call time
_CACHED_ORDERS = 3  # a case's given, opposite maximal and matched orders


def _definite_reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """All primitive reduced (a, b, c) of discriminant disc < 0, sorted."""
    forms = []
    b = disc & 1
    while b * b <= -disc // 3:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms)


def _indefinite_reduced_forms(disc: int):
    """Every primitive reduced (a, b, c) of non-square discriminant disc > 0,
    yielded with b descending.

    A reduced form (a, b, c), s = isqrt(disc), has 0 < b <= s and
    s - b < 2|a| <= s + b, with |a| |c| = n = (disc - b^2)/4. Both |a| and
    |c| then exceed (s - b)/2: |c| >= 2n/(s + b) > (s - b)/2 because
    disc > s^2. So the divisor loop over n starts above (s - b)/2, and it
    is shortest for b near s, where the forms of small |a| lie.
    """
    s = isqrt(disc)
    for b in range(s - ((s ^ disc) & 1), 0, -2):
        n = (disc - b * b) // 4
        for a in [a for a in range((s - b) // 2 + 1, isqrt(n) + 1)
                  if n % a == 0]:
            for aa in {a, n // a}:
                if s - b < 2 * aa <= s + b and gcd(gcd(aa, b), n // aa) == 1:
                    yield aa, b, -(n // aa)
                    yield -aa, b, n // aa


def _rho(form, disc: int, s: int) -> tuple[int, int, int]:
    """rho of the triple form of discriminant disc > 0, s = isqrt(disc)."""
    c = form[2]
    two_c = 2 * abs(c)
    r = (-form[1]) % two_c
    # shift r into (s - 2|c|, s]
    r += ((s - r) // two_c) * two_c
    return c, r, (r * r - disc) // (4 * c)


def _indefinite_cycles(disc: int, count: int | None):
    """The rho-cycles of discriminant disc > 0 in pairs (C, -C), or (C,)
    when C = -C, the principal cycle's pair first; -C negates C's forms.

    The walk starts at the reduced principal form (1, b, c), b greatest,
    then takes the forms of ``_indefinite_reduced_forms``. With a ``count``
    it stops once its pairs hold that many cycles, and the forms running
    out first raises ``DomainError``.
    """
    s = isqrt(disc)
    if s * s == disc:
        raise DomainError("square discriminant")
    b = s - ((s ^ disc) & 1)
    principal = (1, b, (b * b - disc) // 4)
    pairs, seen, cycles = [], set(), 0
    for q in chain([principal], _indefinite_reduced_forms(disc)):
        if q in seen:
            continue
        cycle = []
        while q not in seen:
            seen.add(q)
            cycle.append(q)
            q = _rho(q, disc, s)
        negative = [(-a, b, -c) for a, b, c in cycle]
        pair = (cycle,) if negative[0] in seen else (cycle, negative)
        seen.update(negative)
        pairs.append(pair)
        cycles += len(pair)
        if cycles == count:
            break
    else:
        if count is not None:
            raise DomainError(f"the reduced forms of discriminant {disc} lie "
                              f"on {cycles} cycles, not the class-number "
                              f"formula's {count}")
    return pairs


@dataclass(frozen=True)
class ClassGroupSummary:
    order: OrderDescriptor
    h: int
    representatives: tuple[tuple[int, int, int], ...]
    h_proper: int  # form-class (proper/narrow) count; equals h when definite


@dataclass
class PseudoLatticeRep:
    theta: QuadraticIrrational
    source_form: tuple[int, int, int]

    def to_json(self) -> dict:
        return {"theta": self.theta.to_json(),
                "source_form": list(self.source_form)}


def _check_disc_limit(order: OrderDescriptor) -> None:
    disc = order.discriminant
    if abs(disc) > DISC_LIMIT:
        raise BoundExceeded(f"|disc|={abs(disc)} exceeds limit {DISC_LIMIT}")


def class_group(order: OrderDescriptor) -> ClassGroupSummary:
    """Class number and one reduced representative per class.

    Imaginary side: count of primitive reduced definite forms. Real side:
    h_proper counts the reduction cycles, and h counts the module (wide)
    classes, each a cycle paired with its negative (see ``_wide_classes``).
    Representatives come principal class first, then by (a, b, c).
    ``BoundExceeded`` is raised when |disc| exceeds ``DISC_LIMIT``, on every
    call; the last ``_CACHED_ORDERS`` orders' summaries are shared.
    """
    _check_disc_limit(order)
    return _enumerated_class_group(order)


@lru_cache(maxsize=_CACHED_ORDERS)
def _enumerated_class_group(order: OrderDescriptor) -> ClassGroupSummary:
    disc = order.discriminant
    if order.field_kind == "imaginary":
        forms = tuple(_definite_reduced_forms(disc))
        return ClassGroupSummary(order, len(forms), forms, len(forms))
    h, count = (_formula_counts(order) if order.conductor > 1
                else (None, None))
    pairs = _indefinite_cycles(disc, count)
    reps = tuple(_wide_classes(pairs))
    if h is not None and len(reps) != h:
        raise DomainError(f"the {count} cycles of {order.to_json()} make "
                          f"{len(reps)} module classes, not the class-number "
                          f"formula's {h}")
    return ClassGroupSummary(order, len(reps), reps, sum(map(len, pairs)))


def _formula_counts(order: OrderDescriptor) -> tuple[int, int]:
    """(h, cycles) of a real order of conductor f > 1 by the formula.

    h = h(O_K) Q_f / [O_K^*:O_f^*]. The cycles are the form classes: h of
    them when O_f has a unit of norm -1, and 2h otherwise.
    """
    field = _field_orders(OrderDescriptor("real", order.d, 1))
    h = field.class_number(order.conductor)
    return h, h if field.has_unit_of_norm_minus_one(order.conductor) else 2 * h


def _wide_classes(pairs) -> list[tuple[int, int, int]]:
    """One representative per pair {C, -C} of ``_indefinite_cycles``,
    principal pair first.

    The narrow-to-wide map has kernel {1, [-1]} (Buchmann-Vollmer, *Binary
    Quadratic Forms*), and [-1][f] is the class of -f = (-a, b, -c), so each
    pair is one module class. The principal pair keeps the principal
    cycle's representative, every other pair that of its cycle of lesser
    least member; those follow sorted.
    """
    principal, *others = pairs
    return [_cycle_representative(principal[0])] + sorted(
        _cycle_representative(min(pair, key=min)) for pair in others)


def _cycle_representative(cycle) -> tuple[int, int, int]:
    return min(q for q in cycle if q[0] > 0)


def pseudo_lattice_reps(summary: ClassGroupSummary) -> list[PseudoLatticeRep]:
    """One theta per module class of a real order, principal class first.

    ``summary`` is the order's ``class_group``. Each theta is the larger
    root of one of its reduced indefinite representatives, which have
    positive leading coefficient, so it lies in (0, 1); distinct
    representatives are pairwise GL2- (hence SL2-) inequivalent.
    """
    if summary.order.field_kind != "real":
        raise DomainError("pseudo-lattices live on the real side")
    reps = []
    for form in summary.representatives:
        theta = _theta(form)
        if not 0 < theta < 1:
            raise DomainError(f"theta of {list(form)} is not in (0, 1)")
        reps.append(PseudoLatticeRep(theta, form))
    return reps


def _theta(form) -> QuadraticIrrational:
    """Larger root of a x^2 + b x + c for the triple (a, b, c), a > 0."""
    a, b, c = form
    if a <= 0:
        raise DomainError("theta needs a > 0")
    disc = b * b - 4 * a * c
    if disc <= 0:
        raise DomainError("theta needs an indefinite form")
    return QuadraticIrrational(-b, 1, 2 * a, disc)


@lru_cache(maxsize=1024)  # each f of a scan, up to search bound 1024
def _conductor_prime_powers(f: int) -> tuple[tuple[int, int], ...]:
    """(p, e) for each p**e exactly dividing f, factored once for every
    field's scan."""
    return tuple(_prime_powers(f))


def _kronecker(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) for a prime p."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = pow(disc, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# [O_K^*:O_f^*] of an imaginary order at f > 1 by d_K; 1 for other d_K
_IMAGINARY_UNIT_INDEX = {-3: 3, -4: 2}


class _FieldOrders:
    """The class-number formula over the orders O_f of one field K.

    Built from the maximal order O_K alone, it takes what the formula needs
    of K once: d_K, h(O_K) and, on the real side, the fundamental unit's
    norm and integer coordinates x + y w in the basis (1, w) of O_K, with
    w^2 = t w + n. One memo of the symbols (d_K/p) serves every Q_f, both a
    conductor's and the bound of a prime power's unit-index search. Each
    conductor f then costs one Q_f, and the unit index of each prime power
    p^e exactly dividing f is found once, in at most Q_{p^e} steps of the
    unit mod p^e. ``OrderDescriptor`` objects are built only to word an
    error.
    """

    def __init__(self, maximal: OrderDescriptor):
        self.kind, self.d = maximal.field_kind, maximal.d
        self.disc = maximal.fundamental_discriminant
        self.h = _enumerated_class_group(maximal).h
        self.symbols: dict[int, int] = {}
        self.prime_power_indices: dict[int, int] = {}  # p^e: k, 0 for none
        if self.kind == "real":
            unit = fundamental_unit(maximal)
            self.unit, self.unit_norm = unit.value, unit.norm
            self.coords = _integral_coordinates(self.unit, self.d)

    def quotient(self, f: int) -> int:
        """Q_f = f prod_{p | f} (1 - (d_K/p)/p), the order of
        (O_K/f)^* / (Z/f)^*, with each symbol (d_K/p) computed once."""
        size = f
        for p, _ in _conductor_prime_powers(f):
            symbol = self.symbols.get(p)
            if symbol is None:
                symbol = self.symbols[p] = _kronecker(self.disc, p)
            size = size // p * (p - symbol)
        return size

    def unit_index(self, f: int) -> int:
        """[O_K^*:O_f^*] for the order O_f of conductor f in K.

        Imaginary side: 3 for d_K = -3, 2 for d_K = -4, 1 otherwise (1 at
        f = 1). Real side: the least k with unit**k in O_f = Z + f O_K, where
        the unit is the fundamental unit of O_K. Written x + y w, a power
        lies in O_f exactly when its y is 0 mod f, which holds exactly when
        it holds mod every p^e exactly dividing f. The powers in O_f form a
        subgroup, so k is the lcm of the prime powers' indices, each found
        by stepping the powers in integers mod p^e. It divides Q_{p^e}, the
        order of (O_K/p^e)^* / (Z/p^e)^*, which bounds that search.
        """
        if f == 1:
            return 1
        if self.kind == "imaginary":
            return _IMAGINARY_UNIT_INDEX.get(self.disc, 1)
        index = 1
        for p, e in _conductor_prime_powers(f):
            q = p**e
            k = self.prime_power_indices.get(q)
            if k is None:
                k = self.prime_power_indices[q] = self._power_index(
                    q, self.quotient(q))
            if not k:
                order = OrderDescriptor(self.kind, self.d, f)
                raise DomainError(f"no power of {self.unit!r} lies in the "
                                  f"order {order.to_json()}")
            index = lcm(index, k)
        return index

    def _power_index(self, q: int, bound: int) -> int:
        """Least k <= bound with y = 0 mod q in unit**k = x + y w, or 0."""
        x0, y0, t, n = self.coords
        x0, y0 = x0 % q, y0 % q
        x, y = x0, y0
        for k in range(1, bound + 1):
            if not y:
                return k
            # (x + y w)(x0 + y0 w) with w^2 = t w + n
            x, y = ((x * x0 + n * y * y0) % q,
                    (x * y0 + y * x0 + t * y * y0) % q)
        return 0

    def has_unit_of_norm_minus_one(self, f: int) -> bool:
        """Whether O_f holds a unit of norm -1: the fundamental unit has
        norm -1, and its least power in O_f is odd."""
        return self.unit_norm == -1 and self.unit_index(f) % 2 == 1

    def class_number(self, f: int) -> int:
        """h(O_f) by the class-number formula for orders.

        h(O_f) = h(O_K) Q_f / [O_K^*:O_f^*], with Q_f as in the module
        docstring; see Cox, *Primes of the form x^2+ny^2*, Thm 7.24, and
        Buchmann-Vollmer, *Binary Quadratic Forms*, for real orders, where h
        is the wide count.
        """
        h, rest = divmod(self.h * self.quotient(f), self.unit_index(f))
        if rest:
            order = OrderDescriptor(self.kind, self.d, f)
            raise DomainError(f"class-number formula is not integral for "
                              f"{order.to_json()} with h(O_K)={self.h}")
        return h


# a case's conductor scan and its matched order
_field_orders = lru_cache(maxsize=1)(_FieldOrders)


def match_conductor(given: OrderDescriptor,
                    search_bound: int) -> tuple[int, int]:
    """(f, h): the least conductor f on the opposite side whose order has
    the given order's class number h.

    Reduced forms are enumerated for the given order and the opposite
    maximal order only (``class_group`` keeps both for the caller, and holds
    them to ``DISC_LIMIT``); every other candidate's class number comes from
    the formula of ``_FieldOrders.class_number``, on plain integers taken
    once per scan from the maximal order, and each f costs one Q_f.
    Pic(O_f) maps onto Pic(O_K), so h(O_K) divides every h(O_f): the
    formula's [O_K^*:O_f^*] divides Q_f. When h(O_K) does not divide the
    given h, no conductor matches and the scan ends at f = 1. Without a
    match inside search_bound, ``NoMatchWithinBound`` is raised. Candidates
    are not held to ``DISC_LIMIT``, since nothing is enumerated for them; a
    matched order beyond it raises ``BoundExceeded`` when its
    representatives are enumerated.
    """
    h_given = class_group(given).h
    if search_bound >= 1:
        maximal = given.opposite(1)
        h_max = class_group(maximal).h
        if h_max == h_given:
            return 1, h_given
        if h_given % h_max == 0:
            field = _field_orders(maximal)
            for f in range(2, search_bound + 1):
                if field.class_number(f) == h_given:
                    return f, h_given
    raise NoMatchWithinBound(
        f"no conductor <= {search_bound} matches h={h_given}")
