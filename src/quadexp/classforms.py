"""Class groups of quadratic orders via binary quadratic forms.

Definite class numbers come from the |b| <= a <= c reduced-form box;
indefinite ones from cycles of reduced forms under the reduction step.
For real orders the headline class number is the wide (module) count.
The narrow-to-wide map has kernel {1, [-1]}, so a wide class is a
reduction cycle C together with its negative -C, the cycle of the forms
(-a, b, -c); C = -C exactly when a unit of norm -1 exists. The proper
(form class / narrow) count, the number of cycles, is carried alongside.

Conductor matching needs only class numbers, and takes them from the
class-number formula for orders (Cox, *Primes of the form x^2+ny^2*,
Thm 7.24; Buchmann-Vollmer, *Binary Quadratic Forms*, for real orders):

    h(O_f) = h(O_K) f / [O_K^*:O_f^*] prod_{p | f} (1 - (d_K/p)/p).

The real unit index is found by stepping the fundamental unit's coordinates
in integers mod f. Since [O_K^*:O_f^*] divides the order of
(O_K/f)^*/(Z/f)^*, h(O_K) divides every h(O_f), and a scan whose given
class number h(O_K) does not divide ends at f = 1. Forms are enumerated
only for h(O_K) and the given order; both summaries come back with the
match, so a caller enumerates a matched order again only when its
conductor is above 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import BoundExceeded, DomainError, NoMatchWithinBound
from .quadfield import OrderDescriptor, QuadraticIrrational, fundamental_unit

DISC_LIMIT = 10**8  # largest |disc| enumerated or matched; read at call time


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1

    def is_reduced_indefinite(self) -> bool:
        # 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b
        disc = self.discriminant
        if disc <= 0 or self.b <= 0 or self.b * self.b >= disc:
            return False
        aa = 2 * abs(self.a)
        if disc >= (aa + self.b) ** 2:
            return False
        return aa <= self.b or (aa - self.b) ** 2 < disc

    def rho(self) -> "BinaryQuadraticForm":
        """Reduction step for indefinite forms; permutes the reduced forms."""
        disc = self.discriminant
        if disc <= 0:
            raise DomainError("rho applies to indefinite forms")
        s = isqrt(disc)
        c = self.c
        two_c = 2 * abs(c)
        r = (-self.b) % two_c
        # shift r into (s - 2|c|, s]
        r += ((s - r) // two_c) * two_c
        return BinaryQuadraticForm(c, r, (r * r - disc) // (4 * c))

    def theta(self) -> QuadraticIrrational:
        """Larger root of a x^2 + b x + c (a > 0 required)."""
        if self.a <= 0:
            raise DomainError("theta needs a > 0")
        disc = self.discriminant
        if disc <= 0:
            raise DomainError("theta needs an indefinite form")
        return QuadraticIrrational(-self.b, 1, 2 * self.a, disc)

    def to_json(self):
        return [self.a, self.b, self.c]


def _definite_reduced_forms(disc: int) -> list[BinaryQuadraticForm]:
    """All primitive reduced forms of discriminant disc < 0."""
    forms = []
    b = disc & 1
    while b * b <= -disc // 3:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if a != 0 and m % a == 0:
                c = m // a
                f = BinaryQuadraticForm(a, b, c)
                if f.is_primitive():
                    forms.append(f)
                    if 0 < b < a < c:
                        forms.append(BinaryQuadraticForm(a, -b, c))
            a += 1
        b += 2
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def _indefinite_reduced_forms(disc: int) -> list[BinaryQuadraticForm]:
    """All primitive reduced forms of non-square discriminant disc > 0.

    A reduced form (a, b, c), s = isqrt(disc), has 0 < b <= s and
    s - b < 2|a| <= s + b, with |a| |c| = n = (disc - b^2)/4. Both |a| and
    |c| then exceed (s - b)/2: |c| >= 2n/(s + b) > (s - b)/2 because
    disc > s^2. So the divisor loop over n starts above (s - b)/2.
    """
    s = isqrt(disc)
    if s * s == disc:
        raise DomainError("square discriminant")
    forms = []
    b = 2 - (disc & 1)
    while b <= s:
        n = (disc - b * b) // 4
        a = (s - b) // 2 + 1
        while a * a <= n:
            if n % a == 0:
                for aa in (a, n // a):
                    if s - b < 2 * aa <= s + b:
                        for f in (BinaryQuadraticForm(aa, b, -(n // aa)),
                                  BinaryQuadraticForm(-aa, b, n // aa)):
                            if f.is_primitive():
                                forms.append(f)
                    if a == n // a:
                        break
            a += 1
        b += 2
    return sorted(set(forms), key=lambda f: (f.a, f.b, f.c))


def _indefinite_cycles(forms) -> list[list[BinaryQuadraticForm]]:
    remaining = set(forms)
    cycles = []
    for start in forms:
        if start not in remaining:
            continue
        cyc = []
        f = start
        while True:
            cyc.append(f)
            remaining.discard(f)
            f = f.rho()
            if f == start:
                break
            if f not in remaining and f in cyc:
                break
        cycles.append(cyc)
    return cycles


@dataclass
class ClassGroupSummary:
    order: OrderDescriptor
    h: int
    representatives: list[BinaryQuadraticForm]
    h_proper: int  # form-class (proper/narrow) count; equals h when definite

    def to_json(self) -> dict:
        return {"order": self.order.to_json(), "h": self.h,
                "h_proper": self.h_proper,
                "representatives": [f.to_json() for f in self.representatives]}


@dataclass
class PseudoLatticeRep:
    theta: QuadraticIrrational
    source_form: BinaryQuadraticForm

    def to_json(self) -> dict:
        return {"theta": self.theta.to_json(),
                "source_form": self.source_form.to_json()}


@dataclass
class ConductorMatch:
    given_side: str
    given_conductor: int
    matched_conductor: int
    h_common: int
    # the two class groups the match enumerated; not part of the report
    given_classes: ClassGroupSummary
    opposite_maximal_classes: ClassGroupSummary

    def to_json(self) -> dict:
        return {"given_side": self.given_side,
                "given_conductor": self.given_conductor,
                "matched_conductor": self.matched_conductor,
                "h_common": self.h_common}


def _principal_form(disc: int) -> BinaryQuadraticForm:
    b = disc & 1
    return BinaryQuadraticForm(1, b, (b * b - disc) // 4)


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
    ``BoundExceeded`` is raised when |disc| exceeds ``DISC_LIMIT``.
    """
    _check_disc_limit(order)
    disc = order.discriminant
    if order.field_kind == "imaginary":
        forms = _definite_reduced_forms(disc)
        return ClassGroupSummary(order, len(forms), forms, len(forms))
    cycles = _indefinite_cycles(_indefinite_reduced_forms(disc))
    reps = _wide_classes(cycles, disc)
    return ClassGroupSummary(order, len(reps), reps, len(cycles))


def _wide_classes(cycles, disc) -> list[BinaryQuadraticForm]:
    """One representative per pair {C, -C} of cycles, principal pair first.

    The narrow-to-wide map has kernel {1, [-1]} (Buchmann-Vollmer, *Binary
    Quadratic Forms*), and [-1][f] is the class of -f = (-a, b, -c). Since
    reduced-ness depends only on |a| and b, and rho(-f) = -rho(f), the
    negatives of a cycle's forms make up a cycle again. A pair keeps the
    principal cycle's representative when it holds that cycle, and the
    lower-index cycle's otherwise.
    """
    index = {q: i for i, cyc in enumerate(cycles) for q in cyc}

    def cycle_of(q: BinaryQuadraticForm) -> int:
        if q not in index:
            raise DomainError(f"form {q.to_json()} lies on no reduced cycle "
                              f"of discriminant {disc}")
        return index[q]

    principal = cycle_of(_reduced_principal_form(disc))
    partner = [cycle_of(BinaryQuadraticForm(-q.a, q.b, -q.c))
               for q in (cyc[0] for cyc in cycles)]
    others = [_cycle_representative(cycles[i]) for i, j in enumerate(partner)
              if principal not in (i, j) and i <= j]
    return ([_cycle_representative(cycles[principal])]
            + sorted(others, key=lambda f: (f.a, f.b, f.c)))


def _reduced_principal_form(disc) -> BinaryQuadraticForm:
    # the principal form may not be reduced; walk it into the reduced set
    f = _principal_form(disc)
    for _ in range(4 * (isqrt(abs(disc)) + 2)):
        if f.is_reduced_indefinite():
            break
        f = f.rho()
    return f


def _cycle_representative(cycle) -> BinaryQuadraticForm:
    pos = [f for f in cycle if f.a > 0]
    return sorted(pos, key=lambda f: (f.a, f.b, f.c))[0]


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
        theta = form.theta()
        if not 0 < theta < 1:
            raise DomainError(f"theta of {form.to_json()} is not in (0, 1)")
        reps.append(PseudoLatticeRep(theta, form))
    return reps


def _prime_divisors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _kronecker(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) for a prime p."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = pow(disc, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _unit_group_quotient(order: OrderDescriptor) -> int:
    """f prod_{p | f} (1 - (d_K/p)/p), the order of (O_K/f)^* / (Z/f)^*."""
    f = order.conductor
    size = f
    for p in _prime_divisors(f):
        size = size // p * (p - _kronecker(order.fundamental_discriminant, p))
    return size


def unit_index(order: OrderDescriptor,
               unit: QuadraticIrrational | None = None) -> int:
    """[O_K^*:O_f^*] for the order O_f of conductor f in K.

    Imaginary side: 3 for d_K = -3, 2 for d_K = -4, 1 otherwise (1 at
    f = 1). Real side: the least k with unit**k in O_f = Z + f O_K, where
    unit must be the fundamental unit of O_K. Written x + y w in the basis
    (1, w) of O_K, with w^2 = d, or w^2 = w + (d-1)/4 when d = 1 mod 4, a
    power lies in O_f exactly when its y is 0 mod f, so the powers are
    stepped in integers mod f. k divides the order of (O_K/f)^* / (Z/f)^*,
    which bounds the search.
    """
    if order.conductor == 1:
        return 1
    if order.field_kind == "imaginary":
        return {-3: 3, -4: 2}.get(order.fundamental_discriminant, 1)
    if unit is None:
        raise DomainError("a real order's unit index needs the fundamental "
                          "unit of the maximal order")
    d, f = order.d, order.conductor
    if d % 4 == 1:  # w = (1 + sqrt d)/2: unit = (a - b)/c + (2b/c) w
        num_x, num_y, t, n = unit.a - unit.b, 2 * unit.b, 1, (d - 1) // 4
    else:  # w = sqrt d: unit = a/c + (b/c) w
        num_x, num_y, t, n = unit.a, unit.b, 0, d
    if num_x % unit.c == 0 and num_y % unit.c == 0:  # else no power is integral
        x0, y0 = num_x // unit.c % f, num_y // unit.c % f
        x, y = x0, y0
        for k in range(1, _unit_group_quotient(order) + 1):
            if not y:
                return k
            # (x + y w)(x0 + y0 w) with w^2 = t w + n
            x, y = ((x * x0 + n * y * y0) % f,
                    (x * y0 + y * x0 + t * y * y0) % f)
    raise DomainError(f"no power of {unit!r} lies in the order {order.to_json()}")


def order_class_number(order: OrderDescriptor, h_max: int,
                       unit: QuadraticIrrational | None = None) -> int:
    """h(O_f) from h_max = h(O_K) by the class-number formula for orders.

    h(O_f) = h(O_K) f / [O_K^*:O_f^*] prod_{p | f} (1 - (d_K/p)/p); see
    Cox, *Primes of the form x^2+ny^2*, Thm 7.24, and Buchmann-Vollmer,
    *Binary Quadratic Forms*, for real orders, where h is the wide count.
    ``unit`` is passed on to ``unit_index``.
    """
    h, rest = divmod(h_max * _unit_group_quotient(order),
                     unit_index(order, unit))
    if rest:
        raise DomainError(f"class-number formula is not integral for "
                          f"{order.to_json()} with h(O_K)={h_max}")
    return h


def match_conductor(given: OrderDescriptor,
                    search_bound: int = 100) -> ConductorMatch:
    """Least conductor on the opposite side with the same class number.

    Reduced forms are enumerated for the given order and the opposite
    maximal order only, and both summaries are returned with the match;
    every other candidate's class number comes from ``order_class_number``.
    Pic(O_f) maps onto Pic(O_K), so h(O_K) divides every h(O_f): the
    formula's [O_K^*:O_f^*] divides its (O_K/f)^*/(Z/f)^* order. When h(O_K)
    does not divide the given h, no conductor matches and the scan ends at
    f = 1. Without a match inside search_bound, ``NoMatchWithinBound``
    carries the given order's summary. Every candidate order is held to
    ``DISC_LIMIT`` (``BoundExceeded``), the first one beyond it found in
    closed form when the scan ends early.
    """
    given_classes = class_group(given)
    h_given = given_classes.h
    if search_bound >= 1:
        maximal = given.opposite(1)
        maximal_classes = class_group(maximal)
        h_max = maximal_classes.h
        if h_max == h_given:
            return ConductorMatch(given.field_kind, given.conductor, 1, h_given,
                                  given_classes, maximal_classes)
        if h_given % h_max:
            # the scan would find no match and stop at the least f with
            # f^2 |d_K| > DISC_LIMIT, if that f is inside the bound
            f = isqrt(DISC_LIMIT // abs(maximal.discriminant)) + 1
            if f <= search_bound:
                _check_disc_limit(given.opposite(f))
        else:
            unit = (fundamental_unit(maximal).value
                    if maximal.field_kind == "real" else None)
            for f in range(2, search_bound + 1):
                other = given.opposite(f)
                _check_disc_limit(other)
                if order_class_number(other, h_max, unit) == h_given:
                    return ConductorMatch(given.field_kind, given.conductor, f,
                                          h_given, given_classes,
                                          maximal_classes)
    raise NoMatchWithinBound(
        f"no conductor <= {search_bound} matches h={h_given}", given_classes)
