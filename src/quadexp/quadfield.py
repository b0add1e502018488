"""Exact arithmetic in real quadratic fields.

QuadraticIrrational stores (a + b*sqrt(d))/c in lowest terms with d
square-free, so equality and hashing are structural. Its field arithmetic
(+, -, *, /) serves ``sl2_equivalent``, which hashes expansion states and
checks its witness matrix exactly; its exact comparisons and fixed-point
image serve the rest of the package. Continued fractions run on plain
integers instead: a complete quotient (P + sqrt D)/Q, with Q | D - P^2, is
stepped by one integer recurrence. Fundamental units of orders and the
SL2(Z)/GL2(Z) equivalence of quadratic irrationals are read off those
expansions; states become QuadraticIrrationals only where
``sl2_equivalent`` compares two expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError, InputRational
from .numerics import FixedReal, sqrt_fixed


def _prime_powers(n: int):
    """(p, e) for each prime power p**e exactly dividing n > 0, p rising."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*r with r square-free; returns (s, r). n must be positive."""
    s, r = 1, 1
    for p, e in _prime_powers(n):
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    return _squarefree_split(n)[0] == 1


class QuadraticIrrational:
    """(a + b*sqrt(d))/c with c > 0, gcd(a, b, c) = 1, d square-free.

    b may be zero, in which case the value is rational and d is stored as 1;
    operations that need irrationality raise InputRational.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise DomainError("radicand must be positive")
        if b != 0:
            s, r = _squarefree_split(d)
            b *= s
            d = r
        if d == 1:
            a, b, d = a + b, 0, 1
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a //= g
            b //= g
            c //= g
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "QuadraticIrrational":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 1)

    # -- structure -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _require_irrational(self):
        if self.b == 0:
            raise InputRational(f"{self!r} is rational")

    def __eq__(self, other):
        if not isinstance(other, QuadraticIrrational):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        if self.b == 0:
            return f"({self.a}/{self.c})"
        return f"(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    # -- field arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadraticIrrational):
            if self.b and other.b and self.d != other.d:
                raise DomainError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticIrrational.from_rational(other)
        return None

    def _dd(self, other: "QuadraticIrrational") -> int:
        return self.d if self.b else other.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._dd(o)
        return QuadraticIrrational(self.a * o.c + o.a * self.c,
                                   self.b * o.c + o.b * self.c,
                                   self.c * o.c, d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __neg__(self):
        return QuadraticIrrational(-self.a, -self.b, self.c, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._dd(o)
        return QuadraticIrrational(self.a * o.a + self.b * o.b * d,
                                   self.a * o.b + self.b * o.a,
                                   self.c * o.c, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError
        d = self._dd(o)
        # multiply by the conjugate of o
        na = self.a * o.a - self.b * o.b * d
        nb = self.b * o.a - self.a * o.b
        nc = self.c * (o.a * o.a - o.b * o.b * d)
        return QuadraticIrrational(na * o.c, nb * o.c, nc, d)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.d,
                        self.c * self.c)

    # -- order and comparisons -------------------------------------------------

    def _cmp_fraction(self, num: int, den: int) -> int:
        """Exact sign of self - num/den (den > 0)."""
        # sign of (a*den - num*c) + b*den*sqrt(d)
        s1 = self.a * den - num * self.c
        s2 = self.b * den
        if s2 == 0:
            return (s1 > 0) - (s1 < 0)
        if s1 >= 0 and s2 > 0:
            return 1
        if s1 <= 0 and s2 < 0:
            return -1
        # opposite signs: compare s1^2 against s2^2 d
        t = s1 * s1 - s2 * s2 * self.d
        if s1 > 0:  # s2 < 0
            return (t > 0) - (t < 0)
        return (t < 0) - (t > 0)

    def cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return self._cmp_fraction(f.numerator, f.denominator)
        diff = self - other
        return diff._cmp_fraction(0, 1)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def to_fixed(self, p: int) -> FixedReal:
        """Numeric image at p bits with a certified error bound."""
        if self.b == 0:
            return FixedReal.from_ratio(self.a, self.c, p)
        w = p + 32
        s = sqrt_fixed(self.d, w)
        x = (s * self.b + FixedReal.from_int(self.a, w)).div_int(self.c)
        return x.rescale(p)


@dataclass(frozen=True)
class OrderDescriptor:
    """An order Z + conductor * O in a quadratic field of radicand d."""

    field_kind: str  # "real" | "imaginary"
    d: int
    conductor: int

    def __post_init__(self):
        if self.field_kind not in ("real", "imaginary"):
            raise DomainError("field_kind must be 'real' or 'imaginary'")
        if self.conductor < 1:
            raise DomainError("conductor must be >= 1")
        if not is_squarefree(self.d):
            raise DomainError("d must be a square-free positive integer")
        if self.field_kind == "real" and self.d < 2:
            raise DomainError("real quadratic field needs d >= 2")

    @property
    def fundamental_discriminant(self) -> int:
        if self.field_kind == "real":
            return self.d if self.d % 4 == 1 else 4 * self.d
        md = -self.d
        return md if md % 4 == 1 else 4 * md

    @property
    def discriminant(self) -> int:
        return self.conductor * self.conductor * self.fundamental_discriminant

    def opposite(self, conductor: int) -> "OrderDescriptor":
        kind = "imaginary" if self.field_kind == "real" else "real"
        return OrderDescriptor(kind, self.d, conductor)

    def to_json(self) -> dict:
        return {"field_kind": self.field_kind, "d": self.d,
                "conductor": self.conductor, "discriminant": self.discriminant}


@dataclass(frozen=True)
class UnitElement:
    """A unit of a real quadratic order, > 1 in the embedding sqrt(d) > 0."""

    value: QuadraticIrrational
    norm: int

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "norm": self.norm}


def _expansion_states(p: int, q: int, disc: int):
    """Continued fraction of (p + sqrt disc)/q, q | disc - p^2, until the
    first repeated complete quotient.

    Returns (digits, states, k, ell): states[i] = (P_i, Q_i) gives the i-th
    complete quotient (P_i + sqrt disc)/Q_i, and states[k] == states[k + ell]
    is the first repeat. Each step is a = floor((P + sqrt disc)/Q),
    P' = aQ - P, Q' = (disc - P'^2)/Q (Buchmann-Vollmer, *Binary Quadratic
    Forms*, ch. 6; Cohen, GTM 138, 5.7); Q | disc - P^2 is kept throughout.
    """
    s = isqrt(disc)
    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for i in range(100000):
        if (p, q) in seen:
            k = seen[p, q]
            return digits, list(seen), k, i - k
        seen[p, q] = i
        # floor((p + sqrt disc)/q), sqrt disc irrational in (s, s + 1)
        a = (p + s + (q < 0)) // q
        digits.append(a)
        p = a * q - p
        q = (disc - p * p) // q
    raise DomainError("continued fraction did not cycle within step bound")


def fundamental_unit(order: OrderDescriptor) -> UnitElement:
    """Smallest unit > 1 of the real quadratic order, via the CF period.

    omega = (D mod 2 + sqrt D)/2 generates the order of discriminant D; with
    xi its first repeated complete quotient and (q, qq) the convergent
    denominators of one period, the unit is q xi + qq.
    """
    if order.field_kind != "real":
        raise DomainError("fundamental unit only for real quadratic orders")
    disc = order.discriminant
    digits, states, k, ell = _expansion_states(disc % 2, 2, disc)
    pk, qk = states[k]
    _p, _pp, q, qq = _convergent_matrix(digits[k:k + ell])
    eps = QuadraticIrrational(pk * q + qq * qk, q, qk, disc)
    n = eps.norm()
    if n not in (1, -1):
        raise DomainError(f"unit computation produced norm {n}")
    if eps.cmp(1) <= 0:
        raise DomainError("unit computation produced a value <= 1")
    if not _in_order(eps, order):
        raise DomainError("unit computation left the order")
    return UnitElement(eps, int(n))


def _in_order(x: QuadraticIrrational, order: OrderDescriptor) -> bool:
    """x in Z + f*O for the real order (exact integrality test)."""
    coords = _integral_coordinates(x, order.d)
    return coords is not None and coords[1] % order.conductor == 0


def _integral_coordinates(x: QuadraticIrrational, d: int):
    """(u, v, t, n) with x = u + v w, w^2 = t w + n, in the basis (1, w) of
    the maximal order of Q(sqrt d), or None when u or v is not an integer.
    w = (1 + sqrt d)/2 when d = 1 mod 4, else sqrt d; x lies in Q(sqrt d)."""
    a, b, c = x.a, x.b, x.c
    if d % 4 == 1:  # x = (a - b)/c + (2b/c) w
        u, v, t, n = a - b, 2 * b, 1, (d - 1) // 4
    else:  # x = a/c + (b/c) w
        u, v, t, n = a, b, 0, d
    if u % c or v % c:
        return None
    return u // c, v // c, t, n


def pell_min_solution(D: int, limit: int = 10**7) -> tuple[int, int]:
    """Minimal (t, u), u >= 1, with t^2 - D u^2 = +-4, by direct scan.

    Independent testing oracle: no continued fractions involved.
    """
    for u in range(1, limit + 1):
        v = D * u * u
        for target in (v - 4, v + 4):
            if target >= 0:
                t = isqrt(target)
                if t * t == target and (t - u * D) % 2 == 0:
                    return t, u
    raise DomainError(f"no Pell solution with u <= {limit} for D={D}")


@dataclass
class EquivalenceResult:
    """Outcome of the tail-matching equivalence test for two irrationals."""

    sl2: bool
    gl2: bool
    witness: tuple[int, int, int, int] | None = None  # det +1 when sl2
    witness_gl2: tuple[int, int, int, int] | None = None


def _convergent_matrix(digits) -> tuple[int, int, int, int]:
    """Product of [[a,1],[1,0]]; maps the tail back to the full value."""
    p, pp = 1, 0
    q, qq = 0, 1
    for a in digits:
        p, pp = a * p + pp, p
        q, qq = a * q + qq, q
    return p, pp, q, qq


def _moebius(mat, x: QuadraticIrrational) -> QuadraticIrrational:
    a, b, c, d = mat
    return (x * a + b) / (x * c + d)


def _check_witness(mat, theta, theta2) -> None:
    if _moebius(mat, theta) != theta2:
        raise DomainError(f"witness {mat} does not map {theta!r} to {theta2!r}")


def _mat_mul(m1, m2):
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adjugate(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def _irrational_states(theta: QuadraticIrrational):
    """``_expansion_states`` of theta, each state as a QuadraticIrrational.

    theta = (p + sqrt disc)/q, scaled by |q| where q does not divide
    disc - p^2.
    """
    theta._require_irrational()
    sign = 1 if theta.b > 0 else -1
    p, q, disc = sign * theta.a, sign * theta.c, theta.b * theta.b * theta.d
    if (disc - p * p) % q:
        p, q, disc = p * abs(q), q * abs(q), disc * q * q
    digits, states, k, ell = _expansion_states(p, q, disc)
    return (digits, [QuadraticIrrational(p, 1, q, disc) for p, q in states],
            k, ell)


def sl2_equivalent(theta: QuadraticIrrational,
                   theta2: QuadraticIrrational) -> EquivalenceResult:
    """Decide theta2 = (a theta + b)/(c theta + d) for SL2(Z) (and GL2(Z)).

    Tails of the continued fraction expansions are matched; the shift parity
    fixes the determinant, and an odd period length allows flipping it. Both
    verdicts are reported since the wide/proper distinction matters upstream.
    """
    d1, s1, k1, l1 = _irrational_states(theta)
    d2, s2, k2, l2 = _irrational_states(theta2)
    cyc1 = s1[k1:k1 + l1]
    cyc2 = s2[k2:k2 + l2]
    if len(cyc1) != len(cyc2) or set(cyc1) != set(cyc2):
        return EquivalenceResult(False, False)
    xi = cyc1[0]
    i1 = k1
    i2 = s2.index(xi)
    m1 = _convergent_matrix(d1[:i1])
    m2 = _convergent_matrix(d2[:i2])
    w = _mat_mul(m2, _adjugate(m1))
    det = (-1) ** (i1 + i2)
    if det == 1:
        _check_witness(w, theta, theta2)
        return EquivalenceResult(True, True, witness=w, witness_gl2=w)
    if l1 % 2 == 1:
        # going once more around the cycle flips the parity
        ext = [d2[j] if j < len(d2) else d2[k2 + (j - k2) % l2]
               for j in range(i2 + l1)]
        m2b = _convergent_matrix(ext)
        w2 = _mat_mul(m2b, _adjugate(m1))
        _check_witness(w2, theta, theta2)
        return EquivalenceResult(True, True, witness=w2, witness_gl2=w)
    _check_witness(w, theta, theta2)
    return EquivalenceResult(False, True, witness_gl2=w)
