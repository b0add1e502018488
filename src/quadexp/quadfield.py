"""Exact arithmetic in real quadratic fields.

QuadraticIrrational stores (a + b*sqrt(d))/c in lowest terms with d
square-free, so equality and hashing are structural. Continued fractions,
fundamental units of orders, and SL2(Z)/GL2(Z) equivalence of quadratic
irrationals are built on top of that exact representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError, InputRational
from .numerics import FixedReal, sqrt_fixed


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*r with r square-free; returns (s, r). n must be positive."""
    s, r = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1 if p == 2 else 2
    return s, r * m


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

    @classmethod
    def sqrt_of(cls, d: int) -> "QuadraticIrrational":
        return cls(0, 1, 1, d)

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

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

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

    __rmul__ = __mul__

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return (QuadraticIrrational.from_rational(1) / self) ** (-n)
        r = QuadraticIrrational.from_rational(1)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational(self.a, -self.b, self.c, self.d)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.d,
                        self.c * self.c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise InputRational("not rational")
        return Fraction(self.a, self.c)

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

    def floor(self) -> int:
        if self.b == 0:
            return self.a // self.c
        t = isqrt(self.b * self.b * self.d)
        # floor(b*sqrt(d)) is t for b > 0 and -t-1 for b < 0 (never exact)
        fl = t if self.b > 0 else -t - 1
        n = (self.a + fl) // self.c
        while self._cmp_fraction(n + 1, 1) >= 0:
            n += 1
        while self._cmp_fraction(n, 1) < 0:
            n -= 1
        return n

    def to_fixed(self, p: int) -> FixedReal:
        """Numeric image at p bits with a certified error bound."""
        if self.b == 0:
            return FixedReal.from_ratio(self.a, self.c, p)
        w = p + 32
        s = sqrt_fixed(self.d, w)
        x = (s * self.b + FixedReal.from_int(self.a, w)).div_int(self.c)
        return x.rescale(p)

    def to_float(self) -> float:
        return self.to_fixed(64).to_float()


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
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def reconstruct(self) -> QuadraticIrrational:
        """Exact value of the expansion; inverse of cf_expand."""
        if not self.period:
            raise DomainError("period must be nonempty")
        p, pp = 1, 0  # convergent numerators over one period
        q, qq = 0, 1
        for a in self.period:
            p, pp = a * p + pp, p
            q, qq = a * q + qq, q
        # periodic tail y satisfies q y^2 + (qq - p) y - pp = 0; reduce the
        # content first so the radicand to split stays small
        ca, cb, cc = q, qq - p, -pp
        g = gcd(gcd(ca, abs(cb)), abs(cc))
        ca, cb, cc = ca // g, cb // g, cc // g
        disc = cb * cb - 4 * ca * cc
        plus = QuadraticIrrational(-cb, 1, 2 * ca, disc)
        y = plus if plus.cmp(1) > 0 else QuadraticIrrational(-cb, -1, 2 * ca, disc)
        x = y
        for a in reversed(self.preperiod):
            x = QuadraticIrrational.from_rational(a) + \
                QuadraticIrrational.from_rational(1) / x
        return x


@dataclass(frozen=True)
class UnitElement:
    """A unit of a real quadratic order, > 1 in the embedding sqrt(d) > 0."""

    value: QuadraticIrrational
    norm: int

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "norm": self.norm}


def _expansion_states(theta: QuadraticIrrational, max_steps: int = 100000):
    """Partial quotients and complete quotients until the first repeat.

    Returns (digits, states, k, ell): states[i] is the i-th complete
    quotient, states[k] == states[k + ell] is the first repeated state.
    """
    theta._require_irrational()
    digits: list[int] = []
    states: list[QuadraticIrrational] = []
    seen: dict[QuadraticIrrational, int] = {}
    x = theta
    for i in range(max_steps):
        if x in seen:
            k = seen[x]
            return digits, states, k, i - k
        seen[x] = i
        states.append(x)
        a = x.floor()
        digits.append(a)
        frac = x - a
        x = QuadraticIrrational.from_rational(1) / frac
    raise DomainError("continued fraction did not cycle within step bound")


def cf_expand(theta: QuadraticIrrational) -> CFExpansion:
    """Eventually periodic continued fraction of a quadratic irrational."""
    digits, _states, k, ell = _expansion_states(theta)
    return CFExpansion(tuple(digits[:k]), tuple(digits[k:k + ell]))


def _order_generator(order: OrderDescriptor) -> QuadraticIrrational:
    """omega with Z + Z*omega equal to the order (real case)."""
    disc = order.discriminant
    # sqrt(disc) = g * sqrt(d)
    g = order.conductor * (1 if order.fundamental_discriminant == order.d else 2)
    b0 = disc % 2
    return QuadraticIrrational(b0, g, 2, order.d)


def fundamental_unit(order: OrderDescriptor) -> UnitElement:
    """Smallest unit > 1 of the real quadratic order, via the CF period."""
    if order.field_kind != "real":
        raise DomainError("fundamental unit only for real quadratic orders")
    omega = _order_generator(order)
    digits, states, k, ell = _expansion_states(omega)
    xi = states[k]
    p, pp = 1, 0
    q, qq = 0, 1
    for a in digits[k:k + ell]:
        p, pp = a * p + pp, p
        q, qq = a * q + qq, q
    eps = xi * q + qq
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
    f = order.conductor
    d = order.d
    # omega_1 = (1+sqrt d)/2 when d = 1 mod 4 else sqrt d
    if d % 4 == 1:
        y = Fraction(2 * x.b, x.c * f)
        if y.denominator != 1:
            return False
        rest = Fraction(x.a, x.c) - y * Fraction(f, 2)
        return rest.denominator == 1
    y = Fraction(x.b, x.c * f)
    if y.denominator != 1:
        return False
    return Fraction(x.a, x.c).denominator == 1


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

    def __bool__(self):
        return self.sl2

    def to_json(self) -> dict:
        return {"sl2": self.sl2, "gl2": self.gl2, "witness": self.witness,
                "witness_gl2": self.witness_gl2}


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


def sl2_equivalent(theta: QuadraticIrrational,
                   theta2: QuadraticIrrational) -> EquivalenceResult:
    """Decide theta2 = (a theta + b)/(c theta + d) for SL2(Z) (and GL2(Z)).

    Tails of the continued fraction expansions are matched; the shift parity
    fixes the determinant, and an odd period length allows flipping it. Both
    verdicts are reported since the wide/proper distinction matters upstream.
    """
    theta._require_irrational()
    theta2._require_irrational()
    d1, s1, k1, l1 = _expansion_states(theta)
    d2, s2, k2, l2 = _expansion_states(theta2)
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
