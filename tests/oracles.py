"""Independent reference implementations used only to cross-check results.

Almost nothing here shares code paths with the library: class numbers come
from union-find orbit closure under the elementary substitutions, units from
a direct Pell scan, Lovasz conditions from rational Gram-Schmidt, bases of
a lattice from a transform solved over Q, and short vectors from exhaustive
enumeration. The exception is ``wide_classes_gl2``: it reuses the library's
reduced forms, reduction cycles and continued-fraction equivalence test, and
only its grouping of cycles into module classes (a pairwise GL2(Z) merge) is
independent of ``class_group``'s. ``lll_reference`` is the library's exact
LLL kernel as it stood before its swap reused the Lovász test's product,
kept so that the kernel can be checked against it.
``cold_relation_basis`` is the relation search's lattice reduced in one jump
at its full scale, with that kernel: the search as it stood before it
climbed to the scale in rungs. ``reduce_reference`` is the symbolic layer's
normal form as it stood before its rules were indexed by left word.
``unit_index_reference`` and ``match_conductor_reference`` are the real unit
index and the conductor scan as they stood before the index was stepped in
integers mod f and the scan ended at f = 1 when h(O_K) does not divide the
given class number. ``evaluate_J_reference`` evaluates J for one theta
with the unit side recomputed, as ``evaluate_J`` did before it took every
theta of a case in one call, and ``indefinite_reduced_forms_reference``
enumerates reduced indefinite forms trying every divisor from 1, as before
the loop started above (s - b)/2. ``hcf_generator_reference`` builds the
class-field generator with a sympy resultant and a squarefree test by gcd
with the derivative, as before both moved into exact integers and the
certified j embeddings. The helpers after them
(``cf_reconstruct``, ``ring_class_polynomial``, ``is_irreducible``,
``discriminant``, ``eval_int`` and ``is_reduced_definite``) are checks that
only the tests use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def definite_class_number_orbit(disc: int) -> int:
    """Class count for disc < 0 by orbit closure under S and T moves.

    Seeds every primitive form with a <= sqrt(|disc|/3) + 1 and |b| <= a-range,
    then unions forms connected by (a,b,c) -> (a, b+2a, a+b+c), its inverse,
    and (a,b,c) -> (c,-b,a), capped inside a box that provably contains every
    reduction path from the seeds. Components = classes.
    """
    assert disc < 0 and disc % 4 in (0, 1)
    r = isqrt(abs(disc) // 3) + 1
    cap = (r * r + abs(disc)) // 4 + r + 4

    seeds = []
    for a in range(1, r + 1):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if gcd(gcd(a, abs(b)), c) == 1:
                    seeds.append((a, b, c))

    parent: dict[tuple, tuple] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        if y not in parent:
            parent[y] = y
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def in_box(form):
        a, b, c = form
        return 0 < a <= cap and 0 < c <= cap

    stack = []
    for s in seeds:
        if s not in parent:
            parent[s] = s
        stack.append(s)
    visited = set()
    while stack:
        f = stack.pop()
        if f in visited:
            continue
        visited.add(f)
        a, b, c = f
        neighbours = [(a, b + 2 * a, a + b + c),
                      (a, b - 2 * a, a - b + c),
                      (c, -b, a)]
        for g in neighbours:
            if in_box(g):
                union(f, g)
                if g not in visited:
                    stack.append(g)
    return len({find(s) for s in seeds})


def min_unit_power_in_suborder(eps1, order) -> object:
    """Least power of the maximal-order unit lying in the suborder."""
    from quadexp.quadfield import _in_order

    value = eps1
    for k in range(1, 64):
        if _in_order(value, order):
            return value
        value = value * eps1
    raise AssertionError("no unit power landed in the suborder below 64")


def wide_classes_gl2(cycles, disc: int) -> list:
    """Module (wide) class representatives of a real order by GL2(Z) merging.

    ``cycles`` are the reduction cycles of discriminant disc > 0. Two cycles
    share a class when the larger roots of their least positive-a forms are
    GL2(Z)-equivalent (``sl2_equivalent``), tested for every pair. A class
    takes the representative of the principal cycle when it holds it, of its
    lowest-index cycle otherwise; the principal class comes first, the rest
    sorted by (a, b, c).
    """
    from quadexp.classforms import BinaryQuadraticForm
    from quadexp.quadfield import sl2_equivalent

    def key(form):
        return (form.a, form.b, form.c)

    def representative(cycle):
        return min((form for form in cycle if form.a > 0), key=key)

    thetas = [representative(cycle).theta() for cycle in cycles]
    groups, assigned = [], set()
    for i in range(len(cycles)):
        if i in assigned:
            continue
        group = [i] + [j for j in range(i + 1, len(cycles)) if j not in assigned
                       and sl2_equivalent(thetas[i], thetas[j]).gl2]
        assigned.update(group)
        groups.append(group)

    members = {form: i for i, cycle in enumerate(cycles) for form in cycle}
    b = disc & 1
    form = BinaryQuadraticForm(1, b, (b * b - disc) // 4)
    for _ in range(4 * (isqrt(disc) + 2)):
        if form in members:
            break
        form = form.rho()
    principal = members[form]

    reps = [representative(cycles[principal if principal in group else group[0]])
            for group in groups]
    first = next(k for k, group in enumerate(groups) if principal in group)
    return [reps[first]] + sorted(reps[:first] + reps[first + 1:], key=key)


def gram_schmidt_mu(rows):
    """Rational Gram-Schmidt data (b*, mu) for exact Lovasz verification."""
    n = len(rows)
    bstar = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            num = sum(Fraction(rows[i][k]) * bstar[j][k] for k in range(len(v)))
            den = sum(x * x for x in bstar[j])
            mu[i][j] = num / den
            v = [v[k] - mu[i][j] * bstar[j][k] for k in range(len(v))]
        bstar.append(v)
    return bstar, mu


def is_basis_of(reduced, rows) -> bool:
    """``reduced`` = U ``rows`` for an integer U with det U = +-1.

    ``rows`` must be linearly independent; U is solved over Q from the
    Gram matrix and then checked exactly.
    """
    import sympy

    a, b = sympy.Matrix(rows), sympy.Matrix(reduced)
    if a.shape != b.shape:
        return False
    u = b * a.T * (a * a.T).inv()
    return (all(x.is_integer for x in u) and u * a == b
            and abs(u.det()) == 1)


def lovasz_holds(rows, delta: Fraction) -> bool:
    """Exact size-reduction + Lovasz condition check over Q."""
    bstar, mu = gram_schmidt_mu(rows)
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    norms = [sum(x * x for x in b) for b in bstar]
    for k in range(1, n):
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            return False
    return True


def shortest_vector_brute(rows, coeff_bound: int = 4) -> int:
    """Squared length of the shortest nonzero small-coefficient combination."""
    import itertools

    n = len(rows)
    m = len(rows[0])
    best = None
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if not any(coeffs):
            continue
        v = [sum(coeffs[i] * rows[i][k] for i in range(n)) for k in range(m)]
        norm = sum(x * x for x in v)
        if best is None or norm < best:
            best = norm
    return best


def lll_reference(rows, delta_num=99, delta_den=100):
    """(reduced_rows, transform) of exact integer LLL on independent rows.

    The integral Gram-determinant recurrences and delta ladder of
    ``quadexp._core.lll_reduce_rows``, with the swap recomputing
    d[k-2] d[k] + lam[k][k-1]**2 instead of taking it from the Lovász test,
    and with the transform (transform @ rows == reduced_rows) that the
    kernel does not track.
    """
    n = len(rows)
    b = [list(map(int, r)) for r in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return b, u
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    d[1] = sum(x * x for x in b[0])
    kmax = 1

    def red(k, l):
        if 2 * abs(lam[k][l]) <= d[l]:
            return
        q = (2 * lam[k][l] + d[l]) // (2 * d[l])
        b[k - 1] = [x - q * y for x, y in zip(b[k - 1], b[l - 1])]
        u[k - 1] = [x - q * y for x, y in zip(u[k - 1], u[l - 1])]
        lam[k][l] -= q * d[l]
        for i in range(1, l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
        u[k - 1], u[k - 2] = u[k - 2], u[k - 1]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lab = lam[k][k - 1]
        bness = (d[k - 2] * d[k] + lab * lab) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lab * t) // d[k - 1]
            lam[i][k - 1] = (bness * t + lab * lam[i][k]) // d[k]
        d[k - 1] = bness

    ladder = [(a, c) for a, c in ((3, 4), (9, 10)) if a * delta_den < delta_num * c]
    ladder.append((delta_num, delta_den))
    for num, den in ladder:
        k = 2
        while k <= n:
            if k > kmax:
                kmax = k
                for j in range(1, k + 1):
                    s = sum(x * y for x, y in zip(b[k - 1], b[j - 1]))
                    for i in range(1, j):
                        s = (d[i] * s - lam[k][i] * lam[j][i]) // d[i - 1]
                    if j < k:
                        lam[k][j] = s
                    else:
                        d[k] = s
            while True:
                red(k, k - 1)
                if den * (d[k] * d[k - 2] + lam[k][k - 1] ** 2) < num * d[k - 1] ** 2:
                    swap(k)
                    k = max(2, k - 1)
                else:
                    for l in range(k - 2, 0, -1):
                        red(k, l)
                    k += 1
                    break
    return b, u


def matches_lll_reference(rows, reduced, delta_num=99, delta_den=100) -> bool:
    """``reduced`` is ``lll_reference``'s basis of rows, and the reference's
    transform maps rows to it with determinant +-1."""
    import sympy

    basis, transform = lll_reference(rows, delta_num, delta_den)
    mapped = [[sum(t * row[j] for t, row in zip(u, rows))
               for j in range(len(rows[0]))] for u in transform]
    return (reduced == basis == mapped
            and abs(sympy.Matrix(transform).det()) == 1)


def cold_relation_basis(elements, s: int, delta_num=99, delta_den=100):
    """Coefficient rows of [I | X_s] reduced in one LLL call, from scratch.

    ``elements`` are fixed-point complex numbers (``.re`` and ``.im`` with
    ``mantissa`` and ``scale_bits``); X_s holds their real and imaginary
    parts times 2**s, rounded to the nearest integer (ties away from zero).
    """
    def scaled(part):
        shift = part.scale_bits - s
        if shift <= 0:
            return part.mantissa << -shift
        q, r = divmod(abs(part.mantissa), 1 << shift)
        q += 2 * r >= 1 << shift
        return q if part.mantissa >= 0 else -q

    n = len(elements)
    rows = [[int(i == j) for j in range(n)] + [scaled(z.re), scaled(z.im)]
            for i, z in enumerate(elements)]
    reduced, _ = lll_reference(rows, delta_num, delta_den)
    return [row[:n] for row in reduced]


def reduce_reference(poly, rules, trace=None):
    """Normal form and trace of ``quadexp.sklyanin.reduce`` by scanning.

    Every rule is tried at every position of a word; the leftmost position
    with a match wins, and at it the longest lhs, the first rule on a tie.
    The deglex-greatest word with a match is rewritten, and each rewrite is
    built as the product prefix * rhs * suffix.
    """
    from quadexp.errors import StepBoundExceeded
    from quadexp.sklyanin import (STEP_BOUND, NCPolynomial, TraceStep,
                                  deglex_key, word_str)

    def find_redex(word):
        best = None
        for pos in range(len(word)):
            for rule in rules:
                l = len(rule.lhs)
                if word[pos:pos + l] == rule.lhs and (
                        best is None or l > len(best[1].lhs)):
                    best = (pos, rule)
            if best is not None:
                return best
        return None

    current = poly
    for _ in range(STEP_BOUND):
        target = None
        for w in sorted(current.terms, key=deglex_key, reverse=True):
            hit = find_redex(w)
            if hit is not None:
                target = (w, current.terms[w], *hit)
                break
        if target is None:
            return current
        w, coeff, pos, rule = target
        prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
        replacement = (NCPolynomial.word(prefix) * rule.rhs *
                       NCPolynomial.word(suffix)).scale(coeff)
        current = current - NCPolynomial.word(w, coeff) + replacement
        if trace is not None:
            trace.append(TraceStep(rule.name, pos, word_str(w),
                                   replacement.to_json()))
    raise StepBoundExceeded(f"no normal form within {STEP_BOUND} steps")


def unit_index_reference(order, unit) -> int:
    """[O_K^*:O_f^*] of a real order by powering ``unit`` as an irrational.

    Each power is tested for membership in O_f exactly; the search stops at
    the order of (O_K/f)^*/(Z/f)^*, as ``quadexp.classforms.unit_index`` does.
    """
    from quadexp.classforms import _unit_group_quotient
    from quadexp.errors import DomainError
    from quadexp.quadfield import _in_order

    if order.conductor == 1:
        return 1
    power = unit
    for k in range(1, _unit_group_quotient(order) + 1):
        if _in_order(power, order):
            return k
        power = power * unit
    raise DomainError(f"no power of {unit!r} lies in the order {order.to_json()}")


def match_conductor_reference(given, search_bound: int = 100):
    """``quadexp.classforms.match_conductor`` by trying every f in turn.

    Each f from 1 to search_bound is held to ``DISC_LIMIT`` and compared
    by the class-number formula, with no divisibility exit.
    """
    from quadexp import classforms
    from quadexp.errors import NoMatchWithinBound
    from quadexp.quadfield import fundamental_unit

    given_classes = classforms.class_group(given)
    h_given = given_classes.h
    for f in range(1, search_bound + 1):
        other = given.opposite(f)
        if f == 1:
            maximal_classes = classforms.class_group(other)
            unit = (fundamental_unit(other).value
                    if other.field_kind == "real" else None)
        else:
            classforms._check_disc_limit(other)
        if classforms.order_class_number(other, maximal_classes.h,
                                         unit) == h_given:
            return classforms.ConductorMatch(
                given.field_kind, given.conductor, f, h_given, given_classes,
                maximal_classes)
    raise NoMatchWithinBound(
        f"no conductor <= {search_bound} matches h={h_given}", given_classes)


def evaluate_J_reference(theta, epsilon, p: int):
    """One ``JValue`` of ``quadexp.recognition.evaluate_J``, from scratch.

    log epsilon, log log epsilon and exp(log log epsilon) are recomputed
    for this theta alone, with the same route and |J|^2 = mu^2 checks.
    """
    from quadexp.errors import DomainError, InputRational
    from quadexp.numerics import (GUARD_BITS, _log_positive, exp_cis,
                                  exp_fixed, log_fixed)
    from quadexp.recognition import JValue

    if epsilon.value.cmp(1) <= 0:
        raise DomainError("epsilon must exceed 1")
    if theta.is_rational:
        raise InputRational("theta must be a quadratic irrational")
    w = p + GUARD_BITS
    mu = log_fixed(epsilon.value.to_fixed(w), w)
    phase = exp_cis(theta.to_fixed(w), w)
    product = phase * mu
    expform = phase * exp_fixed(_log_positive(mu, w), w)
    if not product.indistinguishable(expform):
        raise DomainError("independent J evaluation routes disagree")
    jv = JValue(theta, epsilon, mu.rescale(p), product.rescale(p), p)
    if not jv.value.abs2().indistinguishable(jv.mu * jv.mu):
        raise DomainError("|J| does not match log epsilon within bounds")
    return jv


def indefinite_reduced_forms_reference(disc: int):
    """``quadexp.classforms._indefinite_reduced_forms`` trying every a >= 1.

    Every divisor pair (a, n/a) of n = (disc - b^2)/4 is tried for each b.
    """
    from quadexp.classforms import BinaryQuadraticForm

    s = isqrt(disc)
    assert s * s != disc
    forms = set()
    for b in range(2 - (disc & 1), s + 1, 2):
        n = (disc - b * b) // 4
        for a in range(1, isqrt(n) + 1):
            if n % a:
                continue
            for aa in {a, n // a}:
                if s - b < 2 * aa <= s + b:
                    for f in (BinaryQuadraticForm(aa, b, -(n // aa)),
                              BinaryQuadraticForm(-aa, b, n // aa)):
                        if f.is_primitive():
                            forms.add(f)
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def hcf_generator_reference(d: int, f: int, p: int):
    """(generator_minpoly, translate, generator_embedding) of
    ``quadexp.modular.hcf_generator``, by sympy.

    The minimal polynomial is Res_y(Hj(y), (x-y)^2 + t^2 f^2 d) for the
    least t >= 1 that makes it squarefree of degree 2h. Hj and j(tau_1)
    come from ``modular.ring_class_polynomial_detailed``, looked up at call
    time, so a test that replaces it changes both builds alike.
    """
    import sympy
    from quadexp import modular
    from quadexp.numerics import FixedComplex, sqrt_fixed

    detail = modular.ring_class_polynomial_detailed(d, f, p)
    hj = detail.polynomial
    x, y = sympy.symbols("x y")
    hj_expr = sympy.Poly(list(reversed(hj.coefficients)), y).as_expr()
    for t in range(1, 64):
        res = sympy.resultant(hj_expr, (x - y) ** 2 + t * t * f * f * d, y)
        cand = sympy.Poly(sympy.expand(res), x)
        if cand.degree() == 2 * hj.degree \
                and cand.gcd(cand.diff()).degree() == 0:
            poly = modular.IntegerPolynomial(
                tuple(int(c) for c in reversed(cand.all_coeffs())))
            j1 = detail.j_embeddings[0]
            gamma = FixedComplex(j1.re, j1.im + sqrt_fixed(d, p) * (t * f))
            return poly.normalized(), t, gamma
    raise AssertionError("no squarefree translate found below 64")


def cf_reconstruct(expansion):
    """Exact value of a ``CFExpansion``; the inverse of ``cf_expand``."""
    from quadexp.quadfield import QuadraticIrrational, _convergent_matrix

    assert expansion.period, "period must be nonempty"
    p, pp, q, qq = _convergent_matrix(expansion.period)
    # periodic tail y satisfies q y^2 + (qq - p) y - pp = 0; reduce the
    # content first so the radicand to split stays small
    ca, cb, cc = q, qq - p, -pp
    g = gcd(gcd(ca, abs(cb)), abs(cc))
    ca, cb, cc = ca // g, cb // g, cc // g
    disc = cb * cb - 4 * ca * cc
    plus = QuadraticIrrational(-cb, 1, 2 * ca, disc)
    x = plus if plus.cmp(1) > 0 else QuadraticIrrational(-cb, -1, 2 * ca, disc)
    for a in reversed(expansion.preperiod):
        x = QuadraticIrrational.from_rational(a) + \
            QuadraticIrrational.from_rational(1) / x
    return x


def ring_class_polynomial(d: int, f: int, p: int, cache_dir=None):
    """The polynomial of ``modular.ring_class_polynomial_detailed``."""
    from quadexp.modular import ring_class_polynomial_detailed

    return ring_class_polynomial_detailed(d, f, p, cache_dir).polynomial


def is_irreducible(poly) -> bool:
    """An ``IntegerPolynomial`` of positive degree irreducible over Q."""
    if poly.degree < 1:
        return False
    factors = _sympy_poly(poly.normalized()).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def discriminant(poly) -> int:
    """The discriminant of an ``IntegerPolynomial``."""
    return int(_sympy_poly(poly).discriminant())


def _sympy_poly(poly):
    """An ``IntegerPolynomial`` as a sympy ``Poly`` in x."""
    import sympy

    return sympy.Poly(list(reversed(poly.coefficients)), sympy.Symbol("x"))


def eval_int(poly, n: int) -> int:
    """An ``IntegerPolynomial`` at the integer n, by Horner's rule."""
    acc = 0
    for c in reversed(poly.coefficients):
        acc = acc * n + c
    return acc


def is_reduced_definite(form) -> bool:
    """A positive definite form with |b| <= a <= c, and b >= 0 when
    |b| = a or a = c."""
    a, b, c = form.a, form.b, form.c
    if form.discriminant >= 0 or a <= 0:
        return False
    if not (abs(b) <= a <= c):
        return False
    return not ((abs(b) == a or a == c) and b < 0)
