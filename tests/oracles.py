"""Independent reference implementations used only to cross-check results.

Almost nothing here shares code paths with the library: class numbers come
from union-find orbit closure under the elementary substitutions, units from
a direct Pell scan, order membership from Fractions in
``in_order_reference`` (``quadfield._in_order`` as it stood before it read
the (1, w) coordinates of ``quadfield._integral_coordinates``), Lovasz
conditions from rational Gram-Schmidt, determinants from elimination over
Q (``det_reference``), bases of a lattice from a transform solved over Q,
and short vectors from exhaustive enumeration. The exception
is ``wide_classes_gl2``: it reuses the library's reduced forms, reduction
cycles and continued-fraction equivalence test, and only its grouping of
cycles into module classes (a pairwise GL2(Z) merge) is independent of
``class_group``'s. ``rho_reference`` and ``is_reduced_indefinite_reference``
are the reduction step and the reduced-form test on (a, b, c) triples,
written from their definitions: the cycle references walk with the first,
and the tests hold ``classforms._rho`` to both.
``lll_reference`` is the library's exact LLL kernel as it stood before its
swap reused the Lovász test's product and its Gram-Schmidt data were
computed up front, kept so that the kernel can be checked against it.
``float_lll_reference`` is the float LLL kernel as it stood before its loop
was fused, kept for the same check.
``cold_relation_basis`` is the relation search's lattice reduced in one jump
at its full scale, with that kernel: the search as it stood before it
climbed to the scale in rungs. ``reduce_reference`` is the symbolic layer's
normal form as it stood before its rules were indexed by left word, and
``complete_reference`` its completion, reducing through it, as it stood
before one rule index served a whole completion. ``check_certificate``
checks a reduction's certificate by substituting its listed rewrites.
``unjoined_overlaps`` lists the critical pairs of a completion's final
rules that its index does not join, each overlap built with the positions
of both left words by ``overlaps_reference``, for the critical-pair
lemma's check of ``complete``.
``laurent_add``, ``laurent_neg``, ``laurent_mul``, ``laurent_inverse`` and
``laurent_conjugate`` are the symbolic layer's coefficient arithmetic on
plain {monomial: Fraction} dicts, with Fractions throughout, as it stood
before integral coefficients were stored as ints.
``unit_index_reference`` and ``match_conductor_reference`` are the real unit
index and the conductor scan as they stood before the index was stepped in
integers mod f and the scan ended at f = 1 when h(O_K) does not divide the
given class number; neither imports ``quadexp.classforms``' formula. Q_f
comes from ``unit_group_quotient_reference`` in Fractions, with the
Kronecker symbols of ``kronecker_reference`` (sympy's Legendre symbol, the
mod-8 rule at 2), and the scan compares the ``class_number_reference`` of
each f, built from those parts and the imaginary unit indices 3, 2, 1.
``evaluate_J_reference`` evaluates J for one theta with the unit side
recomputed, as ``evaluate_J`` did before it took every theta of a case in
one call, and ``indefinite_reduced_forms_reference`` enumerates reduced
indefinite forms trying every divisor from 1, as before the loop started
above (s - b)/2. ``indefinite_cycles_reference`` walks
the reduction cycle of every form with ``rho_reference``, and
``class_group_reference`` composes it with those forms and
``wide_classes_gl2``: the real class group without the walk's pairing of
each cycle with its negative or its stop at the formula's cycle count.
Forms are (a, b, c) int triples throughout, as in the library.
``expansion_states_reference`` is the continued fraction stepped on
``QuadraticIrrational`` objects by ``floor_reference``, with ``cf_expand``
(and its ``CFExpansion``) and ``fundamental_unit_reference`` built on it,
as before the expansion ran as the integer (P, Q) recurrence.
``hcf_generator_reference`` builds the class-field generator with a sympy
resultant and a squarefree test by gcd with the derivative, as before both
moved into exact integers and the certified j embeddings.
``exp_fixed_reference``, ``exp_cis_reference`` and ``log_positive_reference``
(with ``_exp_series_reference`` and ``_log_mantissa_reference``) are the
numerics kernels as they stood before their series ran on reduced arguments:
full-length series at the working precision, and exp_cis turning by eighths.
``factor_irreducible_reference`` is ``IntegerPolynomial.factor_irreducible``
as it stood before the degree-pattern test: sympy's ``factor_list`` of the
primitive part, every factor repeated by its multiplicity.
The helpers after them
(``cf_reconstruct``, ``ring_class_polynomial``, ``is_irreducible``,
``factor_degrees_mod``, ``discriminant``, ``eval_int`` and
``is_reduced_definite``) are checks that only the tests use,
``complex_of_real`` puts a real probe on the complex side, and
``control_value`` with ``control_minpoly`` builds positive controls for the
relation search: values with a known minimal polynomial of chosen degree
and height.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, frexp, gcd, isqrt, ldexp
from operator import mul


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


def in_order_reference(x, order) -> bool:
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


def min_unit_power_in_suborder(eps1, order) -> object:
    """Least power of the maximal-order unit lying in the suborder."""
    value = eps1
    for k in range(1, 64):
        if in_order_reference(value, order):
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
    from quadexp.quadfield import QuadraticIrrational, sl2_equivalent

    def representative(cycle):
        return min(form for form in cycle if form[0] > 0)

    def larger_root(form):
        a, b, c = form
        return QuadraticIrrational(-b, 1, 2 * a, b * b - 4 * a * c)

    thetas = [larger_root(representative(cycle)) for cycle in cycles]
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
    q = (1, b, (b * b - disc) // 4)
    for _ in range(4 * (isqrt(disc) + 2)):
        if q in members:
            break
        q = rho_reference(q)
    principal = members[q]

    reps = [representative(cycles[principal if principal in group else group[0]])
            for group in groups]
    first = next(k for k, group in enumerate(groups) if principal in group)
    return [reps[first]] + sorted(reps[:first] + reps[first + 1:])


def rho_reference(q) -> tuple[int, int, int]:
    """The reduction step on a triple (a, b, c) of discriminant D > 0.

    rho(a, b, c) = (c, r, (r^2 - D)/(4c)), where r = -b mod 2|c| lies in
    (sqrt D - 2|c|, sqrt D): r = s - ((s + b) mod 2|c|), s = isqrt(D).
    """
    a, b, c = q
    disc = b * b - 4 * a * c
    assert disc > 0
    s = isqrt(disc)
    r = s - (s + b) % (2 * abs(c))
    return c, r, (r * r - disc) // (4 * c)


def is_reduced_indefinite_reference(q) -> bool:
    """0 < b < sqrt D and sqrt D - b < 2|a| < sqrt D + b for (a, b, c)."""
    a, b, c = q
    disc = b * b - 4 * a * c
    if disc <= 0 or b <= 0 or b * b >= disc:
        return False
    aa = 2 * abs(a)
    if disc >= (aa + b) ** 2:
        return False
    return aa <= b or (aa - b) ** 2 < disc


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


def det_reference(matrix) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    Q, with Fractions and a swap for each zero pivot."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            ratio = m[i][k] / m[k][k]
            m[i] = [x - ratio * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


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

    The integral Gram-determinant recurrences of
    ``quadexp._core.lll_reduce_rows``, reducing at delta directly as it
    does, but in a second formulation: the Gram-Schmidt data of row k are
    computed lazily, when k first exceeds every row reached before
    (``kmax``), where the kernel computes all of them up front with
    ``_gram_schmidt``; the swap recomputes d[k-2] d[k] + lam[k][k-1]**2
    instead of taking it from the Lovász test; and the transform
    (transform @ rows == reduced_rows), which the kernel does not track, is
    kept.
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
        red(k, k - 1)
        if (delta_den * (d[k] * d[k - 2] + lam[k][k - 1] ** 2)
                < delta_num * d[k - 1] ** 2):
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
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


def float_lll_reference(rows):
    """``quadexp._core.lll_reduce_rows_float`` as it stood before its loop
    was fused: the float L² kernel run through ``_gso_row``,
    ``_size_reduce``, ``_apply_steps`` and ``_float_swap``, converting the
    Gram diagonal on every Lovász test and multiplying out every step.
    Returns the reduced rows or raises ``FloatBreakdown``, as the kernel
    does.
    """
    from quadexp._core import FloatBreakdown, _int_rows

    b = _int_rows(rows)
    try:
        _float_lll(b)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise FloatBreakdown(f"{type(exc).__name__}: {exc}") from exc
    return b


def _float_lll(b):
    """Reduce the rows b in place at each Lovász parameter of ``LADDER``."""
    from math import log2

    from quadexp._core import (LADDER, FloatBreakdown, _dot, _exponent,
                               _scaled)

    n = len(b)
    if n == 0:
        return
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            G[i][j] = G[j][i] = _dot(b[i], b[j])
        if G[i][i] == 0:
            raise FloatBreakdown("zero row")
    e = [_exponent(G[i][i]) for i in range(n)]
    mu = [[] for _ in range(n)]
    r = [[] for _ in range(n)]
    r[0].append(_scaled(G[0][0], 2 * e[0]))
    for num, den in LADDER:
        delta = num / den
        # each swap lowers the potential prod_i d_i, which is at most
        # 2**(sum_i (n-1-i) log2 ||b_i||^2) and at least 1, by a factor
        # below delta, or below (1 + delta) / 2 allowing for rounding in the
        # test; more swaps than that allows mean the float data are lost
        potential = sum((n - 1 - i) * G[i][i].bit_length() for i in range(n))
        swaps_left = int(potential / -log2((1 + delta) / 2)) + 1
        k = 1
        # row k is size-reduced already: it is the row just swapped down
        reduced = False
        while k < n:
            if not reduced:
                _size_reduce(b, G, e, mu, r, k)
            muk, rk = mu[k], r[k]
            # s = ||b_k*||^2 + mu_k,k-1^2 ||b_(k-1)*||^2, the squared norm
            # b_k* would have at k-1; r[k][k] alone cancels
            s = _scaled(G[k][k], 2 * e[k]) - sum(map(mul, muk[:k - 1], rk))
            if not 0 < s <= 2:
                raise FloatBreakdown(f"squared norm {s} at row {k}")
            lhs = delta * r[k - 1][k - 1]
            t = 2 * (e[k - 1] - e[k])
            if (lhs <= ldexp(s, -t)) if t >= 0 else (ldexp(lhs, t) <= s):
                rkk = s - muk[k - 1] * rk[k - 1]
                if not rkk > 0:
                    raise FloatBreakdown(f"squared norm {rkk} at row {k}")
                rk[k:] = [rkk]
                k += 1
                reduced = False
                continue
            swaps_left -= 1
            if swaps_left < 0:
                raise FloatBreakdown("more swaps than an exact reduction")
            _float_swap(b, G, e, mu, r, k, s)
            # b_k, now at k-1, stays reduced against the rows below k-1
            reduced = k > 1
            k = max(k - 1, 1)


def _gso_row(G, e, mu, r, k):
    """Complete the columns j < k of row k's float data from its prefix."""
    from quadexp._core import _scaled

    Gk, ek, muk, rk = G[k], e[k], mu[k], r[k]
    for j in range(len(muk), k):
        rkj = _scaled(Gk[j], ek + e[j]) - sum(map(mul, mu[j], rk))
        rk.append(rkj)
        muk.append(rkj / r[j][j])


def _size_reduce(b, G, e, mu, r, k):
    """Size-reduce row k against the rows below it, as in L².

    A pass recomputes row k's float data from the Gram matrix, then rounds
    each mu_kj with |mu_kj| > 1/2, as the exact kernel does, for j = k-1
    down to 0, updating the mu_kj below j as it goes, and applies the
    rounded steps to the exact rows and Gram matrix. Passes repeat until
    one rounds nothing. Each pass shortens the unreduced part of b_k by the
    bits its mu were correct to, so a pass that gains less than a bit on
    average (a mu near 1/2 rounded back and forth, say) means the float
    data are lost.
    """
    from quadexp._core import FloatBreakdown, _exponent

    passes = G[k][k].bit_length() + 8
    while True:
        _gso_row(G, e, mu, r, k)
        muk, ek = mu[k], e[k]
        steps = []
        for j in range(k - 1, -1, -1):
            v = muk[j]
            m, ex = frexp(v)
            # |mu_kj| = |m| 2**ex with 1/2 <= |m| < 1, or mu_kj = m = 0
            ex += ek - e[j]
            if ex < 0 or not m:
                continue
            if ex <= 53:
                x = round(ldexp(v, ek - e[j]))
                if not x:
                    continue
                xs = ldexp(x, e[j] - ek)
            else:
                x = int(ldexp(m, 53)) << (ex - 53)
                xs = v
            steps.append((j, x))
            muk[:j] = [a - xs * c for a, c in zip(muk, mu[j])]
        if not steps:
            return
        _apply_steps(b, G, k, steps)
        if G[k][k] == 0:
            raise FloatBreakdown("zero row")
        e[k] = _exponent(G[k][k])
        passes -= 1
        if passes < 0:
            raise FloatBreakdown(f"size reduction of row {k} stalls")
        del muk[:], r[k][:]


def _apply_steps(b, G, k, steps):
    """b_k -= x b_j for each (j, x), keeping the Gram matrix exact."""
    bk, Gk = b[k], G[k]
    for j, x in steps:
        Gj = G[j]
        # Gj[k] is stale here; the entry it feeds is replaced by gkk
        gkk = Gk[k] - 2 * x * Gk[j] + x * x * Gj[j]
        bk = [a - x * c for a, c in zip(bk, b[j])]
        Gk = [a - x * c for a, c in zip(Gk, Gj)]
        Gk[k] = gkk
    b[k], G[k] = bk, Gk
    for i, row in enumerate(G):
        row[k] = Gk[i]


def _float_swap(b, G, e, mu, r, k, s):
    """Swap rows k-1 and k; s is the new squared norm of b_(k-1)*."""
    b[k - 1], b[k] = b[k], b[k - 1]
    G[k - 1], G[k] = G[k], G[k - 1]
    for row in G:
        row[k - 1], row[k] = row[k], row[k - 1]
    e[k - 1], e[k] = e[k], e[k - 1]
    mu[k - 1], mu[k] = mu[k], mu[k - 1]
    r[k - 1], r[k] = r[k], r[k - 1]
    # both rows keep the columns j < k-1; so do the rows above them
    for i in range(k - 1, len(b)):
        del mu[i][k - 1:], r[i][k - 1:]
    r[k - 1].append(s)


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


def reduce_reference(poly, rules):
    """Normal form of ``quadexp.sklyanin.reduce`` by scanning.

    Every rule is tried at every position of a word; the leftmost position
    with a match wins, and at it the longest lhs, the first rule on a tie.
    The deglex-greatest word with a match is rewritten, and each rewrite is
    built as the product prefix * rhs * suffix.
    """
    from quadexp.errors import StepBoundExceeded
    from quadexp.sklyanin import STEP_BOUND, NCPolynomial, deglex_key

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
    raise StepBoundExceeded(f"no normal form within {STEP_BOUND} steps")


def check_certificate(poly, rules, trace, normal_form):
    """Raise AssertionError unless trace certifies that poly reduces to
    normal_form under the rules.

    Each step must name a rule whose left word is the subword of ``before``
    at ``position``, with ``after`` the product prefix * rhs * suffix; the
    steps must list distinct words, deglex-greatest first. Substituting the
    listed rewrites into poly until no listed word is left must give
    normal_form.
    """
    from quadexp.sklyanin import NCPolynomial, deglex_key

    def parse(text):
        return () if text == "e" else tuple(int(g[1:]) for g in text.split())

    words = [parse(step.before) for step in trace]
    assert words == sorted(set(words), key=deglex_key, reverse=True), \
        "certificate words not distinct and deglex-descending"
    replacement = {}
    for w, step in zip(words, trace):
        pos = step.position
        for rule in rules:
            end = pos + len(rule.lhs)
            if rule.name == step.rule and 0 <= pos and w[pos:end] == rule.lhs:
                after = (NCPolynomial.word(w[:pos]) * rule.rhs *
                         NCPolynomial.word(w[end:]))
                if after.to_json() == step.after:
                    replacement[w] = after
                    break
        else:
            raise AssertionError(f"no rule {step.rule} gives step {step}")
    # every rewrite lowers its word, so taking the greatest listed word
    # each time substitutes each at most once
    current = poly
    for _ in range(len(trace) + 1):
        listed = [w for w in current.terms if w in replacement]
        if not listed:
            break
        w = max(listed, key=deglex_key)
        coeff = current.terms[w]
        current = (current - NCPolynomial.word(w, coeff) +
                   replacement[w].scale(coeff))
    else:
        raise AssertionError("a listed word came back after its substitution")
    assert current == normal_form, \
        f"substituted certificate gives {current!r}, not {normal_form!r}"


def complete_reference(system):
    """Rules and findings of ``quadexp.sklyanin.complete``, each pair reduced
    through ``reduce_reference``.

    The completion as it stood before it kept one rule index or carried
    each pair's positions: both sides of a critical pair are built as
    prefix * rhs * suffix, at the leftmost position of the first rule's
    left word and the rightmost of the second's, and reduced under the rule
    list as it stands. So it agrees with ``complete`` where each left word
    occurs once in its overlap word, as in every suite. Returns (rules,
    findings).
    """
    import heapq

    from quadexp import sklyanin
    from quadexp.errors import StepBoundExceeded
    from quadexp.sklyanin import (NCPolynomial, OverlapFinding, RewriteRule,
                                  deglex_key, word_str)

    def find_sub(w, sub, prefer_late=False):
        positions = [p for p in range(len(w) - len(sub) + 1)
                     if w[p:p + len(sub)] == sub]
        if not positions:
            return None
        return positions[-1] if prefer_late else positions[0]

    def overlap_words(l1, l2):
        out = set()
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                out.add(l1 + l2[k:])
            if l2[-k:] == l1[:k]:
                out.add(l2 + l1[k:])
        short, long = sorted((l1, l2), key=len)
        if len(short) < len(long) and find_sub(long, short) is not None:
            out.add(long)
        return sorted(out, key=deglex_key)

    def rewritten(w, pos, rule):
        prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
        return (NCPolynomial.word(prefix) * rule.rhs *
                NCPolynomial.word(suffix))

    rules = list(system.rewrites)
    findings = []
    queue = []

    def enqueue(i, j):
        for w in overlap_words(rules[i].lhs, rules[j].lhs):
            heapq.heappush(queue, (deglex_key(w), i, j))

    for i in range(len(rules)):
        for j in range(i, len(rules)):
            enqueue(i, j)

    seen = set()
    while queue:
        (_, w), ia, ib = heapq.heappop(queue)
        key = (w, rules[ia].lhs, rules[ib].lhs)
        if key in seen:
            continue
        seen.add(key)
        ra, rb = rules[ia], rules[ib]
        nf1 = reduce_reference(rewritten(w, find_sub(w, ra.lhs), ra), rules)
        nf2 = reduce_reference(
            rewritten(w, find_sub(w, rb.lhs, prefer_late=True), rb), rules)
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
        if len(lead) > sklyanin.DEGREE_BOUND:
            findings.append(OverlapFinding(
                word_str(w), ra.name, rb.name, "over_degree",
                f"lead {word_str(lead)} exceeds degree {sklyanin.DEGREE_BOUND}"))
            continue
        rest = NCPolynomial({u: c for u, c in g.terms.items() if u != lead})
        rhs = (-rest).scale(lead_coeff.inverse())
        rules.append(RewriteRule(lead, rhs, f"{system.name}.cp{len(rules) + 1}"))
        findings.append(OverlapFinding(word_str(w), ra.name, rb.name, "new_rule",
                                       f"{word_str(lead)} -> {rhs!r}"))
        if len(rules) > sklyanin.MAX_RULES:
            raise StepBoundExceeded(
                f"completion exceeded {sklyanin.MAX_RULES} rules")
        for j in range(len(rules)):
            enqueue(len(rules) - 1, j)
    rules.sort(key=lambda r: deglex_key(r.lhs), reverse=True)
    return rules, findings


def overlaps_reference(la, lb, same_rule: bool) -> list:
    """The overlaps of the left words la and lb of an ordered pair of rules,
    as (word, position of la, position of lb).

    A suffix of one glued to a prefix of the other, in both orders, and
    each position where the shorter lies inside the longer. Two distinct
    rules with equal left words also overlap at (0, 0); a rule paired with
    itself does not, and has each gluing in both orders.
    """
    overlaps = []
    for k in range(1, min(len(la), len(lb))):
        if la[-k:] == lb[:k]:
            overlaps.append((la + lb[k:], 0, len(la) - k))
        if lb[-k:] == la[:k]:
            overlaps.append((lb + la[k:], len(lb) - k, 0))
    if len(la) < len(lb):
        overlaps += [(lb, p, 0) for p in range(len(lb) - len(la) + 1)
                     if lb[p:p + len(la)] == la]
    elif len(lb) < len(la):
        overlaps += [(la, 0, p) for p in range(len(la) - len(lb) + 1)
                     if la[p:p + len(lb)] == lb]
    elif la == lb and not same_rule:
        overlaps.append((la, 0, 0))
    return overlaps


def unjoined_overlaps(completed) -> list:
    """The critical pairs of a completion's final rules that its index does
    not join, as (word, {name of a, name of b}).

    For every ordered pair (a, b) of ``completed.rules``, each overlap of
    their left words (``overlaps_reference``) is rewritten by a at a's
    position and by b at b's, and both sides are reduced through
    ``completed.index``. By the critical-pair lemma, rules whose every such
    pair joins are locally confluent.
    """
    from quadexp.sklyanin import NCPolynomial

    def rewritten(w, pos, rule):
        prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
        return completed.index.normal_form(NCPolynomial(
            {prefix + u + suffix: c for u, c in rule.rhs.terms.items()}))

    out = []
    for i, a in enumerate(completed.rules):
        for j, b in enumerate(completed.rules):
            out += [(w, {a.name, b.name})
                    for w, pa, pb in overlaps_reference(a.lhs, b.lhs, i == j)
                    if rewritten(w, pa, a) != rewritten(w, pb, b)]
    return out


def _laurent_collect(terms) -> dict:
    """{monomial: Fraction} summing (exponent dict, rational) terms."""
    out = {}
    for exps, r in terms:
        m = tuple(sorted((s, e) for s, e in exps.items() if e))
        out[m] = out.get(m, Fraction(0)) + Fraction(r)
    return {m: r for m, r in out.items() if r}


def laurent_add(a: dict, b: dict) -> dict:
    return _laurent_collect((dict(m), r) for m, r in [*a.items(), *b.items()])


def laurent_neg(a: dict) -> dict:
    return _laurent_collect((dict(m), -r) for m, r in a.items())


def laurent_mul(a: dict, b: dict) -> dict:
    def times(m1, m2):
        exps = dict(m1)
        for s, e in m2:
            exps[s] = exps.get(s, 0) + e
        return exps
    return _laurent_collect((times(m1, m2), Fraction(r1) * r2)
                            for m1, r1 in a.items() for m2, r2 in b.items())


def laurent_inverse(a: dict) -> dict:
    """The inverse of a one-term Laurent polynomial."""
    (m, r), = a.items()
    return _laurent_collect([({s: -e for s, e in m}, 1 / Fraction(r))])


def laurent_conjugate(a: dict) -> dict:
    """mu fixed, zeta inverted, every other symbol s swapped with s~."""
    def conj(s, e):
        if s == "zeta":
            return s, -e
        return (s if s == "mu" else s[:-1] if s.endswith("~") else s + "~"), e
    return _laurent_collect((dict(conj(s, e) for s, e in m), r)
                            for m, r in a.items())


def kronecker_reference(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) for a prime p: sympy's Legendre symbol for
    odd p, and the mod-8 rule at 2."""
    from sympy import legendre_symbol

    if p == 2:
        return 0 if disc % 2 == 0 else 1 if disc % 8 in (1, 7) else -1
    return legendre_symbol(disc % p, p)


def unit_group_quotient_reference(f: int, disc: int) -> int:
    """Q_f = f prod_{p | f} (1 - (disc/p)/p) in Fractions, the primes p
    from sympy."""
    from sympy import primefactors

    q = Fraction(f)
    for p in primefactors(f):
        q *= 1 - Fraction(kronecker_reference(disc, p), p)
    return int(q)


def unit_index_reference(order, unit) -> int:
    """[O_K^*:O_f^*] of a real order by powering ``unit`` as an irrational.

    Each power is tested for membership in O_f exactly; the search stops at
    Q_f, the order of (O_K/f)^*/(Z/f)^*, as ``_FieldOrders.unit_index`` in
    ``quadexp.classforms`` does.
    """
    from quadexp.errors import DomainError

    f = order.conductor
    if f == 1:
        return 1
    power = unit
    for k in range(1, unit_group_quotient_reference(
            f, order.fundamental_discriminant) + 1):
        if in_order_reference(power, order):
            return k
        power = power * unit
    raise DomainError(f"no power of {unit!r} lies in the order {order.to_json()}")


_REAL_UNIT_INDICES: dict = {}  # (d, f): unit_index_reference of that order


def class_number_reference(order, h_max: int) -> int:
    """h(O_f) = h(O_K) Q_f / [O_K^*:O_f^*] from h_max = h(O_K) and this
    module's parts: Q_f from ``unit_group_quotient_reference``, the index
    from the table 3, 2, 1 for imaginary d_K = -3, -4, other (1 at f = 1)
    and, on the real side, from ``unit_index_reference`` of the fundamental
    unit, remembered per (d, f).
    """
    from quadexp.errors import DomainError
    from quadexp.quadfield import OrderDescriptor, fundamental_unit

    f, disc = order.conductor, order.fundamental_discriminant
    if order.field_kind == "imaginary":
        index = {-3: 3, -4: 2}.get(disc, 1) if f > 1 else 1
    else:
        index = _REAL_UNIT_INDICES.get((order.d, f))
        if index is None:
            unit = fundamental_unit(OrderDescriptor("real", order.d, 1)).value
            index = _REAL_UNIT_INDICES[order.d, f] = unit_index_reference(
                order, unit)
    h, rest = divmod(h_max * unit_group_quotient_reference(f, disc), index)
    if rest:
        raise DomainError(f"class-number formula is not integral for "
                          f"{order.to_json()} with h(O_K)={h_max}")
    return h


def match_conductor_reference(given, search_bound: int = 100):
    """``quadexp.classforms.match_conductor`` by trying every f in turn.

    Each f from 1 to search_bound is compared by ``class_number_reference``,
    with no divisibility exit. Only the given and the opposite maximal
    orders are enumerated, so only they are held to ``DISC_LIMIT``.
    """
    from quadexp import classforms
    from quadexp.errors import NoMatchWithinBound

    h_given = classforms.class_group(given).h
    for f in range(1, search_bound + 1):
        if f == 1:
            h_max = classforms.class_group(given.opposite(1)).h
        if class_number_reference(given.opposite(f), h_max) == h_given:
            return f, h_given
    raise NoMatchWithinBound(
        f"no conductor <= {search_bound} matches h={h_given}")


def evaluate_J_reference(theta, epsilon, p: int):
    """One ``JValue`` of ``quadexp.recognition.evaluate_J``, from scratch.

    One route, e^{2 pi i theta} mu with mu = log epsilon. mu and its
    exp(log mu) = mu check, which ``evaluate_J`` runs once per call, are
    recomputed for this theta alone; the |J|^2 = mu^2 check runs on its
    value, as on every value there.
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
    if not mu.indistinguishable(exp_fixed(_log_positive(mu, w), w)):
        raise DomainError("independent J evaluation routes disagree")
    product = exp_cis(theta.to_fixed(w), w) * mu
    jv = JValue(theta, epsilon, mu.rescale(p), product.rescale(p), p)
    if not jv.value.abs2().indistinguishable(jv.mu * jv.mu):
        raise DomainError("|J| does not match log epsilon within bounds")
    return jv


def indefinite_reduced_forms_reference(disc: int):
    """``quadexp.classforms._indefinite_reduced_forms`` trying every a >= 1.

    Every divisor pair (a, n/a) of n = (disc - b^2)/4 is tried for each b.
    """
    s = isqrt(disc)
    assert s * s != disc
    forms = set()
    for b in range(2 - (disc & 1), s + 1, 2):
        n = (disc - b * b) // 4
        for a in range(1, isqrt(n) + 1):
            if n % a:
                continue
            for aa in {a, n // a}:
                if s - b < 2 * aa <= s + b and gcd(gcd(aa, b), n // aa) == 1:
                    forms.update({(aa, b, -(n // aa)), (-aa, b, n // aa)})
    return sorted(forms)


def indefinite_cycles_reference(forms):
    """The rho-cycles through the triples ``forms``, as lists.

    Each cycle is walked from its least form with ``rho_reference`` until
    the walk comes back, in the order of ``forms``.
    """
    remaining = set(forms)
    cycles = []
    for start in forms:
        if start not in remaining:
            continue
        cycle, form = [], start
        while True:
            cycle.append(form)
            remaining.discard(form)
            form = rho_reference(form)
            if form == start or (form not in remaining and form in cycle):
                break
        cycles.append(cycle)
    return cycles


def class_group_reference(order):
    """``quadexp.classforms.class_group`` of a real order, from objects.

    Forms from ``indefinite_reduced_forms_reference``, cycles from
    ``indefinite_cycles_reference`` and module classes from the pairwise
    GL2(Z) merge of ``wide_classes_gl2``.
    """
    from quadexp.classforms import ClassGroupSummary

    assert order.field_kind == "real"
    disc = order.discriminant
    cycles = indefinite_cycles_reference(
        indefinite_reduced_forms_reference(disc))
    reps = wide_classes_gl2(cycles, disc)
    return ClassGroupSummary(order, len(reps), tuple(reps), len(cycles))


def floor_reference(x) -> int:
    """floor of the ``QuadraticIrrational`` x = (a + b sqrt d)/c, exactly."""
    if x.b == 0:
        return x.a // x.c
    t = isqrt(x.b * x.b * x.d)
    # floor(b*sqrt(d)) is t for b > 0 and -t-1 for b < 0 (never exact)
    n = (x.a + (t if x.b > 0 else -t - 1)) // x.c
    while x.cmp(n + 1) >= 0:
        n += 1
    while x.cmp(n) < 0:
        n -= 1
    return n


def expansion_states_reference(theta):
    """(digits, states, k, ell) of the continued fraction of theta.

    Each complete quotient x is a ``QuadraticIrrational``, and the next is
    1/(x - floor x); states[k] == states[k + ell] is the first repeat.
    """
    from quadexp.errors import DomainError
    from quadexp.quadfield import QuadraticIrrational

    theta._require_irrational()
    digits, states, seen = [], [], {}
    x = theta
    for i in range(100000):
        if x in seen:
            k = seen[x]
            return digits, states, k, i - k
        seen[x] = i
        states.append(x)
        a = floor_reference(x)
        digits.append(a)
        x = QuadraticIrrational.from_rational(1) / (x - a)
    raise DomainError("continued fraction did not cycle within step bound")


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]


def cf_expand(theta) -> CFExpansion:
    """Eventually periodic continued fraction of a quadratic irrational."""
    digits, _states, k, ell = expansion_states_reference(theta)
    return CFExpansion(tuple(digits[:k]), tuple(digits[k:k + ell]))


def fundamental_unit_reference(order):
    """``quadexp.quadfield.fundamental_unit`` from object continued fractions.

    omega = (D mod 2 + sqrt D)/2 is expanded by
    ``expansion_states_reference``; the unit is xi q + qq, with xi the first
    repeated complete quotient and (q, qq) one period's convergent
    denominators.
    """
    from quadexp.errors import DomainError
    from quadexp.quadfield import (QuadraticIrrational, UnitElement,
                                   _convergent_matrix)

    if order.field_kind != "real":
        raise DomainError("fundamental unit only for real quadratic orders")
    disc = order.discriminant
    # sqrt(disc) = g sqrt(d)
    g = order.conductor * (1 if order.fundamental_discriminant == order.d else 2)
    omega = QuadraticIrrational(disc % 2, g, 2, order.d)
    digits, states, k, ell = expansion_states_reference(omega)
    _p, _pp, q, qq = _convergent_matrix(digits[k:k + ell])
    eps = states[k] * q + qq
    n = eps.norm()
    if n not in (1, -1):
        raise DomainError(f"unit computation produced norm {n}")
    if eps.cmp(1) <= 0:
        raise DomainError("unit computation produced a value <= 1")
    if not in_order_reference(eps, order):
        raise DomainError("unit computation left the order")
    return UnitElement(eps, int(n))


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

    detail = modular.ring_class_polynomial_detailed(d, f, p, cache_dir=None)
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


def _exp_series_reference(r: int, w: int) -> tuple[list[int], int]:
    """Taylor terms of e**x * 2**w, x = r/2**w, |x| <= 0.75, summed by j mod 4.

    Term j is t_j = floor(t_(j-1) x / j), t_0 = 2**w; sums[k] adds the t_j
    with j = k mod 4, so e**x = sum(sums), cos x = sums[0] - sums[2] and
    sin x = sums[1] - sums[3]. Returns (sums, J + 2), t_J the first zero term.
    t_j misses 2**w x**j / j! by at most 1 + |x| / j times t_(j-1)'s miss,
    so by under 1.21 ulps for |x| <= 0.41 (exp_cis's range), where the tail
    past t_J is under 1 ulp: cos and sin each sum at most (J + 1)/2 terms
    and miss by under 1.21 (J + 1)/2 + 1 <= J + 2 ulps. exp_fixed charges
    J + 2 for e**x both relative to the result and absolutely.
    """
    sums = [1 << w, 0, 0, 0]
    term = 1 << w
    j = 1
    while term:
        term = (term * r) >> w
        term //= j
        sums[j & 3] += term
        j += 1
    return sums, j + 1


def exp_fixed_reference(x: FixedReal, p: int) -> FixedReal:
    """e**x at p bits. Error bound covers the input's own err_ulps."""
    from quadexp.errors import DomainError
    from quadexp.numerics import (GUARD_BITS, FixedReal, _log2_mantissa,
                                  _rshift_round)

    w = p + GUARD_BITS
    xs = x.rescale(w)
    ln2 = _log2_mantissa(w)
    n = _rshift_round((xs.mantissa << w) // ln2, w)
    if abs(n) > 1 << 24:
        raise DomainError("exp argument magnitude out of supported range")
    r = xs.mantissa - n * ln2  # |r| <= 0.7 * 2**w
    sums, serr = _exp_series_reference(r, w)
    man = sum(sums)
    # relative input error: |d exp/dx| = exp(x); n*ln2 error adds |n|*2 ulps
    rel = xs.err_ulps + abs(n) * 2 + serr
    if n >= 0:
        man_out = man << n
        err_out = ((man_out * rel) >> w) + (serr << n) + 1
    else:
        man_out = _rshift_round(man, -n)
        err_out = ((man * rel) >> (w - n)) + serr + 2
    res = FixedReal(man_out, w, err_out)
    return res.rescale(p)


def _log_mantissa_reference(m: int, w: int) -> tuple[int, int]:
    """log of m/2**w for m > 0, at scale w. Returns (mantissa, err_ulps)."""
    from quadexp.numerics import _log2_mantissa, _rshift_round

    k = m.bit_length() - 1 - w
    norm_err = 0
    if k > 0:
        y = _rshift_round(m, k)
        norm_err = 1
    elif k < 0:
        y = m << (-k)
    else:
        y = m
    # y/2**w in [1, 2]; pull into [0.75, 1.5) so |t| stays below 1/5
    if 2 * y >= 3 << w:
        y = _rshift_round(y, 1)
        k += 1
        norm_err += 1
    one = 1 << w
    t = ((y - one) << w) // (y + one)
    sign = 1 if t >= 0 else -1
    ta = abs(t)
    tt = (ta * ta) >> w
    total = ta
    term = ta
    j = 1
    while term:
        term = (term * tt) >> w
        total += term // (2 * j + 1)
        j += 1
    ln2 = _log2_mantissa(w)
    man = sign * 2 * total + k * ln2
    err = 2 * (j + norm_err + 2) + abs(k) * 2 + 4
    return man, err


def log_positive_reference(x: FixedReal, p: int) -> FixedReal:
    """Natural log for any x > 0; internal superset of log_fixed's domain."""
    from quadexp.errors import DomainError
    from quadexp.numerics import GUARD_BITS, FixedReal, _ceil_div

    if x.mantissa <= 0 or x.mantissa <= 2 * x.err_ulps:
        raise DomainError("log of a value not separated from zero")
    w = p + GUARD_BITS
    xs = x.rescale(w)
    man, err = _log_mantissa_reference(xs.mantissa, w)
    # input error: |d log/dx| = 1/x
    err += _ceil_div(xs.err_ulps << w, xs.mantissa - xs.err_ulps)
    return FixedReal(man, w, err).rescale(p)


def exp_cis_reference(theta: FixedReal, p: int) -> FixedComplex:
    """cos(2 pi theta) + i sin(2 pi theta); theta reduced mod 1 exactly first."""
    from quadexp.errors import DomainError
    from quadexp.numerics import (GUARD_BITS, FixedComplex, FixedReal,
                                  _rshift_round, pi_fixed)

    if p < 32:
        raise DomainError("precision below 32 bits")
    w = p + GUARD_BITS
    q = theta.scale_bits
    frac = theta.mantissa % (1 << q)  # exact reduction mod 1 at mantissa level
    reduced = FixedReal(frac, q, theta.err_ulps).rescale(w)
    mf, in_err = reduced.mantissa, reduced.err_ulps
    # nearest eighth: o/8 with remainder |r| <= 1/16
    o = (mf + (1 << (w - 4))) >> (w - 3)
    r = mf - (o << (w - 3))
    o &= 7
    pim = pi_fixed(w).mantissa
    phi = _rshift_round(2 * pim * r, w)  # |phi| <= 2 pi / 16 < 0.3927
    sums, serr = _exp_series_reference(phi, w)
    re, im = sums[0] - sums[2], sums[1] - sums[3]  # cos phi, sin phi
    # rotate by o eighths of a turn: o // 2 quarters, each a product by i
    for _ in range(o // 2):
        re, im = -im, re
    rot_err = serr + 1
    if o % 2:
        h = isqrt(1 << (2 * w - 1))  # sqrt(1/2) at w bits
        re, im = _rshift_round(h * (re - im), w), _rshift_round(h * (re + im), w)
        rot_err = 2 * serr + 6
    # input error: derivative bound |2 pi| < 7
    rot_err += 7 * in_err + 1
    z = FixedComplex(FixedReal(re, w, rot_err), FixedReal(im, w, rot_err))
    return z.rescale(p)


def factor_irreducible_reference(poly) -> list:
    """Irreducible factors of positive degree of an ``IntegerPolynomial``."""
    from quadexp.modular import IntegerPolynomial

    out = []
    for fac, mult in _sympy_poly(poly.primitive()).factor_list()[1]:
        factor = IntegerPolynomial(tuple(reversed(fac.all_coeffs())))
        if factor.degree >= 1:
            out.extend([factor] * mult)
    return out


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


def factor_degrees_mod(coeffs, q: int):
    """Sorted degrees of the irreducible factors of coeffs mod the prime q,
    each repeated by its multiplicity, by sympy's factorization over GF(q);
    None when q divides the leading coefficient or the reduction is not
    squarefree."""
    import sympy

    if coeffs[-1] % q == 0:
        return None
    reduced = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=q)
    if reduced.gcd(reduced.diff()).degree() > 0:
        return None
    return sorted(fac.degree() for fac, mult in reduced.factor_list()[1]
                  for _ in range(mult))


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
    """A positive definite (a, b, c) with |b| <= a <= c, and b >= 0 when
    |b| = a or a = c."""
    a, b, c = form
    if b * b - 4 * a * c >= 0 or a <= 0:
        return False
    if not (abs(b) <= a <= c):
        return False
    return not ((abs(b) == a or a == c) and b < 0)


def complex_of_real(x):
    """The ``FixedReal`` x as a ``FixedComplex`` with an exact zero
    imaginary part."""
    from quadexp.numerics import FixedComplex, FixedReal

    return FixedComplex(x, FixedReal.zero(x.scale_bits))


def control_value(a: int, c: int, m: int, p: int):
    """z = a + c^(1/m) e^(i pi/m) at p bits with a certified error bound.

    z is a root of (x - a)^m + c, irreducible for c prime (Eisenstein in
    x - a) and not real, as a J value is not. It is built from the
    library's certified kernels alone: c^(1/m) = exp(log(c)/m) and
    e^(i pi/m) = exp_cis(1/(2m)).
    """
    from quadexp.numerics import (GUARD_BITS, FixedComplex, FixedReal,
                                  exp_cis, exp_fixed, log_fixed)

    w = p + GUARD_BITS
    root = exp_fixed(log_fixed(FixedReal.from_int(c, w), w).div_int(m), w)
    turn = exp_cis(FixedReal.from_ratio(1, 2 * m, w), w)
    z = FixedComplex.from_int(a, w) + complex_of_real(root) * turn
    return z.rescale(p)


def control_minpoly(a: int, c: int, m: int) -> tuple[int, ...]:
    """The coefficients of (x - a)^m + c, lowest degree first."""
    coeffs = [comb(m, k) * (-a) ** (m - k) for k in range(m + 1)]
    coeffs[0] += c
    return tuple(coeffs)
