"""LLL kernels on integer rows.

``lll_reduce_rows`` is the exact kernel: the integral variant maintaining
the Gram determinants d[i] and scaled Gram-Schmidt coefficients
lam[i][j] = d[j] * mu_ij, so every division is exact and no floating point
is involved. It takes them from one ``_gram_schmidt``, the caller's if
given, and reduces at ``DELTA`` to rows meeting the Lovász condition exactly.

``lll_reduce_rows_float`` is the floating-point kernel, shaped after L²
(Nguyen–Stehlé, "An LLL algorithm with quadratic complexity", SIAM J.
Comput. 39, 2009). The rows and their Gram matrix stay exact integers,
updated in place; only the Gram-Schmidt data mu and r are doubles,
recomputed from the Gram matrix. Each row carries its own exponent, as in
fplll's ``MatGSO``, so the rows' scales may differ by far more than a
double's range. Size reduction, the Lovász test and the swap run in one
loop. It is faster on large entries, but its result meets the Lovász
condition only up to rounding, and it may break down; it then raises
``FloatBreakdown`` and the caller reduces exactly instead.

Both end at the one Lovász parameter ``DELTA`` = 99/100. The float kernel
climbs to it by ``LADDER`` 3/4, 9/10; its rungs are part of the pinned
output (without them d = 14's fourth exclusion height moves from 5261354 to
5861935, and a serial recognize pass takes 1.67-1.95 s, not 1.40-1.55 s).
Integer sums go through ``sum``, exact in any order; float sums add left to
right from 0.0, as ``sum`` did before 3.12, the pinned reports' order.
"""

from __future__ import annotations

from math import frexp, ldexp, log2
from operator import add, mul, sub

# Read by the environment block of perfbench/run.py.
BACKEND = "python"

# the one Lovász parameter (num, den), and the float kernel's rungs to it
DELTA = (99, 100)
LADDER = ((3, 4), (9, 10), DELTA)


class FloatBreakdown(ArithmeticError):
    """The float kernel lost its Gram-Schmidt data; reduce exactly instead."""


def _int_rows(rows):
    b = [list(map(int, r)) for r in rows]
    if b and any(len(r) != len(b[0]) for r in b):
        raise ValueError("ragged basis")
    return b


def lll_reduce_rows(rows, gso=None):
    """LLL-reduced copy of the integer basis rows (the input is not changed).

    Returns the reduced rows only; they are integer combinations of the
    input rows, and a caller that needs the combination keeps coefficient
    columns in its lattice. Raises ValueError when the rows are linearly
    dependent. The final basis meets the Lovász condition at ``DELTA``
    exactly. ``gso`` is ``_gram_schmidt(rows)`` if given; it is changed.
    """
    b = _int_rows(rows)
    n = len(b)
    d, lam = _gram_schmidt(b) if gso is None else gso
    if 0 in d:
        raise ValueError("dependent rows")
    num, den = DELTA
    k = 2
    while k <= n:
        _red(b, d, lam, k, k - 1)
        # a swap would make d[k-1] = d_num // d[k-1]; _swap reuses it
        d_num = d[k] * d[k - 2] + lam[k][k - 1] ** 2
        if den * d_num < num * d[k - 1] ** 2:
            _swap(b, d, lam, k, d_num)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                _red(b, d, lam, k, l)
            k += 1
    return b


def _gram_schmidt(rows):
    """1-based integral Gram-Schmidt data (d, lam) of the rows (row i is
    rows[i-1]): the Gram determinant d[k] of the first k rows, d[0] = 1, and
    lam[i][j] = d[j] mu_ij (Cohen, GTM 138, Alg. 2.6.7). d is 0 from the
    first row dependent on those before it, and rows below it get no lam."""
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        lamk = lam[k]
        for j in range(1, k + 1):
            s = sum(map(mul, rows[k - 1], rows[j - 1]))
            for i in range(1, j):
                s = (d[i] * s - lamk[i] * lam[j][i]) // d[i - 1]
            if j < k:
                lamk[j] = s
            else:
                d[k] = s
        if d[k] == 0:
            break
    return d, lam


def _red(b, d, lam, k, l):
    lkl = lam[k][l]
    dl = d[l]
    if 2 * abs(lkl) <= dl:
        return
    q = (2 * lkl + dl) // (2 * dl)
    bk = b[k - 1]
    bl = b[l - 1]
    for i in range(len(bk)):
        bk[i] -= q * bl[i]
    lam[k][l] = lkl - q * dl
    lamk = lam[k]
    laml = lam[l]
    for i in range(1, l):
        lamk[i] -= q * laml[i]


def _swap(b, d, lam, k, d_num):
    # d_num = d[k-2] d[k] + lam[k][k-1]**2, from the Lovász test
    b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
    lamk = lam[k]
    lamk1 = lam[k - 1]
    for j in range(1, k - 1):
        lamk[j], lamk1[j] = lamk1[j], lamk[j]
    lab = lamk[k - 1]
    bness = d_num // d[k - 1]
    for i in range(k + 1, len(d)):
        lami = lam[i]
        t = lami[k]
        lami[k] = (d[k] * lami[k - 1] - lab * t) // d[k - 1]
        lami[k - 1] = (bness * t + lab * lami[k]) // d[k]
    d[k - 1] = bness


# -- floating-point kernel ------------------------------------------------------
#
# Row i of the basis is scaled by 2**-e[i], with ||b_i||^2 <= 2**(2 e[i]).
# The float data hold, 0-based, r[i][j] = <b_i, b_j*> 2**-(e[i] + e[j]) and
# mu[i][j] = mu_ij 2**-(e[i] - e[j]); then the L² recurrences
#   r[i][j] = G[i][j] 2**-(e[i] + e[j]) - sum_{l<j} mu[j][l] r[i][l],
#   mu[i][j] = r[i][j] / r[j][j]
# carry no exponent, and every entry of r is at most 1 in absolute value.
# mu[i] and r[i] are lists holding a valid prefix of columns; r[i] ends in
# the diagonal r[i][i] once row i is complete. Rows below the current row k
# are complete, and rows above it hold at most the columns j < k.
# gd[i] = G[i][i] 2**-(2 e[i]) is row i's scaled squared norm. It is set
# where G[i][i] or e[i] changes and swapped with the rows, so the Lovász
# test reads it instead of converting G[k][k] on every pass. A size-reduction
# step b_k -= x b_j with x = +-1, most steps, subtracts or adds b_j and the
# Gram row of b_j with no multiplication.


def lll_reduce_rows_float(rows):
    """LLL-reduced copy of the integer rows, Gram-Schmidt data in doubles.

    The rows are integer combinations of the input rows, as from
    ``lll_reduce_rows``, size-reduced and meeting the Lovász condition at
    ``DELTA``, both up to rounding. Raises
    ``FloatBreakdown`` when the float data fail: a nonpositive squared
    Gram-Schmidt norm, a division by zero, an overflow, a non-finite
    value, a zero row, a size reduction that stalls, or more swaps than an
    exact reduction could make.
    """
    b = _int_rows(rows)
    try:
        _float_lll(b)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise FloatBreakdown(f"{type(exc).__name__}: {exc}") from exc
    return b


def _scaled(v, t):
    """v * 2**-t as a float, to 53 bits, for |v| <= 2**t."""
    shift = v.bit_length() - 64
    if shift > 0:
        return ldexp(float(v >> shift), shift - t)
    return ldexp(float(v), -t)


def _exponent(g):
    """e with g <= 2**(2 e), for a squared norm g."""
    return (g.bit_length() + 1) // 2


def _float_lll(b):
    """Reduce the rows b in place at each Lovász parameter of ``LADDER``."""
    n = len(b)
    if n == 0:
        return
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            G[i][j] = G[j][i] = sum(map(mul, b[i], b[j]))
        if G[i][i] == 0:
            raise FloatBreakdown("zero row")
    e = [_exponent(G[i][i]) for i in range(n)]
    gd = [_scaled(G[i][i], 2 * e[i]) for i in range(n)]
    mu = [[] for _ in range(n)]
    r = [[] for _ in range(n)]
    r[0].append(gd[0])
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
            muk, rk = mu[k], r[k]
            passes = G[k][k].bit_length() + 8
            while not reduced:
                # one size-reduction pass: complete row k's float data from
                # the Gram matrix, then round each mu_kj with |mu_kj| > 1/2
                # for j = k-1 down to 0, updating the mu_kj below j and
                # stepping the exact row and Gram row as it goes
                bk, Gk, ek = b[k], G[k], e[k]
                for j in range(len(muk), k):
                    acc = 0.0
                    for t in map(mul, mu[j], rk):
                        acc += t
                    rkj = _scaled(Gk[j], ek + e[j]) - acc
                    rk.append(rkj)
                    muk.append(rkj / r[j][j])
                reduced = True
                for j in range(k - 1, -1, -1):
                    v = muk[j]
                    m, ex = frexp(v)
                    # |mu_kj| = |m| 2**ex with 1/2 <= |m| < 1, or mu_kj = m = 0
                    t = ek - e[j]
                    ex += t
                    if ex < 0 or not m:
                        continue
                    if ex <= 53:
                        x = round(ldexp(v, t))
                        if not x:
                            continue
                        xs = ldexp(x, -t)
                    else:
                        x = int(ldexp(m, 53)) << (ex - 53)
                        xs = v
                    # mu_ki -= xs mu_ji for i < j
                    muk[:j] = map(sub, muk, map(xs.__mul__, mu[j]))
                    # b_k -= x b_j; G[j][k] is stale until the pass ends,
                    # and the one entry it would feed, G[k][k], is gkk
                    Gj = G[j]
                    if x == 1 or x == -1:
                        op = sub if x == 1 else add
                        gkk = op(Gk[k], 2 * Gk[j]) + Gj[j]
                        bk = list(map(op, bk, b[j]))
                        Gk = list(map(op, Gk, Gj))
                    else:
                        gkk = Gk[k] - 2 * x * Gk[j] + x * x * Gj[j]
                        bk = [a - x * c for a, c in zip(bk, b[j])]
                        Gk = [a - x * c for a, c in zip(Gk, Gj)]
                    Gk[k] = gkk
                    reduced = False
                if reduced:
                    break
                b[k], G[k] = bk, Gk
                for row, g in zip(G, Gk):
                    row[k] = g
                if Gk[k] == 0:
                    raise FloatBreakdown("zero row")
                e[k] = _exponent(Gk[k])
                gd[k] = _scaled(Gk[k], 2 * e[k])
                # each pass shortens the unreduced part of b_k by the bits
                # its mu were correct to; a pass gaining less than a bit on
                # average (a mu near 1/2 rounded back and forth) means the
                # float data are lost
                passes -= 1
                if passes < 0:
                    raise FloatBreakdown(f"size reduction of row {k} stalls")
                del muk[:], rk[:]
            # s = ||b_k*||^2 + mu_k,k-1^2 ||b_(k-1)*||^2, the squared norm
            # b_k* would have at k-1; r[k][k] alone cancels
            acc = 0.0
            for t in map(mul, muk[:k - 1], rk):
                acc += t
            s = gd[k] - acc
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
            # swap rows k-1 and k; s is the new squared norm of b_(k-1)*
            b[k - 1], b[k] = b[k], b[k - 1]
            G[k - 1], G[k] = G[k], G[k - 1]
            for row in G:
                row[k - 1], row[k] = row[k], row[k - 1]
            e[k - 1], e[k] = e[k], e[k - 1]
            gd[k - 1], gd[k] = gd[k], gd[k - 1]
            mu[k - 1], mu[k] = mu[k], mu[k - 1]
            r[k - 1], r[k] = r[k], r[k - 1]
            # both rows keep the columns j < k-1; so do the rows above them
            for i in range(k - 1, n):
                del mu[i][k - 1:], r[i][k - 1:]
            r[k - 1].append(s)
            # b_k, now at k-1, stays reduced against the rows below k-1
            reduced = k > 1
            k = max(k - 1, 1)
