"""Exact integer LLL kernel.

Integral variant maintaining the Gram determinants d[i] and scaled
Gram-Schmidt coefficients lam[i][j] = d[j] * mu_ij, so every division below
is exact and no floating point is involved.
"""

from __future__ import annotations

# Read by the environment block of perfbench/run.py.
BACKEND = "python"


def lll_reduce_rows(rows, delta_num=99, delta_den=100):
    """LLL-reduced copy of the integer basis rows (the input is not changed).

    Returns the reduced rows only; they are integer combinations of the
    input rows, and a caller that needs the combination keeps coefficient
    columns in its lattice. Raises ValueError when the rows are linearly
    dependent. delta_num/delta_den is the Lovász parameter, required to
    lie in (1/4, 1).

    The reduction runs a ladder of increasing delta values, 3/4 and 9/10
    where they lie below the requested one, ending at the requested one;
    the final basis satisfies the requested Lovász condition exactly, the
    ladder only saves swaps.
    """
    if not (0 < delta_num < delta_den and 4 * delta_num > delta_den):
        raise ValueError("delta must lie in (1/4, 1)")
    n = len(rows)
    if n == 0:
        return []
    m = len(rows[0])
    b = [list(map(int, r)) for r in rows]
    if any(len(r) != m for r in b):
        raise ValueError("ragged basis")

    # d[0..n], lam[i][j] valid for 1 <= j < i <= n (1-based like the
    # classical description; row i of the basis is b[i-1]).
    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    d[1] = _dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("dependent rows (zero vector)")
    kmax = 1

    ladder = [(num, den) for num, den in ((3, 4), (9, 10))
              if num * delta_den < delta_num * den]
    ladder.append((delta_num, delta_den))

    for num, den in ladder:
        k = 2
        while k <= n:
            if k > kmax:
                kmax = k
                for j in range(1, k + 1):
                    s = _dot(b[k - 1], b[j - 1])
                    for i in range(1, j):
                        s = (d[i] * s - lam[k][i] * lam[j][i]) // d[i - 1]
                    if j < k:
                        lam[k][j] = s
                    else:
                        if s == 0:
                            raise ValueError("dependent rows")
                        d[k] = s
            while True:
                _red(b, d, lam, k, k - 1)
                # a swap would make d[k-1] = d_num // d[k-1]; _swap reuses it
                d_num = d[k] * d[k - 2] + lam[k][k - 1] ** 2
                if den * d_num < num * d[k - 1] ** 2:
                    _swap(b, d, lam, k, kmax, d_num)
                    k = max(2, k - 1)
                else:
                    for l in range(k - 2, 0, -1):
                        _red(b, d, lam, k, l)
                    k += 1
                    break
    return b


def _dot(x, y):
    s = 0
    for a, c in zip(x, y):
        s += a * c
    return s


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


def _swap(b, d, lam, k, kmax, d_num):
    # d_num = d[k-2] d[k] + lam[k][k-1]**2, from the Lovász test
    b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
    lamk = lam[k]
    lamk1 = lam[k - 1]
    for j in range(1, k - 1):
        lamk[j], lamk1[j] = lamk1[j], lamk[j]
    lab = lamk[k - 1]
    bness = d_num // d[k - 1]
    for i in range(k + 1, kmax + 1):
        lami = lam[i]
        t = lami[k]
        lami[k] = (d[k] * lami[k - 1] - lab * t) // d[k - 1]
        lami[k - 1] = (bness * t + lab * lami[k]) // d[k]
    d[k - 1] = bness
