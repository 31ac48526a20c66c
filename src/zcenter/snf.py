"""Exact elimination modulo N: the one pivot loop of zcenter.

`_echelon` reduces a matrix over Z/p^k, pivoting on an entry of least
p-valuation, which stays exact despite the zero divisors (Howell 1986;
Storjohann & Mulders, "Fast algorithms for linear algebra modulo N",
1998).  A system mod N is one int64 array of residues, rows
[coefficients | constant] meaning M[:, :-1] x + M[:, -1] = 0, as
`cohomology._tree_rows` builds them; `_prime_power_echelons` echelons it
over each prime power of N, for `solve_modular_linear` and for e2_11.
At k = 1 `_echelon` gives `twisted_rep` its row bases over F_p.
Residues stay below 2^31, so a product of two fits in int64.
"""

from __future__ import annotations

import numpy as np

from .group_core import BoundError, _prime_factors

__all__ = ["MAX_MODULUS", "check_modulus", "solve_modular_linear"]

MAX_MODULUS = 2 ** 31


def check_modulus(N: int) -> None:
    """Refuse a modulus outside 1 <= N < MAX_MODULUS.

    The bound keeps each product of two residues below 2^62, so int64
    arithmetic on residues mod N is exact; N past it raises BoundError.
    """
    if not 1 <= N < MAX_MODULUS:
        raise (BoundError if N >= MAX_MODULUS else ValueError)(
            f"modulus must satisfy 1 <= N < 2^31 = {MAX_MODULUS}, got {N}")


def _echelon(M: np.ndarray, p: int, q: int, n: int):
    """Echelon the first n columns of M mod q = p^k in place.

    M is int64 with entries in [0, q); its later columns ride along.
    Each pivot is the first entry of least valuation p^v in the remaining
    block, and its row is scaled so that the pivot is p^v.  Returns the
    rank r and the column order cols, in which M[:r, :r] is upper
    triangular, or None once a row is zero in the first n columns only.
    """
    m = M.shape[0]
    cols = np.arange(n)
    # every entry of the remaining block is divisible by pv; elimination
    # never lowers the least valuation, so pv only grows
    pv = 1
    r = 0
    while r < min(m, n):
        hits = np.flatnonzero(M[r, r:n] % (pv * p))
        if hits.size:
            j = r + int(hits[0])
        elif not M[r, r:].any():
            # a zero equation: drop it by moving the last live row here
            m -= 1
            M[r] = M[m]
            continue
        elif not M[r, r:n].any():
            return None
        else:
            ii, jj = np.nonzero(M[r:m, r:n] % (pv * p))
            if not ii.size:
                pv *= p
                continue
            i, j = r + int(ii[0]), r + int(jj[0])
            if i != r:
                M[[r, i]] = M[[i, r]]
        if j != r:
            M[:m, [r, j]] = M[:m, [j, r]]
            cols[[r, j]] = cols[[j, r]]
        M[r, r:] = M[r, r:] * pow(int(M[r, r]) // pv, -1, q) % q
        below = r + 1 + np.flatnonzero(M[r + 1:m, r])
        if below.size:
            rows = M[below, r:]
            rows -= np.outer(rows[:, 0] // pv, M[r, r:])
            rows %= q
            M[below, r:] = rows
        r += 1
    # rows from m on are stale copies of dropped rows
    if M[r:m, n:].any():
        return None
    return r, cols


def _row_basis_mod_p(M, p: int):
    """Independent rows B spanning the row space of M mod the prime p,
    and pivot columns with B[:, pivots] = I."""
    M = M % p
    r, cols = _echelon(M, p, p, M.shape[1])
    for i in range(r - 1, 0, -1):
        above = M[:i, i:]
        above -= np.outer(above[:, 0], M[i, i:])
        above %= p
    B = np.empty((r, len(cols)), dtype=np.int64)
    B[:, cols] = M[:r]
    return B, cols[:r]


def _prime_power_echelons(M: np.ndarray, N: int):
    """(q, Mq, _echelon(Mq, p, q, n)) for each prime power q = p^k exactly
    dividing N, with n the coefficient columns of the rows M: Mq is M
    itself, echeloned in place, when q == N, and M % q otherwise."""
    n = M.shape[1] - 1
    for p in _prime_factors(N):
        q = p
        while N % (q * p) == 0:
            q *= p
        Mq = M if q == N else M % q
        yield q, Mq, _echelon(Mq, p, q, n)


def solve_modular_linear(M: np.ndarray, N: int):
    """Solve M[:, :-1] x + M[:, -1] = 0 (mod N); returns a list or None.

    M holds int64 residues mod N, one row [coefficients | constant] per
    equation, and 1 <= N < MAX_MODULUS; M may be overwritten.  A solution
    is returned reduced mod N.
    """
    check_modulus(N)
    n = M.shape[1] - 1
    x = np.zeros(n, dtype=np.int64)
    for q, Mq, found in _prime_power_echelons(M, N):
        if found is None:
            return None
        # each pivot p^v divides its row, so back-substitution with the
        # free unknowns at 0 fails exactly when there is no solution mod q
        r, cols = found
        y = np.zeros(n, dtype=np.int64)
        for i in range(r - 1, -1, -1):
            # reduce each product first: a sum of n raw products overflows
            s = -(int(Mq[i, n])
                  + int((Mq[i, i + 1:r] * y[i + 1:r] % q).sum())) % q
            d = int(Mq[i, i])
            if s % d:
                return None
            y[i] = s // d
        # (N/q) * ((N/q)^-1 mod q) is 1 mod q and 0 mod N/q
        x[cols] = (x[cols] + y * ((N // q) * pow(N // q, -1, q) % N)) % N
    return x.tolist()
