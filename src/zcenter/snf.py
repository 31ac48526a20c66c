"""Integer linear systems modulo N by elimination over each prime power.

Solves A x = b (mod N) exactly for integer A, b and any modulus
1 <= N < 2^31.  Z/N is the product of the local rings Z/p^k over the
prime powers p^k of N, so the system is solved over each and the
solutions are combined by the Chinese remainder theorem.  Over Z/p^k,
elimination that always pivots on an entry of least p-valuation stays
exact despite the zero divisors (Howell 1986; Storjohann & Mulders,
"Fast algorithms for linear algebra modulo N", 1998).  Residues stay
below 2^31, so every product of two of them fits in int64.
"""

from __future__ import annotations

import numpy as np

from .group_core import _prime_factors

__all__ = ["MAX_MODULUS", "check_modulus", "solve_modular_linear"]

MAX_MODULUS = 2 ** 31


def check_modulus(N: int) -> None:
    """Refuse a modulus outside 1 <= N < MAX_MODULUS.

    The bound keeps each product of two residues below 2^62, so int64
    arithmetic on residues mod N is exact.
    """
    if not 1 <= N < MAX_MODULUS:
        raise ValueError(
            f"modulus must satisfy 1 <= N < 2^31 = {MAX_MODULUS}, got {N}")


def _solve_prime_power(M: np.ndarray, p: int, q: int):
    """Solve the augmented system M = [A | b] mod q = p^k, or None.

    M is int64 with entries in [0, q) and is overwritten.  Each pivot is
    the first entry of least valuation p^v in the remaining block, and
    its row is scaled so that the pivot is p^v.  Every other entry of
    that row is then divisible by p^v, so back-substitution with the
    free unknowns at 0 succeeds exactly when the system is solvable.
    """
    m, n = M.shape[0], M.shape[1] - 1
    cols = np.arange(n)
    # every entry of the remaining block is divisible by pv; elimination
    # never lowers the least valuation, so pv only grows
    pv = 1
    r = 0
    while r < min(m, n):
        hits = np.flatnonzero(M[r, r:n] % (pv * p))
        if hits.size:
            j = r + int(hits[0])
        elif not M[r, r:n].any():
            if M[r, n]:
                return None
            # a zero equation: drop it by moving the last live row here
            m -= 1
            M[r] = M[m]
            continue
        else:
            ii, jj = np.nonzero(M[r:m, r:n] % (pv * p))
            if not ii.size:
                pv *= p
                continue
            i, j = r + int(ii[0]), r + int(jj[0])
            M[[r, i]] = M[[i, r]]
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
    if M[r:m, n].any():
        return None
    y = np.zeros(n, dtype=np.int64)
    for i in range(r - 1, -1, -1):
        # reduce each product first: a sum of n raw products overflows
        s = (int(M[i, n]) - int((M[i, i + 1:r] * y[i + 1:r] % q).sum())) % q
        d = int(M[i, i])
        if s % d:
            return None
        y[i] = s // d
    x = np.empty(n, dtype=np.int64)
    x[cols] = y
    return x


def solve_modular_linear(A, b, N: int):
    """Solve A x = b (mod N); returns a solution list or None.

    A is any m x n integer matrix (sequence of rows or 2-d array), b a
    length-m sequence, and 1 <= N < MAX_MODULUS.  A solution is
    returned reduced mod N.
    """
    check_modulus(N)
    try:
        A = np.asarray(A)
    except ValueError:
        raise ValueError("ragged matrix") from None
    b = np.asarray(b)
    m = len(A)
    if m and A.ndim != 2:
        raise ValueError("ragged matrix")
    if b.shape != (m,):
        raise ValueError("right-hand side length mismatch")
    n = A.shape[1] if m else 0
    M = np.empty((m, n + 1), dtype=np.int64)
    # an int64 divisor reduces narrow integer arrays without overflow, and
    # the unsafe cast admits object arrays of integers past int64
    np.remainder(A, np.int64(N), out=M[:, :n], casting="unsafe")
    np.remainder(b, np.int64(N), out=M[:, n], casting="unsafe")
    x = np.zeros(n, dtype=np.int64)
    for p in _prime_factors(N):
        q = p
        while N % (q * p) == 0:
            q *= p
        y = _solve_prime_power(M if q == N else M % q, p, q)
        if y is None:
            return None
        # (N/q) * ((N/q)^-1 mod q) is 1 mod q and 0 mod N/q
        x = (x + y * ((N // q) * pow(N // q, -1, q) % N)) % N
    return x.tolist()
