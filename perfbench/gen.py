"""Group tables and cochains for the benchmark inputs and checks, in numpy.

The tables follow zcenter's documented element encodings: a direct
product of cyclic groups lists its elements row-major in their
coordinates, and S<m> / A<m> list the (even) permutations of range(m)
in lexicographic one-line order, with (p*q)(x) = p(q(x)).  Nothing here
imports zcenter, so the output checks share no code with the program
they check.  Cochains are dense int64 arrays of residues mod N, with
the bar differential and trivial action.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def cyclic_product(factors) -> np.ndarray:
    """Table of C<f0> x C<f1> x ...; element index is row-major."""
    coords = coordinates(factors)
    factors = np.asarray(factors, dtype=np.int64)
    strides = np.cumprod(np.concatenate([factors[1:], [1]])[::-1])[::-1]
    sums = (coords[:, None, :] + coords[None, :, :]) % factors
    return sums @ strides


def coordinates(factors) -> np.ndarray:
    """coords[g, i] = the i-th cyclic coordinate of element g."""
    return np.array(list(itertools.product(*(range(f) for f in factors))),
                    dtype=np.int64).reshape(-1, len(factors))


def _parity(p) -> int:
    return sum(p[i] > p[j] for i in range(len(p))
               for j in range(i + 1, len(p))) & 1


def permutation_group(m: int, even_only: bool = False):
    """(table, parity) of S<m>, or of A<m> when even_only."""
    perms = [p for p in itertools.permutations(range(m))
             if not (even_only and _parity(p))]
    P = np.array(perms, dtype=np.int64)
    weights = m ** np.arange(m, dtype=np.int64)
    keys = P @ weights
    order = np.argsort(keys)
    composed = P[np.arange(len(P))[:, None, None], P[None, :, :]]
    table = order[np.searchsorted(keys[order], composed @ weights)]
    return table, np.array([_parity(p) for p in perms], dtype=np.int64)


def element_orders(T: np.ndarray) -> np.ndarray:
    """Order of each element of a table whose identity is element 0."""
    n = len(T)
    ar = np.arange(n)
    cur = ar.copy()
    orders = np.zeros(n, dtype=np.int64)
    k = 1
    orders[0] = 1
    while (orders == 0).any():
        k += 1
        cur = T[cur, ar]
        orders[(orders == 0) & (cur == 0)] = k
    return orders


def a4_to_c3(T: np.ndarray) -> np.ndarray:
    """A homomorphism A4 -> Z/3: g lies in the coset t^k V4 of V4."""
    orders = element_orders(T)
    v4 = np.nonzero(orders <= 2)[0]
    t = int(np.nonzero(orders == 3)[0][0])
    inverse = np.argmax(T == 0, axis=1)
    chi = np.full(len(T), -1, dtype=np.int64)
    tk = 0
    for k in range(3):
        chi[np.isin(T[inverse[tk]], v4)] = k  # t^-k g in V4
        tk = int(T[tk, t])
    if (chi < 0).any():
        raise AssertionError("cosets of V4 do not cover A4")
    return chi


def carry_pullback(chi: np.ndarray, m: int, N: int) -> np.ndarray:
    """omega(g,h,k) = (N/m) chi(g) [chi(h) + chi(k) >= m].

    The pullback along chi: G -> Z/m of the generator of H^3(Z/m, U(1)),
    written with values in Z/N (m | N).
    """
    a = chi[:, None, None]
    carry = (chi[None, :, None] + chi[None, None, :]) >= m
    return ((N // m) * a * carry) % N


def bicharacter(coords: np.ndarray, factors, unit: int, N: int) -> np.ndarray:
    """(N/d) (unit * x_0 y_1 mod d): a non-symmetric 2-cocycle."""
    d = math.gcd(factors[0], factors[1])
    prod = unit * coords[:, 0][:, None] * coords[:, 1][None, :]
    return (N // d) * (prod % d)


def carry_cross(coords: np.ndarray, factors, unit: int, N: int,
                swap: bool) -> np.ndarray:
    """(N/m) (unit x_a) [y_b + z_b >= m] on a product of two C<m>'s."""
    a, b = (1, 0) if swap else (0, 1)
    m = factors[a]
    xa = (unit * coords[:, a]) % m
    yb = coords[:, b]
    carry = (yb[None, :, None] + yb[None, None, :]) >= m
    return ((N // m) * xa[:, None, None] * carry) % N


def sparse_cochain(rng, n: int, degree: int, support: int,
                   N: int) -> np.ndarray:
    """A normalized cochain with `support` nonzero non-identity entries."""
    others = np.arange(1, n)
    cells = set()
    while len(cells) < support:
        cells.add(tuple(int(x) for x in rng.choice(others, size=degree)))
    phi = np.zeros((n,) * degree, dtype=np.int64)
    for c in sorted(cells):
        phi[c] = int(rng.integers(1, N))
    return phi


def delta(T: np.ndarray, phi: np.ndarray, N: int) -> np.ndarray:
    """Bar coboundary of a degree-1 or degree-2 cochain (trivial action)."""
    if phi.ndim == 1:
        return (phi[None, :] - phi[T] + phi[:, None]) % N
    if phi.ndim == 2:
        # phi(h,k) - phi(gh,k) + phi(g,hk) - phi(g,h)
        return (phi[None, :, :] - phi[T] + phi[:, T]
                - phi[:, :, None]) % N
    raise ValueError(f"delta needs degree 1 or 2, got {phi.ndim}")


def commuting_triples(T: np.ndarray) -> int:
    """#{(g,h,k) pairwise commuting}; over |G| it is the simple count of
    the untwisted double (Burnside's lemma applied per centralizer)."""
    C = (T == T.T).astype(np.int64)
    return int(((C @ C) * C).sum())


def cocycle_json(dense: np.ndarray, N: int) -> dict:
    """The sparse {"modulus", "degree", "entries"} cocycle file format."""
    nz = np.argwhere(dense)
    vals = dense[tuple(nz.T)]
    entries = np.concatenate([nz, vals[:, None]], axis=1).tolist()
    return {"modulus": int(N), "degree": int(dense.ndim), "entries": entries}
