"""Twisted group algebras and their irreducible representation profiles.

The algebra K^gamma(G) has basis u_g with u_g u_h = zeta^{gamma(g,h)} u_{gh}
for a 2-cocycle gamma mod N.  Everything downstream needs only the
Wedderburn data: how many irreducibles there are and their dimensions.
`irrep_profile` computes it once per algebra, by one of two exact routes
chosen by whether G is abelian (the tests cross-check the two):

  * abelian fast path: the regular elements form a subgroup R and all
    irreducibles share dimension sqrt(|G|/|R|), with |R| of them;
  * central extension: degrees of the extension Z/N x_gamma G are found
    by the class-algebra eigenvector method over a prime field, keeping
    the characters where the central Z/N acts by the standard faithful
    character.  Ordinary character degrees are the case N = 1.

No floating point anywhere; eigenvalue work happens in F_p with
p = 1 mod exponent and p > 2 sqrt(order), which pins degrees uniquely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohomology import Cochain, CocycleError, is_cocycle
from .group_core import FiniteGroup, _prime_factors, conjugacy_classes

__all__ = [
    "TwistedGroupAlgebra",
    "IrrepProfile",
    "regular_classes",
    "irrep_profile",
    "count_reps_of_dim",
    "ordinary_character_degrees",
    "central_extension",
]

MAX_EXTENSION_ORDER = 4096
PRIME_LIMIT = 2 ** 31


class TwistedGroupAlgebra:
    """K^gamma(G) for a normalized 2-cocycle gamma with values mod N."""

    def __init__(self, group: FiniteGroup, cocycle: Cochain):
        if cocycle.degree != 2:
            raise ValueError("twisting cocycle must have degree 2")
        if cocycle.group is not group:
            raise ValueError("cocycle is defined on a different group")
        verdict = is_cocycle(cocycle)
        if not verdict.is_cocycle:
            raise CocycleError(
                "twisting cochain fails the cocycle identity at "
                f"{verdict.failure_certificate}",
                certificate=verdict.failure_certificate)
        self.group = group
        self.cocycle = cocycle
        self.modulus = cocycle.modulus
        self._profile = None

    def structure_constant(self, g: int, h: int):
        """(gh, exponent) with u_g u_h = zeta^exponent u_{gh}."""
        return self.group.mul(g, h), self.cocycle(g, h)

    def __repr__(self):
        return (f"TwistedGroupAlgebra({self.group.label}, "
                f"N={self.modulus})")


@dataclass(frozen=True)
class IrrepProfile:
    dimensions: tuple
    method: str

    def count_of_dim(self, m: int) -> int:
        """Multisets of irreducibles with total dimension m."""
        ways = [0] * (m + 1)
        ways[0] = 1
        for d in self.dimensions:
            for t in range(d, m + 1):
                ways[t] += ways[t - d]
        return ways[m]


def _regular_element_mask(T: TwistedGroupAlgebra) -> np.ndarray:
    """Element g is regular iff gamma(g,x) = gamma(x,g) on its centralizer."""
    gam = T.cocycle.dense
    table = T.group.table
    return ((gam == gam.T) | (table != table.T)).all(axis=1)


def regular_classes(T: TwistedGroupAlgebra) -> set:
    """Class indices whose elements are gamma-regular."""
    cc = conjugacy_classes(T.group)
    mask = _regular_element_mask(T)
    out = set()
    for i, rep in enumerate(cc.representatives):
        if mask[rep]:
            out.add(i)
    return out


def count_reps_of_dim(T: TwistedGroupAlgebra, m: int) -> int:
    if m < 0:
        raise ValueError("dimension must be non-negative")
    return irrep_profile(T).count_of_dim(m)


# -- abelian fast path -------------------------------------------------

def _abelian_profile(T: TwistedGroupAlgebra) -> IrrepProfile:
    """All irreducibles of K^gamma(G), G abelian, share one dimension.

    The regular elements form a subgroup R of square index d^2, and the
    algebra has |R| irreducibles, each of dimension d (Karpilovsky,
    Projective Representations of Finite Groups, 1985).
    """
    G = T.group
    R = np.nonzero(_regular_element_mask(T))[0]
    d = math.isqrt(G.order // len(R))
    if not (np.isin(G.table[np.ix_(R, R)], R).all()
            and d * d * len(R) == G.order):
        raise AssertionError(
            "regular elements do not form a subgroup of square index")
    return IrrepProfile(dimensions=(d,) * len(R), method="abelian-fast-path")


# -- prime-field helpers ----------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime p = 1 mod exponent with p^2 > 4*order."""
    p = exponent + 1
    while p < PRIME_LIMIT:
        if p * p > 4 * order and _is_prime(p):
            return p
        p += exponent
    raise ValueError(f"no usable prime below {PRIME_LIMIT}")


def _primitive_root(p: int) -> int:
    m = p - 1
    factors = _prime_factors(m)
    for h in range(2, p):
        if all(pow(h, m // q, p) != 1 for q in factors):
            return h
    raise AssertionError("no primitive root found")


def _rref_mod_p(M: np.ndarray, p: int):
    """Row-reduce mod p; returns (nonzero rows, pivot columns)."""
    A = (np.array(M, dtype=np.int64) % p).copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        sel = None
        for i in range(r, rows):
            if A[i, c] % p:
                sel = i
                break
        if sel is None:
            continue
        A[[r, sel]] = A[[sel, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        mask = np.ones(rows, dtype=bool)
        mask[r] = False
        A[mask] = (A[mask] - np.outer(A[mask, c], A[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A[:r], pivots


def _nullspace_mod_p(M: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the right nullspace of M mod p."""
    R, pivots = _rref_mod_p(M, p)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = (-R[r, fc]) % p
    return basis


def _charpoly_mod_p(C: np.ndarray, p: int) -> np.ndarray:
    """Monic characteristic polynomial coefficients mod p (Hessenberg)."""
    H = (np.array(C, dtype=np.int64) % p).copy()
    r = H.shape[0]
    for c in range(r - 2):
        piv = None
        for i in range(c + 1, r):
            if H[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), p - 2, p)
        for i in range(c + 2, r):
            f = (H[i, c] * inv) % p
            if f:
                H[i] = (H[i] - f * H[c + 1]) % p
                H[:, c + 1] = (H[:, c + 1] + f * H[:, i]) % p
    # charpoly of a Hessenberg matrix by the leading-minor recurrence
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, r + 1):
        # coefficients stored highest degree first
        term = np.zeros(m + 1, dtype=np.int64)
        term[1:] = (polys[m - 1] * int(H[m - 1, m - 1])) % p
        base = np.zeros(m + 1, dtype=np.int64)
        base[:m] = polys[m - 1]
        poly = (base - term) % p
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = (prod * int(H[i, i - 1])) % p
            coeff = (prod * int(H[i - 1, m - 1])) % p
            if coeff:
                sub = np.zeros(m + 1, dtype=np.int64)
                sub[m + 1 - len(polys[i - 1]):] = polys[i - 1]
                poly = (poly - coeff * sub) % p
        polys.append(poly)
    return polys[r] % p


def _poly_roots_mod_p(coeffs: np.ndarray, p: int) -> list:
    """All roots in F_p of a monic polynomial, ascending."""
    ts = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        vals = (vals * ts + int(c)) % p
    return [int(t) for t in np.nonzero(vals == 0)[0]]


# -- Dixon class-algebra degrees --------------------------------------

def _class_matrix(G: FiniteGroup, cc, i: int) -> np.ndarray:
    """(A_i)[j, k] = #{(x, y) : x in C_i, y in C_j, xy = rep_k}."""
    k = cc.count
    reps = np.array(cc.representatives, dtype=np.int64)
    X = np.nonzero(cc.class_of == i)[0]
    Y = G.table[np.ix_(G.inverse[X], reps)]
    J = cc.class_of[Y]
    A = np.zeros((k, k), dtype=np.int64)
    np.add.at(A, (J, np.broadcast_to(np.arange(k), J.shape)), 1)
    return A


def _character_vectors(G: FiniteGroup, p: int) -> np.ndarray:
    """Rows v with v_j = |C_j| chi(g_j) / chi(1) mod p, one per character.

    Found as the common eigenvectors of the class-algebra multiplication
    matrices, refined one matrix at a time (lowest class index first).
    """
    cc = conjugacy_classes(G)
    k = cc.count
    if k * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            f"prime {p} too large for the int64 arithmetic path")
    blocks = [np.eye(k, dtype=np.int64)]
    for i in range(1, k):
        if all(len(B) == 1 for B in blocks):
            break
        Ai = _class_matrix(G, cc, i) % p
        refined = []
        for B in blocks:
            if len(B) == 1:
                refined.append(B)
                continue
            B, piv = _rref_mod_p(B, p)
            images = (B @ Ai.T) % p
            C = images[:, piv]
            roots = _poly_roots_mod_p(_charpoly_mod_p(C, p), p)
            for t in roots:
                coords = _nullspace_mod_p((C.T - t * np.eye(len(C),
                                                            dtype=np.int64))
                                          % p, p)
                if len(coords):
                    refined.append((coords @ B) % p)
        blocks = refined
    vectors = []
    for B in blocks:
        if len(B) != 1:
            raise AssertionError(
                "class algebra did not split into one-dimensional "
                "eigenspaces; the chosen prime cannot separate characters")
        w = B[0]
        if w[0] % p == 0:
            raise AssertionError("character vector vanishes at the identity")
        vectors.append((w * pow(int(w[0]), p - 2, p)) % p)
    return np.array(vectors, dtype=np.int64)


def _degree_of_vector(G: FiniteGroup, v: np.ndarray, p: int) -> int:
    cc = conjugacy_classes(G)
    reps = np.array(cc.representatives, dtype=np.int64)
    jstar = cc.class_of[G.inverse[reps]]
    s = 0
    for j in range(cc.count):
        s = (s + int(v[j]) * int(v[jstar[j]])
             * pow(int(cc.class_sizes[j]), p - 2, p)) % p
    if s == 0:
        raise AssertionError("degenerate character norm")
    target = (G.order * pow(int(s), p - 2, p)) % p
    bound = math.isqrt(G.order)
    hits = [d for d in range(1, bound + 1) if (d * d) % p == target]
    if len(hits) != 1:
        raise AssertionError(
            f"degree not pinned uniquely by prime {p}: candidates {hits}")
    return hits[0]


def _dixon_degrees(G: FiniteGroup, c: int, N: int) -> list:
    """Degrees, ascending, of the irreducible characters of G on which
    the central element c of order N acts by zeta_N (N = 1: all)."""
    if G.is_abelian():
        # each character of <c> extends in |G| / N ways
        degrees = [1] * (G.order // N)
    else:
        p = _dixon_prime(G.exponent(), G.order)
        zp = pow(_primitive_root(p), (p - 1) // N, p)
        cc = conjugacy_classes(G)
        jc = int(cc.class_of[c])
        if cc.class_sizes[jc] != 1:
            raise AssertionError("central element not in a singleton class")
        degrees = sorted(_degree_of_vector(G, v, p)
                         for v in _character_vectors(G, p) if int(v[jc]) == zp)
    if N * sum(d * d for d in degrees) != G.order:
        raise AssertionError("degree squares do not sum to |G| / N")
    return degrees


def ordinary_character_degrees(G: FiniteGroup) -> list:
    """Ordinary irreducible character degrees, ascending, exactly."""
    return _dixon_degrees(G, G.identity, 1)


def central_extension(G: FiniteGroup, gamma: Cochain):
    """Z/N x_gamma G with (a,g)(b,h) = (a+b+gamma(g,h), gh).

    Element (a, g) is encoded as a*|G| + g; returns (extension, index
    of the central generator (1 mod N, e)).
    """
    N = gamma.modulus
    n = G.order
    order = N * n
    if order > MAX_EXTENSION_ORDER:
        raise ValueError(
            f"central extension order {order} exceeds {MAX_EXTENSION_ORDER}")
    a = np.arange(order) // n
    g = np.arange(order) % n
    lift = (a[:, None] + a[None, :] + gamma.dense[np.ix_(g, g)]) % N
    table = lift * n + G.table[np.ix_(g, g)]
    label = f"Z{N}x({G.label})" if G.label else None
    return FiniteGroup(table, label=label), (1 % N) * n + G.identity


def _extension_profile(T: TwistedGroupAlgebra) -> IrrepProfile:
    G = T.group
    # zeta_N^gamma = zeta_N'^gamma' with N' = N / gcd(N, gamma's values),
    # so the smaller extension Z/N' x_gamma' G gives the same algebra
    d = math.gcd(T.modulus, int(np.gcd.reduce(T.cocycle.dense, axis=None)))
    N = T.modulus // d
    Gt, c = central_extension(
        G, Cochain(G, 2, N, dense=T.cocycle.dense // d))
    dims = tuple(_dixon_degrees(Gt, c, N))
    if len(dims) != len(regular_classes(T)):
        raise AssertionError(
            "irreducible count disagrees with the regular class count")
    return IrrepProfile(dimensions=dims, method="central-extension")


def irrep_profile(T: TwistedGroupAlgebra) -> IrrepProfile:
    """Wedderburn dimension profile of K^gamma(G), computed once.

    The abelian fast path serves abelian G, the central extension all
    other groups.
    """
    if T._profile is None:
        T._profile = (_abelian_profile(T) if T.group.is_abelian()
                      else _extension_profile(T))
    return T._profile
