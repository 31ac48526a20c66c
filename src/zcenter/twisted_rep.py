"""Twisted group algebras and their irreducible representation profiles.

The algebra K^gamma(G) has basis u_g with u_g u_h = zeta^{gamma(g,h)} u_{gh}
for a 2-cocycle gamma mod N.  The algebra is its cocycle, so each function
here takes gamma, a degree-2 `Cochain`, and reads G as gamma's group.
Everything downstream needs only the Wedderburn data: how many
irreducibles there are and their dimensions.  `irrep_profile` computes
it by one of two exact routes chosen by whether G is abelian (the tests
cross-check the two):

  * abelian fast path: the regular elements, decided at the generators,
    form a subgroup R; all |R| irreducibles have dimension sqrt(|G|/|R|);
  * class algebra: the centre of K^gamma(G) has a basis of twisted
    sums over the gamma-regular classes.  Its characters are the common
    eigenvectors of the multiplication matrices over a prime field, and
    the orthogonality relation of projective characters turns each into
    a degree (Karpilovsky, Projective Representations of Finite Groups,
    1985; Dixon, Numer. Math. 10, 1967).  Ordinary character degrees are
    the case gamma = 0.  Nothing is memoized: `pointed_center`'s
    category keeps each profile it reads, one per class.

No floating point anywhere; eigenvalue work happens in F_p with
p = 1 mod N * exponent and p > 2 sqrt(order), which pins degrees uniquely.
Row bases over F_p come from the elimination in `snf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohomology import Cochain, _require_cocycle
from .group_core import (FiniteGroup, _prime_factors, _short_generators,
                         conjugacy_classes)
from .snf import _row_basis_mod_p

__all__ = [
    "IrrepProfile",
    "regular_classes",
    "irrep_profile",
    "ordinary_character_degrees",
]

# The one size bound of the class-algebra path: p < 2^20 keeps every sum
# of up to MAX_TABLE_ORDER products of two residues inside int64.
PRIME_LIMIT = 2 ** 20


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


def _regular_element_mask(G: FiniteGroup, gam: np.ndarray,
                          elements) -> np.ndarray:
    """Element g is regular iff gamma(g,x) = gamma(x,g) on its centralizer."""
    table = G.table
    return ((gam[elements] == gam[:, elements].T)
            | (table[elements] != table[:, elements].T)).all(axis=1)


def regular_classes(gam: Cochain) -> set:
    """Class indices whose elements are gamma-regular."""
    reps = conjugacy_classes(gam.group).representatives
    mask = _regular_element_mask(gam.group, gam.dense, reps)
    return {int(i) for i in np.nonzero(mask)[0]}


# -- abelian fast path -------------------------------------------------

def _abelian_profile(gam: Cochain) -> IrrepProfile:
    """All irreducibles of K^gamma(G), G abelian, share one dimension.

    beta(x, y) = gamma(x, y) - gamma(y, x) is a bicharacter, so x is
    regular iff beta(x, s) = 0 at each generator s.  These x form a
    subgroup R of square index d^2, and the algebra has |R|
    irreducibles, each of dimension d (Karpilovsky 1985).
    """
    G, W, S = gam.group, gam.dense, _short_generators(gam.group)
    r = int((W[:, S] == W[S].T).all(axis=1).sum())
    d = math.isqrt(G.order // r)
    if d * d * r != G.order:
        raise AssertionError("regular subgroup does not have square index")
    return IrrepProfile(dimensions=(d,) * r, method="abelian-fast-path")


# -- prime-field helpers ----------------------------------------------

def _dixon_prime(m: int, order: int) -> int:
    """Smallest prime p = 1 mod m with p^2 > 4*order."""
    p = m + 1
    while p < PRIME_LIMIT:
        if p * p > 4 * order and _prime_factors(p) == [p]:
            return p
        p += m
    raise ValueError(
        f"no prime p = 1 mod {m} with p^2 > {4 * order} below the "
        f"Dixon prime bound {PRIME_LIMIT}")


def _primitive_root(p: int) -> int:
    m = p - 1
    factors = _prime_factors(m)
    for h in range(2, p):
        if all(pow(h, m // q, p) != 1 for q in factors):
            return h
    raise AssertionError("no primitive root found")


def _matpow_mod_p(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p by repeated squaring."""
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _eigenspaces(B: np.ndarray, A: np.ndarray, p: int) -> list:
    """Row bases of the eigenspaces of A on the A-invariant row space of B.

    A acts diagonalisably with eigenvalues in F_p, so it is scalar on a
    space with one eigenvalue.  Otherwise S = (C + a)^((p-1)/2), for C
    the action of A, is 0, 1 or -1 on each eigenspace of C (the quadratic
    character of lambda + a).  Two eigenvalues differ in it for some
    a = 0, 1, 2, ... (their Jacobsthal sum over all a is -1), and then
    S's eigenspaces split the space.  No root of a polynomial is sought,
    so the cost grows with log p, not p.
    """
    images = B @ A.T % p
    c = int(np.flatnonzero(B[0])[0])
    lam = int(images[0, c]) * pow(int(B[0, c]), p - 2, p) % p
    if (images == lam * B % p).all():
        return [B]
    B, piv = _row_basis_mod_p(B, p)
    C = (B @ A.T % p)[:, piv]  # row coordinates x act by x -> x C
    I = np.eye(len(C), dtype=np.int64)
    for a in range(p):
        S = _matpow_mod_p((C + a * I) % p, (p - 1) // 2, p)
        if (S == S[0, 0] * I).all():
            continue
        S2 = S @ S % p
        if (S2 @ S % p != S).any():
            raise AssertionError(
                "class matrix is not diagonalisable over F_p; the chosen "
                "prime cannot separate characters")
        # S^3 = S: I - S^2 and (S^2 +- S)/2 project onto its 0, 1 and -1
        # eigenspaces, and none of them is I, since S is not scalar
        h = (p + 1) // 2
        parts = [_row_basis_mod_p(P, p)[0]
                 for P in (I - S2, (S2 + S) * h, (S2 - S) * h)]
        return [E for P in parts if len(P)
                for E in _eigenspaces(P @ B % p, A, p)]
    raise AssertionError("no shift separates the eigenvalues")


# -- class-algebra degrees --------------------------------------------

def _character_vectors(class_matrix, k: int, e: int, p: int) -> np.ndarray:
    """Rows v with v_j = omega(c_j) mod p, one per central character omega
    of an algebra with basis c_0..c_{k-1}, c_e = 1, where
    c_i c_j = sum over l of class_matrix(i)[j, l] c_l.

    Found as the common eigenvectors of the multiplication matrices,
    refined one matrix at a time (lowest basis index first).
    """
    blocks = [np.eye(k, dtype=np.int64)]
    for i in range(k):
        if all(len(B) == 1 for B in blocks):
            break
        Ai = class_matrix(i) % p
        blocks = [E for B in blocks for E in _eigenspaces(B, Ai, p)]
    vectors = []
    for B in blocks:
        if len(B) != 1:
            raise AssertionError(
                "class algebra did not split into one-dimensional "
                "eigenspaces; the chosen prime cannot separate characters")
        w = B[0]
        if w[e] % p == 0:
            raise AssertionError("character vector vanishes at the identity")
        vectors.append((w * pow(int(w[e]), p - 2, p)) % p)
    return np.array(vectors, dtype=np.int64)


def _class_algebra_degrees(G: FiniteGroup, gam: np.ndarray, N: int) -> list:
    """Degrees, ascending, of the irreducible representations of
    K^gamma(G), for an n x n array gam of residues mod N.

    For a regular class K_j with representative r_j and h = x r_j x^-1,
    u_x u_r u_x^-1 = zeta^{s(h)} u_h, well defined because r_j is
    regular.  The sums c_j = sum over h in K_j of zeta^{s(h)} u_h are a
    basis of the centre.  A character chi of degree d gives the central
    character v_j = |K_j| chi(u_{r_j}) / d, and the orthogonality
    relation sum over g of chi(u_g) chi(u_g^-1) = |G| becomes
    |G| / d^2 = sum over j of v_j v_{j*} zeta^{-t_j} / |K_j|, where
    K_{j*} holds r_j^-1 and t_j = gamma(r_j, r_j^-1) + s(r_j^-1).
    """
    # the eigenvalues are sums of (N * exponent)-th roots of unity
    p = _dixon_prime(N * G.exponent(), G.order)
    zeta = pow(_primitive_root(p), (p - 1) // N, p)
    zpow = np.ones(N, dtype=np.int64)  # zpow[a] = zeta^a
    m, step = 1, zeta
    while m < N:
        zpow[m:2 * m] = zpow[:min(m, N - m)] * step % p
        m, step = 2 * m, step * step % p

    T, inv = G.table, G.inverse
    cc = conjugacy_classes(G)
    regular = np.nonzero(
        _regular_element_mask(G, gam, cc.representatives))[0]
    reps = cc.representatives[regular].astype(np.int64)
    k = len(reps)
    basis = np.full(cc.count, -1, dtype=np.int64)
    basis[regular] = np.arange(k)
    # s(h) on every regular class, from all x at once (any x gives it)
    s = np.zeros(G.order, dtype=np.int64)
    gam_inv = gam[np.arange(G.order), inv]
    for r in reps:
        xr = T[:, r]
        s[T[xr, inv]] = (gam[:, r] + gam[xr, inv] - gam_inv) % N

    def class_matrix(i):
        # (A_i)[j, l]: coefficient of u_{r_l} in c_i c_j, summed over
        # x in K_i and y = x^-1 r_l; y outside the regular classes cancels
        X = np.nonzero(cc.class_of == regular[i])[0]
        Y = T[np.ix_(inv[X], reps)]
        J = basis[cc.class_of[Y]]
        ok = J >= 0
        E = (s[X][:, None] + s[Y] + gam[X[:, None], Y]) % N
        L = np.broadcast_to(np.arange(k), J.shape)
        A = np.zeros((k, k), dtype=np.int64)
        np.add.at(A, (J[ok], L[ok]), zpow[E[ok]])
        return A

    e = int(basis[cc.class_of[G.identity]])
    vectors = _character_vectors(class_matrix, k, e, p)
    rinv = inv[reps]
    jstar = basis[cc.class_of[rinv]]
    weights = zpow[-(gam[reps, rinv] + s[rinv]) % N]
    weights = weights * [pow(int(c), p - 2, p)
                         for c in cc.class_sizes[regular]] % p
    bound = math.isqrt(G.order)
    degrees = []
    for v in vectors:
        norm = int((v * v[jstar] % p * weights % p).sum()) % p
        if norm == 0:
            raise AssertionError("degenerate character norm")
        target = G.order * pow(norm, p - 2, p) % p
        hits = [d for d in range(1, bound + 1) if d * d % p == target]
        if len(hits) != 1:
            raise AssertionError(
                f"degree not pinned uniquely by prime {p}: candidates {hits}")
        degrees.append(hits[0])
    if sum(d * d for d in degrees) != G.order:
        raise AssertionError("degree squares do not sum to |G|")
    return sorted(degrees)


def ordinary_character_degrees(G: FiniteGroup) -> list:
    """Ordinary irreducible character degrees, ascending, exactly."""
    if G.is_abelian():
        return [1] * G.order
    zero = np.broadcast_to(np.int64(0), (G.order, G.order))
    return _class_algebra_degrees(G, zero, 1)


def _class_algebra_profile(gam: Cochain) -> IrrepProfile:
    """The profile from the twisted class algebra, for any G."""
    G, W, N = gam.group, gam.dense, gam.modulus
    # zeta_N^gamma = zeta_N'^gamma' with N' = N / gcd(N, gamma's values):
    # the same algebra, with a smaller prime
    d = math.gcd(N, int(np.gcd.reduce(W, axis=None)))
    dims = _class_algebra_degrees(G, W // d, N // d)
    return IrrepProfile(dimensions=tuple(dims), method="class-algebra")


def irrep_profile(gam: Cochain) -> IrrepProfile:
    """Wedderburn dimension profile of K^gamma(G) for a 2-cocycle gamma
    on G = gam.group.

    A cocycle already holding its verdict, as each class's gamma from
    `cohomology._gamma` holds omega's, is not swept again.  The abelian
    fast path serves abelian G and the class algebra all other groups;
    each call computes the profile afresh.
    """
    if gam.degree != 2:
        raise ValueError("twisting cocycle must have degree 2")
    _require_cocycle(gam, "twisting cochain")
    return (_abelian_profile(gam) if gam.group.is_abelian()
            else _class_algebra_profile(gam))
