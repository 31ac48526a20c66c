"""Shared builders and fixtures for the test suite.

Groups used across many tests are built once per session.  The two
non-product order-8 groups (dihedral and quaternion) are constructed
here by hand since the library only ships cyclic/symmetric builders.
"""

import itertools

import numpy as np
import pytest

from zcenter.cohomology import Cochain, coboundary, cup3
from zcenter.group_core import (FiniteGroup, center, direct_product,
                                make_alternating, make_cyclic, make_symmetric,
                                enumerate_homomorphisms)


def augmented(A, b, N: int) -> np.ndarray:
    """The rows [A | -b] mod N as int64, the form in which
    `snf.solve_modular_linear` takes A x = b (mod N).

    A is a list of rows or an integer array (the int8 rows of
    `_full_system` too); an empty A with no b has no columns.
    """
    A = np.asarray(A, dtype=np.int64)
    A = A.reshape(len(b), A.shape[1] if A.ndim == 2 else 0)
    return np.column_stack([A, -np.asarray(b, dtype=np.int64)]) % N


def make_dihedral4() -> FiniteGroup:
    """Symmetries of a square: (a, b) with a in Z/4, b in Z/2, index a + 4b.

    (a, b) * (c, d) = (a + (-1)^b c, b + d).
    """
    table = np.zeros((8, 8), dtype=np.int32)
    for a in range(4):
        for b in range(2):
            for c in range(4):
                for d in range(2):
                    aa = (a + (c if b == 0 else -c)) % 4
                    table[a + 4 * b, c + 4 * d] = aa + 4 * ((b + d) % 2)
    return FiniteGroup(table, label="D4")


_Q8_LETTER = {
    # (l1, l2) -> (sign flip, letter) for 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def make_quaternion8() -> FiniteGroup:
    """Quaternion group {+-1, +-i, +-j, +-k}; (sign s, letter l) at 2l + s."""
    table = np.zeros((8, 8), dtype=np.int32)
    for l1 in range(4):
        for s1 in range(2):
            for l2 in range(4):
                for s2 in range(2):
                    flip, l = _Q8_LETTER[(l1, l2)]
                    s = (s1 + s2 + flip) % 2
                    table[2 * l1 + s1, 2 * l2 + s2] = 2 * l + s
    return FiniteGroup(table, label="Q8")


def bilinear_cochain(G: FiniteGroup, coeffs: dict, modulus: int) -> Cochain:
    """f(g, h) = sum over (i, j) of (N/d) * ((c * g_i * h_j) mod d).

    d = gcd(order of factor i, order of factor j, N).  Bi-additive into
    Z/N, hence always a 2-cocycle.  Needs a product-of-cyclics group.
    """
    import math
    facs = G.cyclic_factors
    if facs is None:
        raise ValueError("needs a product of cyclic groups")
    coords = []
    stride = 1
    for f in reversed(facs):
        coords.append((np.arange(G.order) // stride) % f)
        stride *= f
    coords.reverse()
    dense = np.zeros((G.order, G.order), dtype=np.int64)
    for (i, j), c in coeffs.items():
        d = math.gcd(math.gcd(facs[i], facs[j]), modulus)
        if d == 0 or modulus % d:
            raise ValueError("modulus incompatible with factor orders")
        term = (c * coords[i][:, None] * coords[j][None, :]) % d
        dense += term * (modulus // d)
    return Cochain(G, 2, modulus, dense=dense)


def quotient_by_center(G: FiniteGroup):
    """(Q, images): G / Z(G), each coset indexed by its least element in
    ascending order, and images[g] the coset of g.  FiniteGroup validates
    Q's table, so a wrong coset table fails there."""
    reps, images = np.unique(G.table[:, list(center(G))].min(axis=1),
                             return_inverse=True)
    Q = FiniteGroup(images[G.table[np.ix_(reps, reps)]],
                    label=f"{G.label}/Z")
    return Q, images


def schur_cover_cocycle(q: int, special: bool, modulus: int):
    """(Q, gamma) with Q = G / Z(G) for G = SL(2, q) or GL(2, q), q prime.

    G is tabled over its matrices mod q, identity first.  Z(G) is the
    cyclic group of its scalars; let m = |Z(G)| and let c0 I generate it.
    gamma mod N (m | N) is the 2-cocycle of the section s taking each
    coset to its least element: s(x) s(y) = (c0 I)^a s(xy) gives
    gamma(x, y) = (N/m) a.  The gamma-projective representations of Q
    are then the representations of G in which c0 I acts by zeta_m.
    """
    det = lambda m: (m[0] * m[3] - m[1] * m[2]) % q
    mats = sorted((m for m in itertools.product(range(q), repeat=4)
                   if (det(m) == 1 if special else det(m) != 0)),
                  key=lambda m: (m != (1, 0, 0, 1), m))
    M = np.array(mats, dtype=np.int64)
    place = q ** np.arange(3, -1, -1)
    index = np.full(q ** 4, -1, dtype=np.int64)
    index[M @ place] = np.arange(len(M))
    prods = np.einsum("aij,bjk->abik", M.reshape(-1, 2, 2),
                      M.reshape(-1, 2, 2)) % q
    G = FiniteGroup(index[prods.reshape(len(M), len(M), 4) @ place],
                    label=f"{'S' if special else 'G'}L(2,{q})")
    m = len(center(G))
    root = next(c for c in range(2, q)
                if len({pow(c, k, q) for k in range(1, q)}) == q - 1)
    c0 = pow(root, (q - 1) // m, q)
    log = {pow(c0, a, q): a for a in range(m)}
    Q, images = quotient_by_center(G)
    section = np.unique(images, return_index=True)[1]
    s = section[:, None]
    z = G.table[G.table[s, section[None, :]], G.inverse[section[Q.table]]]
    a = np.vectorize(lambda g: log[int(M[g, 0])])(z)
    return Q, Cochain(Q, 2, modulus, dense=(modulus // m) * a)


def random_cochain(G: FiniteGroup, degree: int, modulus: int,
                   rng: np.random.Generator) -> Cochain:
    """Uniform normalized cochain (zero whenever an argument is e)."""
    shape = (G.order,) * degree
    dense = rng.integers(0, modulus, size=shape)
    e = G.identity
    for axis in range(degree):
        sl = tuple(e if a == axis else slice(None) for a in range(degree))
        dense[sl] = 0
    return Cochain(G, degree, modulus, dense=dense)


def pullback(f: Cochain, G: FiniteGroup, images) -> Cochain:
    """Inflate a cochain on Q along a map G -> Q given by its image array."""
    idx = np.asarray(images)
    if f.degree == 1:
        dense = f.dense[idx]
    elif f.degree == 2:
        dense = f.dense[np.ix_(idx, idx)]
    elif f.degree == 3:
        dense = f.dense[np.ix_(idx, idx, idx)]
    else:
        raise ValueError("degree 1..3 only")
    return Cochain(G, f.degree, f.modulus, dense=dense)


def sign_images(G: FiniteGroup) -> np.ndarray:
    """Image array of the unique surjection G -> C2, for groups that have
    exactly one subgroup of index 2 (S_m, and our D4/Q8 are not such, so
    only use where uniqueness holds)."""
    C2 = make_cyclic(2)
    onto = [a for a in enumerate_homomorphisms(G, C2)
            if set(int(x) for x in a.images) == {0, 1}]
    if len(onto) != 1:
        raise ValueError(f"expected a unique surjection to C2, got {len(onto)}")
    return onto[0].images


def sign_cocycle(G: FiniteGroup, modulus: int = 2) -> Cochain:
    """Pullback of the nontrivial 3-cocycle on C2 along the sign map."""
    C2 = make_cyclic(2)
    w = cup3(C2, 0, 0, 0, 2)
    if modulus != 2:
        w = Cochain(C2, 3, modulus, dense=w.dense * (modulus // 2))
    return pullback(w, G, sign_images(G))


def shifted(omega: Cochain, rng: np.random.Generator) -> Cochain:
    """omega plus the coboundary of a random 2-cochain."""
    beta = random_cochain(omega.group, 2, omega.modulus, rng)
    return omega + coboundary(beta)


# -- session-scoped groups --------------------------------------------

@pytest.fixture(scope="session")
def C2():
    return make_cyclic(2)


@pytest.fixture(scope="session")
def C3():
    return make_cyclic(3)


@pytest.fixture(scope="session")
def C4():
    return make_cyclic(4)


@pytest.fixture(scope="session")
def C6():
    return make_cyclic(6)


@pytest.fixture(scope="session")
def C2xC2():
    return direct_product(make_cyclic(2), make_cyclic(2))


@pytest.fixture(scope="session")
def C2xC4():
    return direct_product(make_cyclic(2), make_cyclic(4))


@pytest.fixture(scope="session")
def C2cubed():
    return direct_product(direct_product(make_cyclic(2), make_cyclic(2)),
                          make_cyclic(2))


@pytest.fixture(scope="session")
def C3cubed():
    return direct_product(direct_product(make_cyclic(3), make_cyclic(3)),
                          make_cyclic(3))


@pytest.fixture(scope="session")
def S3():
    return make_symmetric(3)


@pytest.fixture(scope="session")
def S4():
    return make_symmetric(4)


@pytest.fixture(scope="session")
def S5():
    return make_symmetric(5)


@pytest.fixture(scope="session")
def A4():
    return make_alternating(4)


@pytest.fixture(scope="session")
def A5():
    return make_alternating(5)


@pytest.fixture(scope="session")
def D4():
    return make_dihedral4()


@pytest.fixture(scope="session")
def Q8():
    return make_quaternion8()


@pytest.fixture(scope="session")
def small_universe(C2, C3, C4, C6, C2xC2, C2xC4, C2cubed, S3, D4, Q8):
    """All fourteen isomorphism types of order at most 8."""
    return [
        make_cyclic(1), C2, C3, C4, C2xC2, make_cyclic(5), C6,
        make_cyclic(7), make_cyclic(8), C2xC4, C2cubed, S3, D4, Q8,
    ]


@pytest.fixture(scope="session")
def test_universe(small_universe, S4, A4):
    return small_universe + [S4, A4]
