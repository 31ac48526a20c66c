"""Twisted group algebras: regular classes, dimension profiles, and the
agreement of the two computation paths."""

import itertools
import math

import numpy as np
import pytest

from zcenter.cohomology import Cochain, CocycleError, coboundary, cup3, gamma
from zcenter import twisted_rep
from zcenter.group_core import (FiniteGroup, direct_product, make_cyclic,
                                make_symmetric, conjugacy_classes,
                                parse_group_spec)
from zcenter.pointed_center import PointedCategory
from zcenter.twisted_rep import (PRIME_LIMIT, IrrepProfile,
                                 TwistedGroupAlgebra, irrep_profile,
                                 ordinary_character_degrees,
                                 regular_classes, _abelian_profile,
                                 _class_algebra_profile, _dixon_prime,
                                 _eigenspaces)

from conftest import (bilinear_cochain, make_dihedral4, pullback,
                      quotient_by_center, random_cochain,
                      schur_cover_cocycle, shifted)


def algebra(G, coeffs, N):
    return TwistedGroupAlgebra(G, bilinear_cochain(G, coeffs, N))


def untwisted(G, N=2):
    return TwistedGroupAlgebra(G, Cochain.zero(G, 2, N))


# -- construction ------------------------------------------------------

def test_validation(C4, S3):
    with pytest.raises(ValueError, match="degree"):
        TwistedGroupAlgebra(C4, Cochain.zero(C4, 3, 2))
    with pytest.raises(ValueError, match="group"):
        TwistedGroupAlgebra(S3, Cochain.zero(C4, 2, 2))
    bad = Cochain(C4, 2, 5, values={(1, 2): 1})
    with pytest.raises(CocycleError):
        TwistedGroupAlgebra(C4, bad)
    # the carry cocycle [g + h >= 4] mod 8 is accepted
    carry = Cochain(C4, 2, 8, dense=np.add.outer(range(4), range(4)) // 4)
    assert TwistedGroupAlgebra(C4, carry).cocycle is carry


# -- regular classes ---------------------------------------------------

def test_untwisted_everything_regular(S3, D4, C2xC4):
    for G in (S3, D4, C2xC4):
        T = untwisted(G)
        assert regular_classes(T) == set(range(conjugacy_classes(G).count))


def test_regular_classes_for_alternating_form(C2cubed):
    # gamma(g, h) = g2*h3: regular elements have g2 = g3 = 0
    T = algebra(C2cubed, {(1, 2): 1}, 2)
    assert regular_classes(T) == {0, 4}  # classes of (0,0,0) and (1,0,0)


def test_symmetric_form_all_regular(C2xC2):
    T = algebra(C2xC2, {(0, 0): 1, (1, 1): 1}, 2)
    assert regular_classes(T) == {0, 1, 2, 3}


# -- profiles: known values --------------------------------------------

def test_ordinary_degrees(S3, S4, S5, A4, A5, D4, Q8, C6):
    assert ordinary_character_degrees(S3) == [1, 1, 2]
    assert ordinary_character_degrees(S4) == [1, 1, 2, 3, 3]
    assert ordinary_character_degrees(S5) == [1, 1, 4, 4, 5, 5, 6]
    assert ordinary_character_degrees(A4) == [1, 1, 1, 3]
    assert ordinary_character_degrees(A5) == [1, 3, 3, 4, 5]
    assert ordinary_character_degrees(D4) == [1, 1, 1, 1, 2]
    assert ordinary_character_degrees(Q8) == [1, 1, 1, 1, 2]
    assert ordinary_character_degrees(C6) == [1] * 6


def test_identity_not_at_index_zero(S4):
    # relabel S4 so that the identity is the last element
    perm = np.roll(np.arange(24), 1)  # old g -> new perm[g]; e -> 23
    back = np.argsort(perm)
    G = FiniteGroup(perm[S4.table[np.ix_(back, back)]])
    assert G.identity == 23
    assert ordinary_character_degrees(G) == [1, 1, 2, 3, 3]


def test_degree_squares_sum(test_universe):
    for G in test_universe:
        degs = ordinary_character_degrees(G)
        assert sum(d * d for d in degs) == G.order
        assert len(degs) == conjugacy_classes(G).count


def test_heisenberg_profile(C2cubed, C3cubed):
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        T = algebra(G, {(1, 2): 1}, n)
        prof = irrep_profile(T)
        assert prof.dimensions == (n,) * n
        assert len(regular_classes(T)) == n
        assert prof.method == "abelian-fast-path"


def test_untwisted_profile_is_characters(C2xC4):
    T = untwisted(C2xC4, 4)
    assert irrep_profile(T).dimensions == (1,) * 8
    assert len(regular_classes(T)) == 8


# -- both paths agree --------------------------------------------------

AGREEMENT_GRID = [
    ("C2", (2,), 2), ("C2", (2,), 4), ("C4", (4,), 4), ("C4", (4,), 8),
    ("C2xC2", (2, 2), 2), ("C2xC2", (2, 2), 4), ("C2xC4", (2, 4), 4),
    ("C8", (8,), 2), ("C2xC2xC2", (2, 2, 2), 2), ("C3", (3,), 3),
    ("C3xC3", (3, 3), 3), ("C9", (9,), 3), ("C6", (6,), 6),
    ("C2xC6", (2, 6), 6), ("C3xC3xC3", (3, 3, 3), 3),
    ("C2xC6", (2, 6), 12), ("C4xC6", (4, 6), 12), ("C12xC4", (12, 4), 12),
]


@pytest.mark.parametrize("label,factors,N", AGREEMENT_GRID)
def test_paths_agree(label, factors, N):
    G = make_cyclic(factors[0])
    for f in factors[1:]:
        G = direct_product(G, make_cyclic(f))
    rng = np.random.default_rng(hash((factors, N)) % 2 ** 32)
    k = len(factors)
    for trial in range(3):
        coeffs = {(i, j): int(rng.integers(0, N))
                  for i in range(k) for j in range(k)}
        T = algebra(G, coeffs, N)
        fast = _abelian_profile(T)
        slow = _class_algebra_profile(T)
        assert fast.dimensions == slow.dimensions
        assert len(fast.dimensions) == len(regular_classes(T))
        assert fast.method == "abelian-fast-path"
        assert slow.method == "class-algebra"


# group, modulus, cup cocycles (factor triples) besides the zero cocycle
GENERATOR_RULE_CASES = [
    ("C2xC2xC2xC2xC2xC2xC2", 2, [(0, 1, 2)]),
    ("C4xC4xC8", 8, [(0, 1, 2), (2, 2, 2)]),
    ("C12xC4xC2", 12, [(0, 1, 2), (0, 1, 0)]),
    ("C6xC6xC3", 6, [(0, 1, 2), (1, 1, 2)]),
]


@pytest.mark.parametrize("spec,N,cups", GENERATOR_RULE_CASES)
def test_abelian_profile_matches_the_defining_rule(spec, N, cups):
    # x is regular iff gamma(x, y) = gamma(y, x) for every y; the fast
    # path reads gamma only at the generators
    G = parse_group_spec(spec)
    rng = np.random.default_rng(len(G.cyclic_factors))
    cocycles = [Cochain.zero(G, 3, N)] + [cup3(G, *c, N) for c in cups]
    for omega in cocycles + [shifted(w, rng) for w in cocycles]:
        C = PointedCategory(G, omega)
        for i in range(G.order):
            T = C.class_algebra(i)
            gam = T.cocycle.dense
            r = int((gam == gam.T).all(axis=1).sum())
            d = math.isqrt(G.order // r)
            assert d * d * r == G.order
            assert _abelian_profile(T).dimensions == (d,) * r


def test_abelian_profile_needs_no_regular_element_mask(monkeypatch, C2xC4):
    def refuse(*args):
        raise AssertionError("full regular-element mask computed")
    monkeypatch.setattr(twisted_rep, "_regular_element_mask", refuse)
    T = algebra(C2xC4, {(0, 1): 1}, 4)
    assert irrep_profile(T).dimensions == (2, 2)


def test_auto_uses_extension_for_nonabelian(S3):
    prof = irrep_profile(untwisted(S3))
    assert prof.method == "class-algebra"
    assert prof.dimensions == (1, 1, 2)


def test_zero_cocycle_extension_is_ordinary(S3, S4, A4, D4, Q8):
    # zero gamma reduces to N' = 1: the ordinary class algebra of G
    for G in (S3, S4, A4, D4, Q8):
        prof = _class_algebra_profile(untwisted(G, 4))
        assert prof.dimensions == tuple(ordinary_character_degrees(G))


def test_extension_size_guard():
    G = make_cyclic(60)
    # gamma = delta(phi) mod 70 with phi(1) = 1 takes the value 1, so the
    # modulus stays 70 and the Dixon prime is 1 mod 4200 (the parent's
    # central extension of order 4200 was refused)
    phi = Cochain(G, 1, 70, values={1: 1})
    T = TwistedGroupAlgebra(G, coboundary(phi))
    prof = irrep_profile(T)
    assert prof.method == "abelian-fast-path"
    assert sum(d * d for d in prof.dimensions) == 60
    assert _class_algebra_profile(T).dimensions == prof.dimensions
    # the bilinear gamma mod 70 takes only multiples of 7, so it reduces
    # to modulus 10, and both paths agree on it
    T = algebra(G, {(0, 0): 1}, 70)
    assert _class_algebra_profile(T).dimensions == _abelian_profile(T).dimensions
    # modulus 60 * 20000 stays unreduced: p = 1 mod 72,000,000 is refused
    phi = Cochain(G, 1, 60 * 20000, values={1: 1})
    T = TwistedGroupAlgebra(G, coboundary(phi))
    with pytest.raises(ValueError, match="1048576"):
        _class_algebra_profile(T)
    assert irrep_profile(T).dimensions == (1,) * 60
    # on S3 modulus 174762 stays unreduced and takes the largest prime
    # the bound admits, p = 6 * 174762 + 1 = 1048573
    S3 = make_symmetric(3)
    phi = Cochain(S3, 1, 174762, values={1: 1})
    assert _dixon_prime(6 * 174762, 6) == 1048573
    prof = irrep_profile(TwistedGroupAlgebra(S3, coboundary(phi)))
    assert prof.dimensions == (1, 1, 2)



def test_largest_prime_on_the_largest_class_algebra():
    # README "Size bounds" quotes this case: gamma = delta(phi) mod 262143
    # with phi(1) = 1 takes the value 1, so N' stays 262143 and D4xC2^4
    # (exponent 4, 80 classes) takes p = 4 * 262143 + 1 = 1048573
    G = make_dihedral4()
    for _ in range(4):
        G = direct_product(G, make_cyclic(2))
    phi = Cochain(G, 1, 262143, values={1: 1})
    assert _dixon_prime(4 * 262143, G.order) == 1048573
    prof = irrep_profile(TwistedGroupAlgebra(G, coboundary(phi)))
    assert prof.method == "class-algebra"
    assert list(prof.dimensions) == ordinary_character_degrees(G)
    assert prof.dimensions == (1,) * 64 + (2,) * 16

SCHUR_COVERS = [(3, True, (2, 2, 2)),     # SL(2,3) -> A4
                (3, False, (2, 2, 4)),    # GL(2,3) -> S4
                (5, True, (2, 2, 4, 6))]  # SL(2,5) -> A5


@pytest.mark.parametrize("q,special,dims", SCHUR_COVERS)
def test_schur_cover_projective_degrees(q, special, dims):
    # the faithful-on-centre degrees of the cover are the projective
    # degrees of the quotient for the section's cocycle
    rng = np.random.default_rng(q + special)
    for N in (2, 4):
        Q, gam = schur_cover_cocycle(q, special, N)
        prof = irrep_profile(TwistedGroupAlgebra(Q, gam))
        assert prof.dimensions == dims
        assert prof.method == "class-algebra"
        shifted = gam + coboundary(random_cochain(Q, 1, N, rng))
        assert irrep_profile(TwistedGroupAlgebra(Q, shifted)).dimensions == dims


def test_profile_cached(C2cubed):
    T = algebra(C2cubed, {(1, 2): 1}, 2)
    assert irrep_profile(T) is irrep_profile(T)


def test_shift_invariance(C2cubed, C3cubed):
    rng = np.random.default_rng(53)
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        base = bilinear_cochain(G, {(1, 2): 1}, n)
        ref = irrep_profile(TwistedGroupAlgebra(G, base))
        for _ in range(4):
            beta = random_cochain(G, 1, n, rng)
            shifted_cocycle = base + coboundary(beta)
            prof = irrep_profile(TwistedGroupAlgebra(G, shifted_cocycle))
            assert prof.dimensions == ref.dimensions


# -- Dixon primes -----------------------------------------------------

def test_dixon_prime_choices():
    assert _dixon_prime(12, 24) == 13
    assert _dixon_prime(60, 120) == 61
    assert _dixon_prime(1, 1) == 3
    assert _dixon_prime(2, 6) == 5
    p = _dixon_prime(4, 81)
    assert p % 4 == 1 and p * p > 4 * 81


def test_dixon_prime_bound_covers_old_extension_bound():
    # every N' * |C(g)| <= 4096 that a central extension of order at most
    # 4096 accepted has N' * exponent <= 4096 and order <= 512 here
    assert all(_dixon_prime(m, 512) < PRIME_LIMIT for m in range(1, 4097))


# -- eigenspaces over F_p ----------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 13])
def test_eigenspaces_refuse_a_jordan_block(p):
    # (J + a)^((p-1)/2) is a Jordan block too whenever J + a is
    # invertible, so no shift splits it and S^3 != S
    J = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(AssertionError, match="not diagonalisable"):
        _eigenspaces(np.eye(2, dtype=np.int64), J, p)


# -- counting ----------------------------------------------------------

def brute_count(dims, m):
    """Multisets of irreps whose dimensions sum to m, counted directly."""
    total = 0
    for size in range(m + 1):
        for combo in itertools.combinations_with_replacement(
                range(len(dims)), size):
            if sum(dims[i] for i in combo) == m:
                total += 1
    return total


def test_count_of_dim_matches_brute(C2cubed, S3):
    cases = [
        irrep_profile(algebra(C2cubed, {(1, 2): 1}, 2)),
        irrep_profile(untwisted(S3)),
        IrrepProfile(dimensions=(1, 1, 2, 3), method="class-algebra"),
    ]
    for prof in cases:
        for m in range(8):
            assert prof.count_of_dim(m) == brute_count(prof.dimensions, m)


def test_nonabelian_twisted_algebra(D4):
    # pull a nondegenerate form back along D4 -> D4 / center
    Q, images = quotient_by_center(D4)
    form = bilinear_cochain_on_klein(Q)
    w = pullback(form, D4, images)
    T = TwistedGroupAlgebra(D4, w)
    prof = irrep_profile(T)
    assert sum(d * d for d in prof.dimensions) == 8
    assert len(prof.dimensions) == len(regular_classes(T))
    assert prof.method == "class-algebra"


def bilinear_cochain_on_klein(Q):
    # Q is abelian of order 4 and exponent 2 but has no recorded cyclic
    # factors, so build the alternating form by hand from a basis
    assert Q.order == 4 and Q.exponent() == 2
    a, b = 1, 2
    coords = {Q.identity: (0, 0), a: (1, 0), b: (0, 1), Q.mul(a, b): (1, 1)}
    dense = np.zeros((4, 4), dtype=np.int64)
    for g in range(4):
        for h in range(4):
            dense[g, h] = coords[g][0] * coords[h][1]
    return Cochain(Q, 2, 2, dense=dense)
