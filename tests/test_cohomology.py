"""Cochains, the bar differential, cocycle/coboundary decisions, cup
products, and the obstruction 2-cocycle gamma."""

import itertools
import json
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zcenter import cohomology
from zcenter.cohomology import (Cochain, CocycleError, coboundary, cochain_from_json,
                                cochain_to_json, cup3, embed_modulus, gamma,
                                is_coboundary, is_cocycle, load_cocycle,
                                _delta_dense, _delta_slab)
from zcenter.group_core import (direct_product, make_cyclic, make_symmetric,
                                centralizer, enumerate_homomorphisms,
                                generating_sequence, parse_group_spec,
                                subgroup, _short_generators)
from zcenter.snf import solve_modular_linear

from conftest import (bilinear_cochain, make_dihedral4, make_quaternion8,
                      pullback, random_cochain, shifted, sign_cocycle,
                      sign_images)


# -- cochain mechanics -------------------------------------------------

def test_constructor_validation(C4):
    with pytest.raises(ValueError, match="degree"):
        Cochain(C4, 4, 2)
    with pytest.raises(ValueError, match="modulus"):
        Cochain(C4, 2, 0)
    with pytest.raises(ValueError, match="arity"):
        Cochain(C4, 2, 3, values={(1, 2, 3): 1})
    with pytest.raises(ValueError, match="out of range"):
        Cochain(C4, 2, 3, values={(1, 9): 1})
    with pytest.raises(ValueError, match="shape"):
        Cochain(C4, 2, 3, dense=np.zeros((4, 4, 4)))


def test_normalization_enforced(C4):
    with pytest.raises(ValueError, match="not normalized"):
        Cochain(C4, 2, 5, values={(0, 1): 2})
    with pytest.raises(ValueError, match="not normalized"):
        Cochain(C4, 3, 5, values={(1, 0, 1): 2})
    # nonzero only off the identity is fine
    f = Cochain(C4, 2, 5, values={(1, 1): 2, (3, 2): 4})
    assert f(1, 1) == 2 and f(3, 2) == 4 and f(1, 2) == 0


def test_values_dense_round_trip(C4):
    f = Cochain(C4, 2, 7, values={(1, 2): 3, (2, 1): 6})
    assert f.values == {(1, 2): 3, (2, 1): 6}
    g = Cochain(C4, 2, 7, dense=f.dense.copy())
    assert f == g
    assert not f.is_zero()
    assert Cochain.zero(C4, 2, 7).is_zero()


def test_arithmetic(C4):
    rng = np.random.default_rng(3)
    f = random_cochain(C4, 2, 6, rng)
    g = random_cochain(C4, 2, 6, rng)
    s = f + g
    assert np.array_equal(s.dense, (f.dense + g.dense) % 6)
    assert (s - g) == f
    with pytest.raises(ValueError):
        f + random_cochain(C4, 3, 6, rng)
    with pytest.raises(ValueError):
        f + random_cochain(C4, 2, 5, rng)


def test_degree_zero_and_call(C4):
    c = Cochain(C4, 0, 5, values={(): 3})
    assert c() == 3
    f = Cochain(C4, 2, 5, values={(1, 1): 2})
    with pytest.raises(ValueError):
        f(1)


def test_size_bounds():
    G130 = make_cyclic(130)
    with pytest.raises(ValueError, match="degree-3"):
        Cochain(G130, 3, 2)
    Cochain(G130, 2, 2)  # fine
    G520 = make_cyclic(520)
    with pytest.raises(ValueError, match="degree-2"):
        Cochain(G520, 2, 2)


def test_restrict(S3):
    rng = np.random.default_rng(5)
    w = random_cochain(S3, 3, 4, rng)
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    H, embed = subgroup(S3, centralizer(S3, [t]))
    r = w.restrict(H, embed)
    assert r.group is H and r.modulus == 4 and r.degree == 3
    for a in range(H.order):
        for b in range(H.order):
            for c in range(H.order):
                assert r(a, b, c) == w(int(embed[a]), int(embed[b]),
                                       int(embed[c]))


# -- the differential --------------------------------------------------

def test_delta_known_values(C4, S3):
    # delta f (g, h) = f(h) - f(gh) + f(g)
    f = Cochain(C4, 1, 8, values={1: 1, 2: 2, 3: 3})
    df = coboundary(f)
    for g in range(4):
        for h in range(4):
            assert df(g, h) == (f(h) - f((g + h) % 4) + f(g)) % 8
    # delta f (g, h, k) = f(h, k) - f(gh, k) + f(g, hk) - f(g, h); S3 is
    # non-abelian, so a face with its product in the wrong order shows
    f2 = random_cochain(S3, 2, 7, np.random.default_rng(17))
    df2 = coboundary(f2)
    T = S3.table
    for g, h, k in itertools.product(range(6), repeat=3):
        assert df2(g, h, k) == (f2(h, k) - f2(T[g, h], k) + f2(g, T[h, k])
                                - f2(g, h)) % 7
    # the classic extension cocycle of Z/8 over Z/4: carry of addition
    carry = Cochain(C4, 2, 8, dense=np.add.outer(range(4), range(4)) // 4)
    assert is_cocycle(carry).is_cocycle


def test_delta_squared_zero_small():
    rng = np.random.default_rng(11)
    groups = [make_cyclic(4), make_symmetric(3),
              direct_product(make_cyclic(2), make_cyclic(2))]
    for G in groups:
        for N in (2, 6):
            for _ in range(10):
                f0 = random_cochain(G, 0, N, rng)
                assert coboundary(coboundary(f0)).is_zero()
                f1 = random_cochain(G, 1, N, rng)
                assert coboundary(coboundary(f1)).is_zero()
                f2 = random_cochain(G, 2, N, rng)
                assert is_cocycle(coboundary(f2)).is_cocycle


def test_coboundary_degree_limit(C4):
    w = Cochain.zero(C4, 3, 2)
    with pytest.raises(ValueError):
        coboundary(w)


# -- is_cocycle --------------------------------------------------------

def test_zero_is_cocycle(C4):
    for k in (1, 2, 3):
        assert is_cocycle(Cochain.zero(C4, k, 3)).is_cocycle


def test_cup_products_are_cocycles(C2cubed, C3cubed, C2xC4):
    assert is_cocycle(cup3(C2cubed, 0, 1, 2, 2)).is_cocycle
    assert is_cocycle(cup3(C3cubed, 0, 1, 2, 3)).is_cocycle
    assert is_cocycle(cup3(C2xC4, 0, 1, 1, 4)).is_cocycle
    assert is_cocycle(cup3(C2xC4, 1, 1, 1, 8)).is_cocycle


def test_bilinear_cochains_are_cocycles(C2xC4, C3cubed):
    rng = np.random.default_rng(17)
    for G, N in ((C2xC4, 4), (C2xC4, 8), (C3cubed, 3)):
        k = len(G.cyclic_factors)
        for _ in range(5):
            coeffs = {(i, j): int(rng.integers(0, N))
                      for i in range(k) for j in range(k)}
            assert is_cocycle(bilinear_cochain(G, coeffs, N)).is_cocycle


def test_constant_off_identity_on_c2_is_a_cocycle(C2):
    # the extension cocycle of Z/4 over Z/2; delta f vanishes identically
    f = Cochain(C2, 2, 2, values={(1, 1): 1})
    v = is_cocycle(f)
    assert v.is_cocycle and v.failure_certificate is None


def _first_failure(f, delta_at):
    """Lexicographically first tuple where delta_at is nonzero mod N."""
    for args in itertools.product(range(f.group.order), repeat=f.degree + 1):
        if delta_at(*args) % f.modulus:
            return args
    return None


def _delta_at(f, args):
    """delta(f)(args) from the face formula, one tuple at a time."""
    T = f.group.table
    k = f.degree
    total = f(*args[1:]) + (-1) ** (k + 1) * f(*args[:k])
    for i in range(k):
        merged = args[:i] + (int(T[args[i], args[i + 1]]),) + args[i + 2:]
        total += (-1) ** (i + 1) * f(*merged)
    return total


def test_non_cocycle_certificates(C4, S3, S4):
    T = S3.table
    f1 = Cochain(C4, 1, 5, values={1: 1})
    v1 = is_cocycle(f1)
    assert not v1.is_cocycle
    assert v1.failure_certificate == _first_failure(
        f1, lambda g, h: f1(h) - f1((g + h) % 4) + f1(g))

    f = Cochain(C4, 2, 5, values={(1, 2): 1})
    v = is_cocycle(f)
    assert not v.is_cocycle
    g, h, k = v.failure_certificate
    lhs = (f(h, k) - f((g + h) % 4, k) + f(g, (h + k) % 4) - f(g, h)) % 5
    assert lhs != 0
    assert v.failure_certificate == _first_failure(
        f, lambda g, h, k: (f(h, k) - f((g + h) % 4, k) + f(g, (h + k) % 4)
                            - f(g, h)))

    f2 = Cochain(S3, 2, 3, values={(1, 2): 1})
    v2 = is_cocycle(f2)
    assert not v2.is_cocycle
    assert v2.failure_certificate == _first_failure(
        f2, lambda g, h, k: (f2(h, k) - f2(T[g, h], k) + f2(g, T[h, k])
                             - f2(g, h)))

    w = Cochain(S3, 3, 3, values={(1, 1, 1): 1})
    v3 = is_cocycle(w)
    assert not v3.is_cocycle
    g, h, k, l = v3.failure_certificate
    val = (w(h, k, l) - w(T[g, h], k, l) + w(g, T[h, k], l)
           - w(g, h, T[k, l]) + w(g, h, k)) % 3
    assert val != 0
    assert v3.failure_certificate == _first_failure(
        w, lambda g, h, k, l: (w(h, k, l) - w(T[g, h], k, l)
                               + w(g, T[h, k], l) - w(g, h, T[k, l])
                               + w(g, h, k)))

    # coboundaries pass; with one or two entries changed they fail, and
    # the certificate is still the brute-force sweep's first failure
    rng = np.random.default_rng(31)
    C4xC2 = direct_product(make_cyclic(4), make_cyclic(2))
    for G in (S3, S4, C4xC2):
        for degree in (1, 2, 3):
            N = int(rng.choice([2, 3, 6]))
            for _ in range(3):
                if degree == 1:
                    base = Cochain.zero(G, 1, N)
                else:
                    base = coboundary(random_cochain(G, degree - 1, N, rng))
                assert is_cocycle(base).is_cocycle
                dense = base.dense.copy()
                for _ in range(int(rng.integers(1, 3))):
                    idx = tuple(rng.integers(1, G.order, degree))
                    dense[idx] += int(rng.integers(1, N))
                f = Cochain(G, degree, N, dense=dense)
                expected = _first_failure(f, lambda *a: _delta_at(f, a))
                v = is_cocycle(f)
                assert v.is_cocycle == (expected is None)
                assert v.failure_certificate == expected

    # first failures past g = 1: pulled back along C4xC2 -> C4, a
    # non-cocycle's slab at (0, 1) = 1 vanishes and it first fails at 2;
    # x2*x3 on C2^4 first fails at 4, and at the later generator 8 too
    C4xC2_to_C4 = np.arange(8) // 2
    C2_4 = parse_group_spec("C2xC2xC2xC2")
    bits = np.arange(16)
    cases = [(pullback(Cochain(C4, d, 5, values={(1,) * d: 1}), C4xC2,
                       C4xC2_to_C4), 2) for d in (1, 2, 3)]
    cases.append((Cochain(C2_4, 1, 2, dense=(bits >> 2) & (bits >> 3) & 1),
                  4))
    for f, first in cases:
        cert = is_cocycle(f).failure_certificate
        assert cert[0] == first
        assert cert == _first_failure(f, lambda *a: _delta_at(f, a))


def _delta_reference(f):
    """delta(f) mod N on every tuple at once, from the face formula."""
    T, F, k = f.group.table, f.dense, f.degree
    a = list(np.indices((f.group.order,) * (k + 1)))
    total = F[tuple(a[1:])] + (-1) ** (k + 1) * F[tuple(a[:k])]
    for i in range(k):
        total += (-1) ** (i + 1) * F[tuple(a[:i] + [T[a[i], a[i + 1]]]
                                           + a[i + 2:])]
    return total % f.modulus


def test_certificates_past_the_short_generators(S4):
    """A coboundary on S4 plus a cochain p(x, ..) that depends only on
    the right coset Hx and vanishes for x in H: delta's slabs at H
    vanish, so the short set {1, c} of S4 fails only at c, and the first
    failure is at the least element outside H, a greedy generator (2 for
    H = {e, 1}, 6 for H = {0..5})."""
    short, gens = _short_generators(S4), generating_sequence(S4)
    assert short[0] == gens[0] == 1 and short[1] not in gens
    T = S4.table
    rng = np.random.default_rng(12)
    for H, first in (([0, 1], 2), (list(range(6)), 6)):
        coset = T[H].min(axis=0)  # least element of Hx; 0 iff x in H
        for degree in (2, 3):
            N = 3
            base = coboundary(random_cochain(S4, degree - 1, N, rng))
            q = random_cochain(S4, degree, N, rng).dense
            q[0] = 0
            f = Cochain(S4, degree, N, dense=base.dense + q[coset])
            expected = tuple(int(x)
                             for x in np.argwhere(_delta_reference(f))[0])
            assert expected[0] == first
            assert is_cocycle(f).failure_certificate == expected
            with pytest.raises(CocycleError, match=(
                    "input fails the cocycle identity at "
                    + re.escape(str(expected)))):
                is_coboundary(f)


def test_cocycle_verdict_cached(C4):
    f = Cochain(C4, 2, 5, values={(1, 2): 1})
    assert is_cocycle(f) is is_cocycle(f)


def test_degree_zero_rejected(C4):
    with pytest.raises(ValueError):
        is_cocycle(Cochain.zero(C4, 0, 5))


# -- is_coboundary -----------------------------------------------------

def test_coboundaries_recognized_with_exact_witness():
    rng = np.random.default_rng(23)
    G = make_symmetric(3)
    for degree in (2, 3):
        for N in (2, 6):
            for _ in range(4):
                beta = random_cochain(G, degree - 1, N, rng)
                f = coboundary(beta)
                v = is_coboundary(f)
                assert v.is_cocycle and v.is_coboundary
                assert coboundary(v.witness) == f


def test_zero_shortcut(C4):
    v = is_coboundary(Cochain.zero(C4, 2, 6))
    assert v.is_coboundary and v.witness.is_zero()


def test_rejects_non_cocycle(C4):
    f = Cochain(C4, 2, 5, values={(1, 2): 1})
    with pytest.raises(CocycleError):
        is_coboundary(f)
    with pytest.raises(ValueError):
        is_coboundary(Cochain.zero(C4, 1, 5))


def test_cup_gamma_not_coboundary(C2cubed, C3cubed):
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        w = cup3(G, 0, 1, 2, n)
        z = G.order // n  # e1 = (1, 0, 0) in row-major indexing
        gam = gamma(w, z)
        assert not is_coboundary(gam).is_coboundary


def test_cup_omega_itself_not_coboundary(C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    assert not is_coboundary(w).is_coboundary


def test_extension_cocycle_modulus_matters(C2):
    """Nontrivial mod 2, but a coboundary once mu_2 sits inside mu_4."""
    f = Cochain(C2, 2, 2, values={(1, 1): 1})
    assert not is_coboundary(f).is_coboundary
    lifted = embed_modulus(f, 4)
    v = is_coboundary(lifted)
    assert v.is_coboundary
    assert coboundary(v.witness) == lifted
    # the witness is forced to be a primitive 4th root at the generator
    assert v.witness(1) % 2 == 1


def test_modulus_bound(C2, C2cubed):
    # residues mod N >= 2^31 could overflow int64, so no cochain takes one
    f = Cochain(C2, 2, 2, values={(1, 1): 1})
    for build in (lambda: Cochain(C2, 2, 2 ** 31),
                  lambda: embed_modulus(f, 2 ** 64),
                  lambda: cup3(C2cubed, 0, 1, 2, 2 ** 70),
                  lambda: cochain_from_json(C2, {
                      "modulus": 2 ** 64, "degree": 2,
                      "entries": [[1, 1, 2 ** 70]]})):
        with pytest.raises(ValueError, match="2147483648"):
            build()
    assert Cochain(C2, 2, 2 ** 31 - 1).modulus == 2 ** 31 - 1


def _full_system(f):
    """The (n-1)^k-row system delta(phi) = f over every tuple of
    non-identity elements, rows in row-major tuple order."""
    G, k = f.group, f.degree
    others = [g for g in range(G.order) if g != G.identity]
    inner = np.ix_(*[others] * (k - 1))
    nv = len(others) ** (k - 1)
    basis = np.zeros((G.order,) * (k - 1) + (nv,), dtype=np.int8)
    basis[inner] = np.eye(nv, dtype=np.int8).reshape(
        (len(others),) * (k - 1) + (nv,))
    A = np.concatenate([_delta_slab(basis, G.table, g, k - 1)[inner]
                        .reshape(-1, nv) for g in others])
    return A, f.dense[np.ix_(*[others] * k)].ravel(), others


def _carry_cocycle_c4xc4():
    """x_0 [y_1 + z_1 >= 4] mod 4 on C4xC4, a class of H^3 that is no
    coboundary."""
    G = parse_group_spec("C4xC4")
    x0, x1 = np.divmod(np.arange(16), 4)
    carry = (x1[:, None] + x1[None, :]) // 4
    return Cochain(G, 3, 4, dense=x0[:, None, None] * carry[None])


def _decision_inputs():
    """Seeded coboundaries in degrees 2 and 3, every valid cup3 triple,
    a non-symmetric bicharacter, pullbacks along G -> C2 and A4 -> C3,
    and the carry cocycle on C4xC4; on D4 and Q8, non-abelian 2-groups
    where a left/right slip in the generator tree shows, seeded
    coboundaries and the pullbacks of x^2 and x^3 along a map onto C2."""
    rng = np.random.default_rng(41)
    C2, C3 = make_cyclic(2), make_cyclic(3)
    for spec in ("C2", "C4", "C6", "C2xC2", "C4xC2", "C3xC3", "C2xC2xC2",
                 "C2xC6", "S3", "A4", "S4"):
        G = parse_group_spec(spec)
        N = G.exponent()
        for degree in (2, 3):
            # one degree-3 system on S4 (12,167 full rows) takes 1.8 s
            for M in (N,) if G.order > 12 and degree == 3 else (N, 2 * N):
                yield coboundary(random_cochain(G, degree - 1, M, rng))
        if G.cyclic_factors is not None:
            r = len(G.cyclic_factors)
            for t in itertools.product(range(r), repeat=3):
                yield cup3(G, *t, N)
            yield bilinear_cochain(G, {(0, r - 1): 1}, N)
    for spec in ("S3", "S4"):
        G = parse_group_spec(spec)
        sign = sign_images(G)
        yield pullback(bilinear_cochain(C2, {(0, 0): 1}, 2), G, sign)
        yield sign_cocycle(G, 2)
        yield sign_cocycle(G, 2) + coboundary(random_cochain(G, 2, 2, rng))
    A4 = parse_group_spec("A4")
    onto = next(a.images for a in enumerate_homomorphisms(A4, C3)
                if len(set(a.images.tolist())) == 3)
    yield pullback(cup3(C3, 0, 0, 0, 3), A4, onto)
    yield _carry_cocycle_c4xc4()
    for G in (make_dihedral4(), make_quaternion8()):
        for degree in (2, 3):
            for M in (4, 8):
                yield coboundary(random_cochain(G, degree - 1, M, rng))
        onto = next(a.images for a in enumerate_homomorphisms(G, C2)
                    if len(set(a.images.tolist())) == 2)
        # x^2 is no coboundary on either group; x^3 is one on Q8 only
        yield pullback(bilinear_cochain(C2, {(0, 0): 1}, 2), G, onto)
        yield pullback(cup3(C2, 0, 0, 0, 2), G, onto)


def test_generator_rows_decide_like_the_full_system():
    verdicts = set()
    for f in _decision_inputs():
        A, b, _ = _full_system(f)
        full = solve_modular_linear(A, b, f.modulus) is not None
        v = is_coboundary(f)
        assert v.is_coboundary == full, (f.group.label, f.degree, f.modulus)
        if full:
            assert coboundary(v.witness) == f
        verdicts.add((f.degree, full))
    assert verdicts == {(2, False), (2, True), (3, False), (3, True)}


@pytest.mark.parametrize("spec", ["C2xC2xC2xC2xC2", "C4xC4xC4"])
def test_coboundary_witness_near_the_modulus_bound(spec):
    """At N = 2^31 - 2 a witness summed from unreduced products
    F[x, .., j] x_j overflows int64 and fails delta(phi) = f."""
    G = parse_group_spec(spec)
    f = coboundary(random_cochain(G, 2, 2 ** 31 - 2,
                                  np.random.default_rng(43)))
    v = is_coboundary(f)
    assert v.is_coboundary
    assert coboundary(v.witness) == f


@pytest.mark.parametrize("spec", ["C2xC2xC2", "C4xC2", "S3", "A4", "C6"])
def test_zero_rows_are_the_involution_diagonals(spec):
    G = parse_group_spec(spec)
    # mod 2 a row vanishes whenever all its coefficients are even
    A, _, others = _full_system(Cochain.zero(G, 3, 2))
    zero = {tuple(others[i] for i in np.unravel_index(r, (G.order - 1,) * 3))
            for r in np.flatnonzero(~(A % 2).any(axis=1))}
    T, e = G.table, G.identity
    assert zero == {(d, d, d) for d in range(G.order)
                    if d != e and T[d, d] == e}
    assert zero


def test_involution_diagonal_refuses_before_the_solver():
    G = parse_group_spec("C2xC2xC2xC2xC2")
    with patch.object(cohomology, "solve_modular_linear",
                      side_effect=AssertionError("solver called")):
        v = is_coboundary(cup3(G, 0, 1, 2, 2))
    assert v.is_cocycle and v.is_coboundary is False


def test_vanishing_diagonals_still_reach_the_solver():
    G = parse_group_spec("C4xC2xC2xC2")
    f = cup3(G, 0, 1, 2, 4)
    d = np.flatnonzero(np.diagonal(G.table) == G.identity)
    assert not f.dense[d, d, d].any()
    with patch.object(cohomology, "solve_modular_linear",
                      wraps=solve_modular_linear) as solve:
        v = is_coboundary(f)
    assert solve.call_count == 1
    assert v.is_cocycle and v.is_coboundary is False


def test_alternation_is_shift_invariant(S3, C2xC4):
    """f(g,h) - f(h,g) on commuting pairs survives any coboundary shift.

    (On non-commuting pairs it picks up beta(hg) - beta(gh), so the
    assertion is restricted to gh = hg; on abelian groups that is the
    whole square.)"""
    rng = np.random.default_rng(29)
    for G in (S3, C2xC4):
        commuting = G.table == G.table.T
        for _ in range(5):
            f = random_cochain(G, 2, 6, rng)
            beta = random_cochain(G, 1, 6, rng)
            g = f + coboundary(beta)
            alt_f = (f.dense - f.dense.T) % 6
            alt_g = (g.dense - g.dense.T) % 6
            assert np.array_equal(alt_f[commuting], alt_g[commuting])


# -- cup3 --------------------------------------------------------------

def test_cup3_needs_product_group(S3):
    with pytest.raises(ValueError, match="cyclic factors"):
        cup3(S3, 0, 0, 0, 2)


def test_cup3_index_and_modulus_errors(C2xC4):
    with pytest.raises(ValueError, match="out of range"):
        cup3(C2xC4, 0, 2, 0, 4)
    with pytest.raises(ValueError, match="divisible"):
        cup3(C2xC4, 0, 1, 1, 2)  # factor order 4 does not divide 2


def test_cup3_values(C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    # row-major: g = 4*g1 + 2*g2 + g3
    for g in range(8):
        for h in range(8):
            for k in range(8):
                assert w(g, h, k) == ((g >> 2) & 1) * ((h >> 1) & 1) * (k & 1)


def test_cup3_gcd_scaling(C2xC4):
    # factors (2, 4); mixing them cups in Z/2 and scales into Z/4
    w = cup3(C2xC4, 0, 1, 1, 4)
    for g in range(8):
        for h in range(8):
            for k in range(8):
                x, y, z = (g >> 2) & 1, h & 3, k & 3
                assert w(g, h, k) == 2 * ((x * y * z) % 2)


def test_cup3_repeated_index_cocycle(C3cubed):
    w = cup3(C3cubed, 1, 1, 1, 3)
    assert is_cocycle(w).is_cocycle
    assert not w.is_zero()


# -- gamma -------------------------------------------------------------

def _gamma_direct(omega, z):
    G = omega.group
    n = G.order
    out = np.zeros((n, n), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            out[g, h] = (omega(g, h, z) - omega(g, z, h)
                         + omega(z, g, h)) % omega.modulus
    return out


def test_gamma_matches_definition(C2cubed, D4):
    rng = np.random.default_rng(31)
    w = shifted(cup3(C2cubed, 0, 1, 2, 2), rng)
    for z in range(8):
        gam = gamma(w, z)
        assert np.array_equal(gam.dense, _gamma_direct(w, z))
        assert gam.degree == 2 and gam.modulus == 2
    wd = shifted(sign_cocycle_on_d4(D4), rng)
    for z in (0, 2):  # center of D4: e and the rotation by pi
        gam = gamma(wd, z)
        assert np.array_equal(gam.dense, _gamma_direct(wd, z))


def sign_cocycle_on_d4(D4):
    """Pull the nontrivial C2 cocycle back along D4 -> D4/<r> = C2."""
    images = np.array([0, 0, 0, 0, 1, 1, 1, 1])  # b-coordinate
    return pullback(cup3(make_cyclic(2), 0, 0, 0, 2), D4, images)


def test_gamma_requires_central_element(S3, D4):
    w = Cochain.zero(S3, 3, 2)
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    with pytest.raises(ValueError, match="central"):
        gamma(w, t)
    wd = Cochain.zero(D4, 3, 2)
    with pytest.raises(ValueError, match="central"):
        gamma(wd, 1)  # the rotation r is not central


def test_gamma_requires_cocycle(C4):
    f = Cochain(C4, 3, 5, values={(1, 1, 1): 1})
    with pytest.raises(CocycleError):
        gamma(f, 0)
    with pytest.raises(ValueError):
        gamma(Cochain.zero(C4, 2, 5), 0)


def test_gamma_is_always_a_cocycle(C2cubed, C3cubed):
    rng = np.random.default_rng(37)
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        w = shifted(cup3(G, 0, 1, 2, n), rng)
        for z in rng.integers(0, G.order, 4):
            assert is_cocycle(gamma(w, int(z))).is_cocycle


def test_gamma_closed_form_at_e1(C2cubed, C3cubed):
    """At z = e1 the cup-product obstruction is the single term g2*h3."""
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        w = cup3(G, 0, 1, 2, n)
        z = n * n  # e1 = (1, 0, 0)
        gam = gamma(w, z)
        for g in range(G.order):
            for h in range(G.order):
                g2 = (g // n) % n
                h3 = h % n
                assert gam(g, h) == (g2 * h3) % n


def test_gamma_two_term_form_at_e1e3(C2cubed, C3cubed):
    """The two-term expression g2*h3 + g1*h2 appears at z = (1, 0, 1)."""
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        w = cup3(G, 0, 1, 2, n)
        z = n * n + 1  # (1, 0, 1)
        gam = gamma(w, z)
        for g in range(G.order):
            for h in range(G.order):
                g1, g2 = g // (n * n), (g // n) % n
                h2, h3 = (h // n) % n, h % n
                assert gam(g, h) == (g2 * h3 + g1 * h2) % n


def test_gamma_of_shifted_omega_is_cohomologous(C2cubed):
    rng = np.random.default_rng(41)
    w = cup3(C2cubed, 0, 1, 2, 2)
    for _ in range(5):
        w2 = shifted(w, rng)
        for z in (0, 4):
            a = gamma(w, z)
            b = gamma(w2, z)
            diff = a - b
            assert is_coboundary(diff).is_coboundary


# -- embed_modulus -----------------------------------------------------

def test_embed_modulus_validation(C4):
    f = Cochain.zero(C4, 2, 6)
    with pytest.raises(ValueError, match="multiple"):
        embed_modulus(f, 9)


def test_embed_modulus_preserves_structure(C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    w4 = embed_modulus(w, 4)
    assert w4.modulus == 4
    assert np.array_equal(w4.dense, 2 * w.dense)
    assert is_cocycle(w4).is_cocycle


def test_coboundary_stays_coboundary_upward(S3):
    rng = np.random.default_rng(43)
    beta = random_cochain(S3, 1, 3, rng)
    f = coboundary(beta)
    for M in (6, 9, 12):
        assert is_coboundary(embed_modulus(f, M)).is_coboundary


# -- serialization -----------------------------------------------------

def test_json_round_trip(C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    data = cochain_to_json(w)
    assert data["degree"] == 3 and data["modulus"] == 2
    w2, corr = cochain_from_json(C2cubed, data)
    assert corr is None
    assert w2 == w
    assert cochain_to_json(w2) == data


def test_json_normalizes_degree_two(C4):
    # constant 1 everywhere, identity slots included: a non-normalized cocycle
    entries = [[g, h, 1] for g in range(4) for h in range(4)]
    f, corr = cochain_from_json(
        C4, {"modulus": 5, "degree": 2, "entries": entries})
    assert corr is not None
    raw = np.ones((4, 4), dtype=np.int64)
    assert np.array_equal(
        f.dense, (raw - _delta_dense(C4.table, 1, corr, 5)) % 5)
    assert f.dense[0].sum() == 0 and f.dense[:, 0].sum() == 0
    assert is_cocycle(f).is_cocycle


def test_json_normalizes_degree_three(C2):
    # inflate: shift the doubled extension cocycle off normalization
    base = Cochain(C2, 3, 4, values={(1, 1, 1): 2})
    assert is_cocycle(base).is_cocycle
    phi = np.array([[1, 3], [2, 1]], dtype=np.int64)
    dense = (base.dense + _delta_dense(C2.table, 2, phi, 4)) % 4
    entries = [[g, h, k, int(dense[g, h, k])]
               for g in range(2) for h in range(2) for k in range(2)]
    f, corr = cochain_from_json(
        C2, {"modulus": 4, "degree": 3, "entries": entries})
    assert corr is not None
    assert np.array_equal(
        f.dense, (dense - _delta_dense(C2.table, 2, corr, 4)) % 4)
    # normalization keeps the class: difference from base is a coboundary
    assert is_coboundary(f - base).is_coboundary


def test_json_degree_one_unnormalizable(C4):
    with pytest.raises(ValueError, match="degree-1"):
        cochain_from_json(
            C4, {"modulus": 3, "degree": 1, "entries": [[0, 1]]})


def test_json_rejects_garbage(C4):
    with pytest.raises(ValueError, match="missing"):
        cochain_from_json(C4, {"modulus": 2, "degree": 2})
    with pytest.raises(ValueError, match="modulus"):
        cochain_from_json(C4, {"modulus": 0, "degree": 2, "entries": []})
    with pytest.raises(ValueError, match="degree"):
        cochain_from_json(C4, {"modulus": 2, "degree": 7, "entries": []})
    with pytest.raises(ValueError, match="arity"):
        cochain_from_json(
            C4, {"modulus": 2, "degree": 2, "entries": [[1, 1, 1, 1]]})
    with pytest.raises(ValueError, match="out of range"):
        cochain_from_json(
            C4, {"modulus": 2, "degree": 2, "entries": [[1, 7, 1]]})
    with pytest.raises(ValueError):
        cochain_from_json(C4, [1, 2, 3])


def test_json_unnormalizable_non_cocycle(C4):
    # identity-slot junk that no coboundary can remove
    entries = [[0, 1, 1]]
    with pytest.raises(CocycleError):
        cochain_from_json(C4, {"modulus": 3, "degree": 2, "entries": entries})


def test_load_cocycle_file(tmp_path, C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cochain_to_json(w)))
    w2, corr = load_cocycle(C2cubed, str(path))
    assert w2 == w and corr is None


def test_readers_adopt_their_dense_array(tmp_path, C4, C2cubed):
    """Both readers hand their reduced array to `Cochain._owning`, which
    keeps it without a copy and still checks bounds and normalization."""
    w = cup3(C2cubed, 0, 1, 2, 2)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cochain_to_json(w)))
    with patch.object(Cochain, "__init__", side_effect=AssertionError):
        assert load_cocycle(C2cubed, str(path))[0].dense.tolist() == \
            w.dense.tolist()
        assert cochain_from_json(C2cubed, cochain_to_json(w))[0].dense \
            .tolist() == w.dense.tolist()
    arr = np.zeros((4, 4), dtype=np.int64)
    arr[1, 2] = 3
    f = Cochain._owning(C4, 2, 5, arr)
    assert f.dense is arr and f(1, 2) == 3 and f.values == {(1, 2): 3}
    arr[0, 1] = 1
    with pytest.raises(ValueError, match="not normalized"):
        Cochain._owning(C4, 2, 5, arr)
    with pytest.raises(ValueError, match="degree-3 bound 128"):
        Cochain._owning(make_cyclic(129), 3, 2, np.zeros(1, dtype=np.int64))


def test_json_round_trip_every_degree(C4):
    # entries come out in sorted index order, exactly as a sorted dict dump
    rng = np.random.default_rng(11)
    for k in range(4):
        f = random_cochain(C4, k, 9, rng)
        expected = sorted([list(t) + [v] for t, v in f.values.items()])
        assert cochain_to_json(f)["entries"] == expected
        assert cochain_from_json(C4, cochain_to_json(f))[0] == f
    assert cochain_to_json(Cochain.zero(C4, 0, 9))["entries"] == []


# -- the entry loader against the per-entry loop it replaced -----------

def _reference_fill(n, k, N, entries):
    """The per-entry loop the chunked loader replaced, kept as its oracle."""
    dense = np.zeros((n,) * k, dtype=np.int64)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != k + 1:
            raise ValueError(f"entry {entry!r} has wrong arity for degree {k}")
        *idx, v = entry
        if any(type(g) is not int or not 0 <= g < n for g in idx):
            raise ValueError(f"element index out of range in entry {entry!r}")
        if type(v) is not int:
            raise ValueError(f"value in entry {entry!r} is not an integer")
        dense[tuple(idx)] = v % N
    return dense


def _assert_loads_like_reference(G, k, N, entries):
    """Same dense array as the reference loop, or the same message.

    Indices avoid the identity (element 0 of a cyclic group), so no
    normalization applies and the cochain's array is the filled one.
    """
    data = {"modulus": N, "degree": k, "entries": entries}
    try:
        want = _reference_fill(G.order, k, N, entries)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            cochain_from_json(G, data)
        assert str(got.value) == str(e)
        return
    f, correction = cochain_from_json(G, data)
    assert correction is None
    assert f.dense.shape == want.shape
    assert np.array_equal(f.dense, want)


_WIDE_VALUES = [-2 ** 80, -2 ** 63, -2 ** 63 + 1, -1, 0, 6, 7, 13, 2 ** 31,
                2 ** 63 - 1, 2 ** 63, 2 ** 70]


@pytest.fixture(params=[3, None], ids=["chunk3", "chunk_default"])
def chunk(request, monkeypatch):
    """Run a test at a three-entry chunk, so that repeats and bad entries
    fall across chunk boundaries, and at the loader's own chunk size."""
    if request.param is not None:
        monkeypatch.setattr(cohomology, "_ENTRY_CHUNK", request.param)
    return cohomology._ENTRY_CHUNK


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_loader_matches_reference_on_random_entries(chunk, k):
    G = make_cyclic(5)
    rng = np.random.default_rng(100 + k)
    for _ in range(20):
        count = int(rng.integers(0, 40))
        # four non-identity elements: repeated tuples are frequent
        idx = rng.integers(1, 5, size=(count, k)).tolist()
        vals = [int(v) for v in rng.integers(-50, 50, size=count)]
        for i in rng.integers(0, max(count, 1), size=count // 4):
            vals[i] = _WIDE_VALUES[int(rng.integers(len(_WIDE_VALUES)))]
        entries = [row + [v] for row, v in zip(idx, vals)]
        _assert_loads_like_reference(G, k, 7, entries)


def test_loader_keeps_the_last_value_of_a_repeat(chunk):
    G = make_cyclic(5)
    # the repeat straddles the boundary between the first two chunks
    filler = [[1, 2, 1]] * (chunk - 1)
    entries = filler + [[3, 4, 5], [3, 4, 6]] + filler + [[3, 4, -2 ** 70]]
    _assert_loads_like_reference(G, 2, 7, entries)
    f, _ = cochain_from_json(G, {"modulus": 7, "degree": 2,
                                 "entries": entries[:chunk + 1]})
    assert f(3, 4) == 6
    _assert_loads_like_reference(G, 0, 7, [[5], [2 ** 70]] * chunk + [[-1]])


@pytest.mark.parametrize("bad", [
    [True, 1, 1], [1, 1, True], [1, 1.0, 1], [1, 1, 1.5], [1, 1, None],
    [None, 1, 1], [1, [1], 1], [1, 1, [1]], [1, 1], [1, 1, 1, 1], 5,
    "1,1,1", [-1, 1, 1], [1, 5, 1], [2 ** 70, 1, 1], [1, -2 ** 70, 1],
])
def test_loader_names_the_first_bad_entry(chunk, bad):
    G = make_cyclic(5)
    good = [[1, 2, 3], [2, 3, -4]]
    later_bad = [[1, 1, False], [1, 9, 1], [1]]
    # alone, after chunks that pass the array checks, and followed by
    # other bad entries
    for entries in ([bad], good * chunk + [bad] + later_bad,
                    good * (chunk // 2) + [[4, 4, 4]] + [bad] + later_bad):
        _assert_loads_like_reference(G, 2, 7, entries)


# -- the text reader against json.loads + cochain_from_json ------------

def _load_by_json(G, path):
    """The loader the array reader must agree with: json.load of the
    text, then `cochain_from_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return cochain_from_json(G, json.load(fh))


def _outcome(load, G, path):
    """What a loader gives: the cochain and correction, or the
    exception's type and message."""
    try:
        f, correction = load(G, path)
    except Exception as e:  # every error is compared, not handled
        return type(e), str(e)
    return (f.degree, f.modulus, f.dense.tolist(),
            None if correction is None else correction.tolist())


# values json.loads reads but the array reader leaves to it, or rejects
_ODD_VALUES = [True, False, 1.0, 1e3, None, "1", [1], 10 ** 18 - 1,
               -(10 ** 18 - 1), 10 ** 18, -10 ** 18, 10 ** 19, 2 ** 63,
               -2 ** 63 - 1]
# text edits: each is (old, new), applied once, where old occurs
_TEXT_EDITS = [
    ("[1", "[-0"), ("[2", "[02"), (" 3", " 1e3"), ("[1", "[1 2"),
    ("]]", "],]"), ("]", ",]"), ("[", "[ \r\n\t"), (", ", " ,\n  "),
    ("-", "- "), ("-", "--"), (", ", ",\x0c"), ("[3", "[00"),
    ("[1", "[+1"), ("[2", "[2.0"), ('"entries"', '"entr\\u0069es"'),
    ('"entries"', '"entries" '), ("]", "]]"), ("[[", "[[["),
    ('"modulus"', '"entries": [[1, 2]], "modulus"'),
    ('"modulus"', '"note": "entries [[", "modulus"'),
    ('"modulus"', '"note": "\\"entries\\": [[1]]", "modulus"'),
    ('"modulus"', '"meta": {"entries": [[1, 1, 1]]}, "modulus"'),
    ('"modulus"', '"entries": 5, "modulus"'),
]


@st.composite
def _cocycle_files(draw):
    """Bytes of a cocycle file on C4 in any layout, half of them of
    well-formed entries, the others with any arity and value, sometimes
    edited into other JSON or out of JSON."""
    messy = draw(st.booleans())
    k = draw(st.integers(0, 3))
    index = st.sampled_from([1, 1, 2, 2, 3, 3, 0, 4, -1])
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        arity = k + 1
        if messy and not draw(st.integers(0, 9)):
            arity = draw(st.integers(0, 5))
        entry = [draw(index) for _ in range(arity - 1)]
        entry += [draw(st.integers(-40, 40))] if arity else []
        if messy and entry and not draw(st.integers(0, 7)):
            at = draw(st.integers(0, len(entry) - 1))
            entry[at] = draw(st.sampled_from(_ODD_VALUES))
        entries.append(entry)
    fields = {"modulus": 5, "degree": k, "entries": entries}
    if messy:
        fields["modulus"] = draw(st.sampled_from([5, 6, 0, True, 2 ** 40]))
        fields["degree"] = draw(st.sampled_from([k, k, k, 4, None]))
    if draw(st.booleans()):
        fields["note"] = draw(st.sampled_from(["", "ω", "entries: [[1]]"]))
    data = {key: fields[key] for key in draw(st.permutations(list(fields)))}
    if messy and not draw(st.integers(0, 9)):
        del data[draw(st.sampled_from(sorted(data)))]
    layout = draw(st.sampled_from([{}, {"separators": (",", ":")},
                                   {"indent": 2}, {"indent": "\t"}]))
    text = json.dumps(data, ensure_ascii=draw(st.booleans()), **layout)
    if not messy:
        return text.encode("utf-8")
    for old, new in draw(st.lists(st.sampled_from(_TEXT_EDITS), max_size=2)):
        text = text.replace(old, new, 1)
    if not draw(st.integers(0, 9)):
        text = text[:draw(st.integers(0, len(text)))]
    if not draw(st.integers(0, 19)):
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if not draw(st.integers(0, 19)):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


@settings(max_examples=400, deadline=None)
@given(raw=_cocycle_files(), block=st.sampled_from([None, 16, 40]))
def test_load_cocycle_agrees_with_json(tmp_path_factory, C4, raw, block):
    path = tmp_path_factory.getbasetemp() / "cocycle.json"
    path.write_bytes(raw)
    with patch.object(cohomology, "_BLOCK_CHARS",
                      block or cohomology._BLOCK_CHARS):
        got = _outcome(load_cocycle, C4, path)
    assert got == _outcome(_load_by_json, C4, path)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("layout", [{}, {"separators": (",", ":")},
                                    {"indent": 2}])
def test_canonical_layouts_take_the_array_reader(tmp_path, C4, block,
                                                 layout):
    # a dump of cochain_to_json must not need the JSON entry checks
    rng = np.random.default_rng(5)
    path = tmp_path / "f.json"
    for k in range(4):
        f = random_cochain(C4, k, 9, rng)
        path.write_text(json.dumps(cochain_to_json(f), **layout))
        with patch.object(cohomology, "_json_rows",
                          side_effect=AssertionError("JSON entry path")), \
                patch.object(cohomology, "_BLOCK_CHARS",
                             block or cohomology._BLOCK_CHARS):
            assert load_cocycle(C4, str(path)) == (f, None)


@pytest.mark.parametrize("entries, reads", [
    ("[]", True), ("[ \n ]", True), ("[[1,2,3]]", True),
    ("[[-0, 1, -2]]", True), ("[[999999999999999999,1,1]]", True),
    ("[[-999999999999999999,1,1]]", True), ("[[1,2,3],[1,2,3]]", True),
    ("[\n  [\n    1,\n    2\n  ]\n]", True), ("[[5,9,-1]]", True),
    ("[[1000000000000000000,1,1]]", False), ("[[01,1,1]]", False),
    ("[[1 2,1,1]]", False), ("[[1,2,3],]", False), ("[[1,2,3,]]", False),
    ("[[1,2],[1,2,3]]", False), ("[[]]", False), ("[[1,[2],3]]", False),
    ("[[1,true,3]]", False), ("[[1.0,1,1]]", False), ("[[1e3,1,1]]", False),
    ("[[-,1,1]]", False), ("[[- 1,1,1]]", False), ("[[1-1,1,1]]", False),
    ("[[+1,1,1]]", False),
    ("[[1,1,1]", False), ("[[1,1,1]],", False),
    # the array's end: a later field holding ]], and space before the ]
    ('[ ], "x": [[1]]', True), ('[[1,2,3]], "x": [[1]]', True),
    ("[[1,2,3]\n\n]", True),
])
def test_array_reader_subset(entries, reads):
    text = '{"modulus": 7, "degree": 2, "entries": %s}' % entries
    read = cohomology._read_entries(text)
    assert (read is not None) == reads
    if reads:
        data, blocks = read
        expected = json.loads(text)
        rows = np.concatenate(blocks) if blocks else np.empty((0, 3))
        assert rows.tolist() == expected["entries"]
        expected["entries"] = []
        assert data == expected
