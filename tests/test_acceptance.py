"""Acceptance gate.

One test per advertised guarantee, each at its stated tolerance (always
exact equality) and time budget.  Run with -v to get one pass/fail line
per criterion.  These restate guarantees that the per-module suites
cover in more depth; they are deliberately self-contained.
"""

import itertools
import math
import time

import numpy as np

from zcenter.bands import centralizer_of_hom, conjugacy_types
from zcenter.cohomology import Cochain, coboundary, cup3, gamma, is_coboundary
from zcenter.group_core import (GroupHom, center, conjugacy_classes,
                                enumerate_homomorphisms, make_cyclic,
                                make_symmetric, parse_group_spec)
from zcenter.pointed_center import (CentralObjectSpec, PointedCategory,
                                    kernel_of_characteristic, lift_count)
from zcenter.twisted_rep import (TwistedGroupAlgebra, _abelian_profile,
                                 _class_algebra_profile)

from conftest import pullback, random_cochain, shifted
from oracles import brute_force_hom_images, oracle_lift_count


def _cube(n):
    """(Z/n)^3 with its standard cup cocycle mod n and z = first generator."""
    G = parse_group_spec(f"C{n}xC{n}xC{n}")
    omega = cup3(G, 0, 1, 2, n)
    z = n * n  # (1, 0, 0) in the big-endian element index
    return G, omega, z


def test_criterion_01_gamma_closed_form_on_cubes():
    """gamma_{omega,e1} for omega = cup(0,1,2) on (Z/n)^3 equals
    (N/n)*g2*h3 on all |G|^2 pairs, n = 2 and 3; < 5 s.

    Only the omega(z,g,h) slot survives at z = e1, and it reads g2*h3.
    The quoted two-term form (N/n)(g2*h3 + g1*h2) is not gamma at e1
    (it occurs at z = e1*e3), and it differs from gamma at e1 by
    (N/n)*g1*h2, which is not a coboundary.
    """
    t0 = time.monotonic()
    computed = []
    for n in (2, 3):
        G, omega, z = _cube(n)
        gam = gamma(omega, z)
        scale = omega.modulus // n
        g = np.arange(G.order)
        g1, g2, g3 = g // (n * n), (g // n) % n, g % n
        expected = scale * np.multiply.outer(g2, g3) % omega.modulus
        quoted = scale * (np.multiply.outer(g2, g3)
                          + np.multiply.outer(g1, g2)) % omega.modulus
        extra = Cochain(G, 2, omega.modulus, dense=quoted - expected)
        computed.append((n, gam.dense, expected, quoted,
                         is_coboundary(extra).is_coboundary))
    assert time.monotonic() - t0 < 5.0
    for n, got, expected, quoted, extra_is_coboundary in computed:
        bad = np.argwhere(got != expected)
        assert bad.size == 0, (
            f"n={n}: closed form fails on {len(bad)} of {got.size} pairs, "
            f"first at (g,h)={tuple(int(x) for x in bad[0])}: "
            f"computed {int(got[tuple(bad[0])])}, "
            f"expected {int(expected[tuple(bad[0])])}")
        assert np.any(got != quoted), f"n={n}: quoted form equals gamma"
        assert extra_is_coboundary is False, (
            f"n={n}: quoted form is cohomologous to gamma")


def test_criterion_02_obstruction_non_vanishing():
    """is_coboundary(gamma_{omega,e1}) is false for n = 2, 3; < 10 s."""
    t0 = time.monotonic()
    for n in (2, 3):
        G, omega, z = _cube(n)
        verdict = is_coboundary(gamma(omega, z))
        assert verdict.is_coboundary is False
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_wedderburn_profile_both_paths():
    """K^gamma (Z/n)^3 has exactly n irreducibles, all of dimension n,
    on the abelian fast path and on the class-algebra path; < 30 s."""
    t0 = time.monotonic()
    for n in (2, 3):
        G, omega, z = _cube(n)
        gam = gamma(omega, z)
        fast = _abelian_profile(TwistedGroupAlgebra(G, gam))
        dixon = _class_algebra_profile(TwistedGroupAlgebra(G, gam))
        assert fast.dimensions == (n,) * n
        assert dixon.dimensions == (n,) * n
        assert fast.dimensions == dixon.dimensions
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_lift_iff_multiple_of_n():
    """X_{e1}^{m} admits a central structure iff n divides m (m = 0..9)."""
    for n in (2, 3):
        G, omega, z = _cube(n)
        C = PointedCategory(G, omega)
        cc = conjugacy_classes(G)
        i = int(cc.class_of[z])
        for m in range(10):
            cnt = lift_count(C, CentralObjectSpec.unit(cc.count, i,
                                                       multiplicity=m))
            assert (cnt == 0) == (m % n != 0), (n, m, cnt)


def test_criterion_05_trivial_cocycle_characters():
    """omega = 0 on C2xC2: every unit spec lifts in exactly 4 ways,
    one per character of the group."""
    G = parse_group_spec("C2xC2")
    C = PointedCategory(G, Cochain.zero(G, 3, 2))
    cc = conjugacy_classes(G)
    for i in range(cc.count):
        assert lift_count(C, CentralObjectSpec.unit(cc.count, i)) == 4


def test_criterion_06_kernel_of_characteristic():
    """Kernel of the characteristic homomorphism: order 27 for (Z/3)^3
    with N = 3, order 2 for S5 with N = 60."""
    G = parse_group_spec("C3xC3xC3")
    factors = kernel_of_characteristic(
        PointedCategory(G, Cochain.zero(G, 3, 3)))
    assert math.prod(factors) == 27

    S5 = make_symmetric(5)
    factors = kernel_of_characteristic(
        PointedCategory(S5, Cochain.zero(S5, 3, 60)))
    assert math.prod(factors) == 2


def _mod2_battery(groups):
    """(label, G, omega) cases: every group with omega = 0, all unordered
    cup triples on order-2 cyclic factors, the cup pullback along every
    surjection onto C2, and seeded coboundary shifts of three cases."""
    C2 = make_cyclic(2)
    base_cup = cup3(C2, 0, 0, 0, 2)
    rng = np.random.default_rng(7)
    cases = []
    for G in groups:
        seen = {}

        def add(tag, om):
            key = om.dense.tobytes()
            if key not in seen:
                seen[key] = None
                cases.append((f"{G.label} {tag}", G, om))

        add("zero", Cochain.zero(G, 3, 2))
        if G.cyclic_factors is not None:
            twos = [i for i, m in enumerate(G.cyclic_factors) if m == 2]
            for i, j, k in itertools.combinations_with_replacement(twos, 3):
                add(f"cup:{i},{j},{k}", cup3(G, i, j, k, 2))
        for pi in enumerate_homomorphisms(G, C2):
            if pi.images.max(initial=0) == 1:
                add("pullback", pullback(base_cup, G, pi.images))
        if G.label in ("C2xC2xC2", "S3", "C2xC2"):
            tagged = [(t, om) for (t, g, om) in cases if g is G]
            tag, om = tagged[-1]
            add(f"shifted[{tag}]", shifted(om, rng))
    return cases


def test_criterion_07_oracle_equivalence(small_universe):
    """lift_count agrees with the independent half-braiding enumeration
    (hexagon constraint, monomial matrices) on every group of order
    <= 8 with mod-2 cocycles, for every spec with multiplicities <= 2;
    < 5 min."""
    t0 = time.monotonic()
    checked = 0
    for label, G, omega in _mod2_battery(small_universe):
        C = PointedCategory(G, omega)
        c = conjugacy_classes(G).count
        for vec in itertools.product((0, 1, 2), repeat=c):
            lib = lift_count(C, CentralObjectSpec(vec))
            orc = oracle_lift_count(G, omega, vec)
            assert lib == orc, (label, vec, lib, orc)
            checked += 1
    assert checked > 10_000
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_complex_properties():
    """delta(delta f) = 0 for >= 100 random cochains per degree per test
    group; lift counts are invariant under >= 20 coboundary shifts."""
    rng = np.random.default_rng(88)
    groups = [make_cyclic(4), parse_group_spec("C2xC2"),
              make_symmetric(3), make_cyclic(6)]
    moduli = (2, 3, 4, 6)
    for G in groups:
        T = G.table
        for trial in range(100):
            N = moduli[trial % len(moduli)]
            for degree in (0, 1):
                f = random_cochain(G, degree, N, rng)
                assert coboundary(coboundary(f)).is_zero()
            f = random_cochain(G, 2, N, rng)
            E = coboundary(f).dense
            dd = (E[None, :, :, :] - E[T] + E[:, T, :] - E[:, :, T]
                  + E[:, :, :, None]) % N
            assert not dd.any()

    G = parse_group_spec("C2xC2xC2")
    omega = cup3(G, 0, 1, 2, 2)
    cc = conjugacy_classes(G)
    specs = [CentralObjectSpec.unit(cc.count, 0),
             CentralObjectSpec.unit(cc.count, 4, multiplicity=2),
             CentralObjectSpec((1, 0, 2, 0, 1, 0, 0, 2))]
    base = [lift_count(PointedCategory(G, omega), s) for s in specs]
    for _ in range(20):
        moved = PointedCategory(G, shifted(omega, rng))
        assert [lift_count(moved, s) for s in specs] == base


def test_criterion_09_band_types_and_hom_count():
    """S5 admits no endomorphism of conjugacy type 2 or 3 but does admit
    types 0 and 1; |Hom(S3,S3)| = 10 against the exhaustive oracle;
    S5 enumeration < 2 min."""
    t0 = time.monotonic()
    res = conjugacy_types(make_symmetric(5))
    assert time.monotonic() - t0 < 120.0
    assert 2 not in res.types
    assert 3 not in res.types
    assert 0 in res.types and 1 in res.types

    S3 = make_symmetric(3)
    homs = enumerate_homomorphisms(S3, S3)
    assert len(homs) == 10
    oracle = brute_force_hom_images(S3, S3)
    assert sorted(tuple(h.images) for h in homs) == sorted(
        tuple(im) for im in oracle)


def test_criterion_10_centralizer_identities(test_universe):
    """The constant endomorphism is centralized by the whole group, the
    identity endomorphism by exactly the center, for every test group."""
    for G in test_universe:
        const = GroupHom(G, G, [G.identity] * G.order)
        assert centralizer_of_hom(const) == tuple(range(G.order))
        ident = GroupHom(G, G, list(range(G.order)))
        assert centralizer_of_hom(ident) == center(G)
