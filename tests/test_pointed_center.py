"""Center reports for a group with a 3-cocycle: obstructions, lifts,
kernel of the characteristic map, simple object counts."""

import json
import math
import sys

import numpy as np
import pytest

from zcenter import cohomology, group_core, snf
from zcenter.cohomology import (Cochain, CocycleError, coboundary, cup3,
                                embed_modulus, gamma, is_coboundary,
                                is_cocycle)
from zcenter.group_core import (center, centralizer, conjugacy_classes,
                                direct_product, enumerate_homomorphisms,
                                generating_sequence, make_cyclic,
                                make_symmetric, parse_group_spec, subgroup)
from zcenter.pointed_center import (MAX_LIFT_WORK, CentralObjectSpec,
                                    PointedCategory, center_report,
                                    count_simple_central_objects,
                                    e2_00_basis, e_page_report,
                                    kernel_of_characteristic, lift_count,
                                    obstruction, report_to_json)
from zcenter.twisted_rep import (TwistedGroupAlgebra, irrep_profile,
                                 regular_classes)

from conftest import (make_dihedral4, pullback, random_cochain, shifted,
                      sign_cocycle)
from oracles import brute_force_hom_images, oracle_lift_count


def cat(G, omega=None, N=2):
    return PointedCategory(G, omega if omega is not None
                           else Cochain.zero(G, 3, N))


# -- construction ------------------------------------------------------

def test_validation(C4, S3):
    with pytest.raises(ValueError, match="degree"):
        PointedCategory(C4, Cochain.zero(C4, 2, 2))
    with pytest.raises(ValueError, match="group"):
        PointedCategory(S3, Cochain.zero(C4, 3, 2))
    bad = Cochain(C4, 3, 5, values={(1, 1, 1): 1})
    with pytest.raises(CocycleError) as exc:
        PointedCategory(C4, bad)
    assert exc.value.certificate is not None


def test_class_algebra_structure(S3):
    w = sign_cocycle(S3)
    C = cat(S3, w)
    cc = conjugacy_classes(S3)
    for i in range(cc.count):
        alg = C.class_algebra(i)
        g = int(cc.representatives[i])
        assert alg.group.order == len(centralizer(S3, [g]))
        assert alg.modulus == 2
        assert alg.cocycle.degree == 2
    # identity class: gamma at e is identically zero
    eclass = int(cc.class_of[S3.identity])
    assert C.class_algebra(eclass).cocycle.is_zero()


def test_class_algebra_cached(S3):
    C = cat(S3)
    assert C.class_algebra(0) is C.class_algebra(0)
    with pytest.raises(ValueError, match=r"class index 3 out of range"):
        C.class_algebra(3)


def test_e2_00_basis(S4):
    C = cat(S4, N=2)
    basis = e2_00_basis(C)
    assert len(basis) == conjugacy_classes(S4).count
    for i, spec in enumerate(basis):
        assert spec.multiplicities[i] == 1
        assert sum(spec.multiplicities) == 1


def test_spec_helpers():
    s = CentralObjectSpec.unit(5, 2, 3)
    assert s.multiplicities == (0, 0, 3, 0, 0)
    assert s.support() == [2]


# -- obstructions ------------------------------------------------------

def test_untwisted_obstructions_all_vanish(S3, D4, C2xC4):
    for G in (S3, D4, C2xC4):
        C = cat(G)
        for i in range(conjugacy_classes(G).count):
            assert obstruction(C, i).vanishes


def test_cup_obstruction_profile(C2cubed, C3cubed):
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        C = cat(G, cup3(G, 0, 1, 2, n))
        results = [obstruction(C, i) for i in range(G.order)]
        # only the identity class escapes
        assert results[0].vanishes
        assert sum(r.vanishes for r in results) == 1
        for i, r in enumerate(results):
            assert r.class_index == i
            assert r.representative == i  # abelian: classes are singletons


def test_obstruction_uses_full_unit_group(C2):
    """gamma(1,1) = zeta_2 at the nontrivial class is killed inside mu_4."""
    C = cat(C2, cup3(C2, 0, 0, 0, 2))
    res = obstruction(C, 1)
    assert res.vanishes
    assert res.gamma.modulus == 2
    assert not res.gamma.is_zero()
    v = is_coboundary(embed_modulus(res.gamma, 4))
    assert v.is_coboundary and v.witness.modulus == 4


def test_sign_cocycle_obstructions(S3):
    C = cat(S3, sign_cocycle(S3))
    cc = conjugacy_classes(S3)
    for i in range(cc.count):
        assert obstruction(C, i).vanishes
    assert count_simple_central_objects(C) == 8


def test_vanishing_iff_unit_lift(C2, C2cubed, C3cubed, S3, D4, Q8):
    cases = [
        cat(C2, cup3(C2, 0, 0, 0, 2)),
        cat(C2cubed, cup3(C2cubed, 0, 1, 2, 2)),
        cat(C3cubed, cup3(C3cubed, 0, 1, 2, 3)),
        cat(S3, sign_cocycle(S3)),
        cat(D4), cat(Q8),
    ]
    for C in cases:
        G = C.group
        cc = conjugacy_classes(G)
        for i in range(cc.count):
            unit = CentralObjectSpec.unit(cc.count, i)
            res = obstruction(C, i)
            assert (lift_count(C, unit) > 0) == res.vanishes
            # independent side: gamma from the restricted omega, decided
            # by the tree-row coboundary solver over mu_{N*exponent}
            g = int(cc.representatives[i])
            H, embed = subgroup(G, centralizer(G, [g]))
            gam = gamma(C.omega.restrict(H, embed),
                        int((embed == g).nonzero()[0][0]))
            assert np.array_equal(gam.dense, res.gamma.dense)
            enlarged = embed_modulus(gam, C.modulus * H.exponent())
            assert res.vanishes == is_coboundary(enlarged).is_coboundary


def test_vanishing_implies_all_regular_on_abelian_classes(C2cubed):
    """When the centralizer is abelian and the obstruction dies, the
    twisted algebra is a commutative character algebra."""
    C = cat(C2cubed, cup3(C2cubed, 0, 1, 2, 2))
    for i in range(8):
        alg = C.class_algebra(i)
        if obstruction(C, i).vanishes:
            assert len(regular_classes(alg)) == alg.group.order


def test_report_verifies_omega_once_and_never_solves(monkeypatch):
    """center_report verifies omega's cocycle identity once (one slab per
    generator) and reads every per-class verdict off the profiles, not
    the linear solver."""
    G = parse_group_spec("C2xC2xC2xC2")
    slabs = []
    real_slab = cohomology._delta_slab

    def counting_slab(F, T, g, degree, out=None):
        if degree == 3:
            slabs.append(g)
        return real_slab(F, T, g, degree, out)

    def no_solver(*args, **kwargs):
        raise AssertionError("the report path reached the linear solver")

    monkeypatch.setattr(cohomology, "_delta_slab", counting_slab)
    monkeypatch.setattr(snf, "solve_modular_linear", no_solver)
    monkeypatch.setattr(cohomology, "solve_modular_linear", no_solver)
    report = center_report(cat(G, cup3(G, 0, 1, 2, 2)))
    assert len(slabs) == len(generating_sequence(G)) == 4
    assert len(report.obstructions) == 16
    assert sum(o.vanishes for o in report.obstructions) == 2


def test_report_reverifies_no_gamma_and_no_centralizer(monkeypatch):
    """Once the PointedCategory is built, a report on C2^5 checks no
    degree-2 cocycle identity and builds no group: each gamma_g is a
    cocycle because omega is, and every centralizer is G itself."""
    G = parse_group_spec("C2xC2xC2xC2xC2")
    C = cat(G, cup3(G, 0, 1, 2, 2))
    degrees, built = [], []
    real_is_cocycle = cohomology.is_cocycle
    real_init = group_core.FiniteGroup.__init__

    def recording_is_cocycle(f):
        degrees.append(f.degree)
        return real_is_cocycle(f)

    def recording_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zcenter") and \
                getattr(mod, "is_cocycle", None) is real_is_cocycle:
            monkeypatch.setattr(mod, "is_cocycle", recording_is_cocycle)
    monkeypatch.setattr(group_core.FiniteGroup, "__init__", recording_init)
    report = center_report(C)
    assert 2 not in degrees
    assert built == []
    assert all(C.class_algebra(i).group is G for i in range(G.order))
    assert report.simple_central_objects > 0


def test_inherited_gamma_verdicts_are_true(S4, S5, A4):
    """Each class algebra's gamma takes omega's verdict unswept; a fresh
    copy of it, swept in full, is a cocycle.  The categories: the cup
    cocycles of center-abelian, the sign pullbacks on S4 and S5, A4 -> C3,
    and D4xC2^4 (80 classes, centralizers of order 64 and 128) with
    cup:0,1,2 of its C2^4 factor at N = 4; each plain and shifted."""
    C3, C2_4 = make_cyclic(3), parse_group_spec("C2xC2xC2xC2")
    onto = next(a.images for a in enumerate_homomorphisms(A4, C3)
                if len(set(a.images.tolist())) == 3)
    D = direct_product(make_dihedral4(), C2_4)
    omegas = [cup3(parse_group_spec(spec), 0, 1, 2, N)
              for spec, N in (("C2xC2xC2xC2xC2", 2), ("C3xC3xC3", 3),
                              ("C4xC4xC2", 4))]
    omegas += [sign_cocycle(S4), sign_cocycle(S5),
               pullback(cup3(C3, 0, 0, 0, 3), A4, onto),
               pullback(cup3(C2_4, 0, 1, 2, 4), D, np.arange(D.order) % 16)]
    rng = np.random.default_rng(30)
    for omega in omegas:
        for w in (omega, shifted(omega, rng)):
            C = PointedCategory(w.group, w)
            for i in range(conjugacy_classes(w.group).count):
                gam = C.class_algebra(i).cocycle
                assert gam._verdict is w._verdict
                fresh = Cochain(gam.group, 2, gam.modulus, dense=gam.dense)
                assert is_cocycle(fresh).is_cocycle, (w.group.label, i)


def test_report_on_s5_verifies_omega_at_two_generators(monkeypatch, S5):
    """On S5 omega's cocycle identity is checked at a two-element
    generating set, not at the four greedy generators."""
    omega = shifted(sign_cocycle(S5), np.random.default_rng(60))
    slabs = []
    real_slab = cohomology._delta_slab

    def counting_slab(F, T, g, degree, out=None):
        if degree == 3:
            slabs.append(g)
        return real_slab(F, T, g, degree, out)

    monkeypatch.setattr(cohomology, "_delta_slab", counting_slab)
    report = center_report(cat(S5, omega))
    assert len(slabs) == 2 < len(generating_sequence(S5)) == 4
    assert len(report.obstructions) == 7


def test_abelian_report_computes_classes_of_one_group(monkeypatch):
    """On an abelian group every profile takes the fast path, which needs
    no conjugacy classes of the 32 centralizers."""
    G = parse_group_spec("C2xC2xC2xC2xC2")
    seen = set()
    real = group_core.conjugacy_classes

    def recording(H):
        seen.add(id(H))
        return real(H)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zcenter") and \
                getattr(mod, "conjugacy_classes", None) is real:
            monkeypatch.setattr(mod, "conjugacy_classes", recording)
    report = center_report(cat(G, cup3(G, 0, 1, 2, 2)))
    assert report.simple_central_objects > 0
    assert seen == {id(G)}


# -- lift counts -------------------------------------------------------

def test_lift_count_validation(S3):
    C = cat(S3)
    with pytest.raises(ValueError, match="length"):
        lift_count(C, CentralObjectSpec((1, 0)))
    with pytest.raises(ValueError, match="non-negative"):
        lift_count(C, CentralObjectSpec((1, 0, -1)))


def test_lift_work_bound_sums_over_the_spec(C2xC2):
    # each class has 4 irreducibles: either class alone is within
    # MAX_LIFT_WORK, and the two together pass it by 4
    C = cat(C2xC2)
    half = MAX_LIFT_WORK // 8
    with pytest.raises(ValueError, match=f"is {MAX_LIFT_WORK + 4}, above"):
        lift_count(C, CentralObjectSpec((half, half + 1, 0, 0)))


def test_lift_count_empty_spec_is_one(S3):
    C = cat(S3)
    assert lift_count(C, CentralObjectSpec((0, 0, 0))) == 1


def test_lift_criterion_multiples(C2cubed, C3cubed):
    for G, n in ((C2cubed, 2), (C3cubed, 3)):
        C = cat(G, cup3(G, 0, 1, 2, n))
        cc = conjugacy_classes(G)
        e1 = n * n  # (1, 0, 0)
        i = int(cc.class_of[e1])
        for m in range(10):
            cnt = lift_count(C, CentralObjectSpec.unit(cc.count, i, m))
            assert (cnt == 0) == (m % n != 0)


def test_lift_count_products(C2cubed):
    C = cat(C2cubed, cup3(C2cubed, 0, 1, 2, 2))
    cc = conjugacy_classes(C2cubed)
    spec = [0] * 8
    spec[int(cc.class_of[0])] = 2   # identity class: 36 = C(8,2) + 8
    spec[int(cc.class_of[4])] = 2   # e1 class: two 2-dim irreducibles
    assert lift_count(C, CentralObjectSpec(tuple(spec))) == 72


def test_trivial_cocycle_unit_lifts_count_characters(C2xC2):
    C = cat(C2xC2, N=2)
    for i in range(4):
        assert lift_count(C, CentralObjectSpec.unit(4, i)) == 4


def test_unit_spec_count_is_hom_order_when_untwisted(S3, S4, D4, Q8):
    """At the identity class with multiplicity 1 the count is the number
    of degree-1 characters |Hom(G^ab, Z/N)| when omega = 0."""
    from zcenter.group_core import enumerate_homomorphisms
    for G, N in ((S3, 6), (S4, 2), (D4, 4), (Q8, 2)):
        C = cat(G, N=N)
        cc = conjugacy_classes(G)
        i = int(cc.class_of[G.identity])
        got = lift_count(C, CentralObjectSpec.unit(cc.count, i))
        expected = len(enumerate_homomorphisms(G, make_cyclic(N)))
        assert got == expected


# -- kernel of the characteristic map ---------------------------------

def test_kernel_values(C3cubed, S3, S5, C2xC4, C3, C6, C2cubed):
    assert kernel_of_characteristic(cat(C3cubed, N=3)) == (3, 3, 3)
    assert kernel_of_characteristic(cat(S5, N=60)) == (2,)
    assert kernel_of_characteristic(cat(S3, N=6)) == (2,)
    assert kernel_of_characteristic(cat(C2xC4, N=8)) == (2, 4)
    assert kernel_of_characteristic(cat(C3, N=2)) == ()
    # at N = exp(G) on an abelian G, its invariant factors
    for G, factors in ((C6, (6,)), (C2xC4, (2, 4)), (C2cubed, (2, 2, 2)),
                       (parse_group_spec("C1"), ()),
                       (parse_group_spec("C2xC3"), (6,)),
                       (parse_group_spec("C4xC6"), (2, 12)),
                       (parse_group_spec("C2xC8xC4"), (2, 4, 8)),
                       (parse_group_spec("C2xC3xC4xC5"), (2, 60))):
        assert kernel_of_characteristic(cat(G, N=G.exponent())) == factors


def test_kernel_is_ab_when_modulus_is_exponent(test_universe):
    """At N = exp(G), Hom(G, Z/N) is isomorphic to G / [G, G], whose
    order is the number of linear characters: the 1s among the
    dimensions of the irreducibles of the untwisted group algebra."""
    for G in test_universe:
        order = math.prod(kernel_of_characteristic(cat(G, N=G.exponent())))
        linear = irrep_profile(
            TwistedGroupAlgebra(G, Cochain.zero(G, 2, 2))).dimensions
        assert order == linear.count(1)
        assert G.order % order == 0


def test_kernel_counts_homs_to_every_cyclic_quotient(test_universe, S3, S4,
                                                     A4, S5):
    """|Hom(G, Z/d)| = prod gcd(f, d) over the factors f at N, for each
    d | N, by exhaustive scan over images of the greedy generators.  These
    counts determine the group, not only its order."""
    groups = [*test_universe, S5,
              *map(parse_group_spec, ("C1", "C12", "C4xC6", "C2xC8xC4",
                                      "C2xC3xC4xC5", "C2xC2xC2xC2xC2xC2xC2",
                                      "C4xC4xC8")),
              direct_product(S3, make_cyclic(4)),
              direct_product(A4, make_cyclic(6)),
              direct_product(S4, parse_group_spec("C2xC2"))]
    for G in groups:
        exp = G.exponent()
        gens = generating_sequence(G)
        homs = {}  # d -> |Hom(G, Z/d)|, scanned once for all N
        for N in (exp, 2 * exp, 7 * exp) if exp < 40 else (exp,):
            factors = kernel_of_characteristic(cat(G, N=N))
            for d in range(1, N + 1):
                if N % d or d ** len(gens) * G.order > 2 * 10 ** 5:
                    continue
                if d not in homs:
                    homs[d] = len(brute_force_hom_images(
                        G, make_cyclic(d), gens=gens))
                assert math.prod(math.gcd(f, d) for f in factors) \
                    == homs[d], (G.label, N, d)


# -- simple central objects -------------------------------------------

def test_simple_counts(S3, S5, D4, Q8, C2cubed, C3cubed):
    assert count_simple_central_objects(cat(S3, N=2)) == 8
    assert count_simple_central_objects(cat(D4, N=2)) == 22
    assert count_simple_central_objects(cat(Q8, N=2)) == 22
    assert count_simple_central_objects(
        cat(C2cubed, cup3(C2cubed, 0, 1, 2, 2))) == 22
    assert count_simple_central_objects(
        cat(C3cubed, cup3(C3cubed, 0, 1, 2, 3))) == 105
    assert count_simple_central_objects(cat(S5, N=60)) == 39


def test_simple_count_untwisted_is_class_sum(test_universe):
    """omega = 0: simples of the center = sum over classes of the number
    of irreducibles of the centralizer."""
    from zcenter.twisted_rep import ordinary_character_degrees
    from zcenter.group_core import subgroup
    for G in test_universe:
        if G.order > 24:
            continue
        C = cat(G, N=2)
        cc = conjugacy_classes(G)
        expected = 0
        for i in range(cc.count):
            g = int(cc.representatives[i])
            H, _ = subgroup(G, centralizer(G, [g]))
            expected += len(ordinary_character_degrees(H))
        assert count_simple_central_objects(C) == expected


# -- invariance under coboundary shifts -------------------------------

def test_shift_invariance_of_everything(C2cubed, S3):
    rng = np.random.default_rng(61)
    base_cases = [
        (C2cubed, cup3(C2cubed, 0, 1, 2, 2)),
        (S3, sign_cocycle(S3)),
    ]
    shifts = 0
    for G, w in base_cases:
        C0 = cat(G, w)
        cc = conjugacy_classes(G)
        ref_obs = [obstruction(C0, i).vanishes for i in range(cc.count)]
        ref_simples = count_simple_central_objects(C0)
        specs = e2_00_basis(C0) + [
            CentralObjectSpec(tuple(rng.integers(0, 3, cc.count)))
            for _ in range(3)]
        ref_lifts = [lift_count(C0, s) for s in specs]
        for _ in range(10):
            C1 = cat(G, shifted(w, rng))
            shifts += 1
            assert [obstruction(C1, i).vanishes
                    for i in range(cc.count)] == ref_obs
            assert count_simple_central_objects(C1) == ref_simples
            assert [lift_count(C1, s) for s in specs] == ref_lifts
    assert shifts >= 20


# -- reports -----------------------------------------------------------

def test_e_page_report_structure(S3):
    rep = e_page_report(cat(S3, N=6))
    assert rep.group_label == "S3"
    assert rep.modulus == 6
    assert rep.lifts == [] and rep.simple_central_objects is None
    pages = rep.e_pages
    assert set(pages) == {"e1_00", "e1_01", "e1_11", "e1_21", "e2_00",
                          "e2_01", "e2_11", "universal_grading"}
    assert pages["e1_00"]["rank"] == 6
    assert pages["e1_01"] == {"descriptor": "K^x", "rank": 1}
    assert pages["e1_11"]["rank"] == 6
    assert pages["e1_21"]["rank"] == 36
    assert len(pages["e2_00"]["basis"]) == 3
    assert pages["e2_11"]["invariant_factors"] == [2]
    assert pages["e2_11"]["order"] == 2
    assert pages["universal_grading"] == "G"


def test_center_report_and_json(C2cubed):
    w = cup3(C2cubed, 0, 1, 2, 2)
    rep = center_report(cat(C2cubed, w))
    data = report_to_json(rep)
    assert set(data) == {"group", "modulus", "e_pages", "obstructions",
                         "kernel_char", "lifts", "simple_central_objects"}
    assert data["modulus"] == 2
    assert data["kernel_char"] == {"invariant_factors": [2, 2, 2]}
    assert len(data["obstructions"]) == 8
    for i, o in enumerate(data["obstructions"]):
        assert set(o) == {"class", "representative", "vanishes"}
        assert o["class"] == i
    assert len(data["lifts"]) == 8
    assert data["lifts"][0] == {"spec": [1, 0, 0, 0, 0, 0, 0, 0], "count": 8}
    assert data["simple_central_objects"] == 22
    # deterministic: a rebuilt report serializes identically
    rep2 = center_report(cat(C2cubed, cup3(C2cubed, 0, 1, 2, 2)))
    assert json.dumps(report_to_json(rep2), sort_keys=True) == \
        json.dumps(data, sort_keys=True)


def test_center_report_custom_specs(S3):
    C = cat(S3, N=2)
    specs = [CentralObjectSpec((1, 1, 0)), CentralObjectSpec((0, 0, 2))]
    rep = center_report(C, specs)
    assert len(rep.lifts) == 2
    assert rep.lifts[0][1] == lift_count(C, specs[0])


# -- agreement with the hexagon oracle --------------------------------

def test_oracle_agreement_spot_checks(C2, C4, C2xC2, S3):
    cases = [
        (C2, cup3(C2, 0, 0, 0, 2)),
        (C4, Cochain.zero(C4, 3, 2)),
        (C2xC2, Cochain.zero(C2xC2, 3, 2)),
        (S3, sign_cocycle(S3)),
    ]
    rng = np.random.default_rng(67)
    for G, w in cases:
        C = cat(G, w)
        cc = conjugacy_classes(G)
        for i in range(cc.count):
            for m in (1, 2):
                spec = [0] * cc.count
                spec[i] = m
                assert lift_count(C, CentralObjectSpec(tuple(spec))) == \
                    oracle_lift_count(G, w, spec)
        for _ in range(5):
            spec = [int(x) for x in rng.integers(0, 3, cc.count)]
            assert lift_count(C, CentralObjectSpec(tuple(spec))) == \
                oracle_lift_count(G, w, spec)
