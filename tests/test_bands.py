"""Conjugacy-type endomorphisms and the finite band-center harness."""

import math

import numpy as np
import pytest

from zcenter import bands
from zcenter.bands import (band_center_families, centralizer_of_hom,
                           conjugacy_types)
from zcenter.group_core import (GroupHom, center, conjugacy_classes,
                                enumerate_homomorphisms, make_alternating,
                                make_cyclic, make_symmetric,
                                parse_group_spec)

from oracles import brute_force_hom_images


def test_abelian_groups_admit_every_residue(C6, C2xC4, C2cubed):
    for G in (C6, C2xC4, C2cubed, make_cyclic(12)):
        res = conjugacy_types(G)
        assert res.modulus == G.exponent()
        assert res.types == set(range(G.exponent()))


@pytest.mark.parametrize("spec,bad_n,bad_g,first", [
    ("C2", 1, 1, 1),       # M[1] becomes the trivial map, a real hom
    ("S3", 2, (3, 4), 3),  # both 3-cycles squared to e: the first fails
], ids=["C2", "S3"])
def test_witness_recheck_catches_a_wrong_power_table(monkeypatch, spec,
                                                     bad_n, bad_g, first):
    """The re-check computes powers apart from power_table, so a witness
    matched against a wrong power table is refused."""
    G = parse_group_spec(spec)
    real = type(G).power_table

    def wrong(self, upto):
        P = real(self, upto)
        P[bad_g, bad_n] = self.identity
        return P

    monkeypatch.setattr(type(G), "power_table", wrong)
    with pytest.raises(AssertionError,
                       match=f"^witness for type {bad_n} fails at element "
                             f"{first}$"):
        conjugacy_types(G)


def test_s3_types(S3):
    res = conjugacy_types(S3)
    assert res.modulus == 6
    assert res.types == {0, 1, 3, 5}


def test_s4_types(S4):
    res = conjugacy_types(S4)
    assert res.modulus == 12
    # 0 from the constant, odd residues coprime to 12 from rationality,
    # 3 from the sign maps (kills 3-cycles, fixes a transposition's class),
    # nothing even except 0 (even powers kill transpositions)
    assert 0 in res.types and 1 in res.types and 11 in res.types
    assert all(n % 2 == 0 for n in res.types if n not in {1, 3, 5, 7, 9, 11})


def test_types_contain_zero_one_everywhere(test_universe):
    for G in test_universe:
        res = conjugacy_types(G)
        assert 0 in res.types
        assert 1 % G.exponent() in res.types


def test_symmetric_groups_are_ambivalent():
    # g is always conjugate to its inverse, so the identity map is a
    # witness for residue exponent - 1
    for m in (3, 4, 5):
        G = make_symmetric(m)
        res = conjugacy_types(G)
        assert (G.exponent() - 1) in res.types


def test_witnesses_verify(S3, D4, Q8):
    for G in (S3, D4, Q8):
        res = conjugacy_types(G)
        cls = conjugacy_classes(G).class_of
        assert set(res.witnesses) == res.types
        for n, alpha in res.witnesses.items():
            assert alpha.source is G and alpha.target is G
            for g in range(G.order):
                assert cls[alpha(g)] == cls[G.power(g, n)]


def test_types_match_exhaustive_enumeration(S3, C4, C2xC2):
    for G in (S3, C4, C2xC2):
        cls = conjugacy_classes(G).class_of
        exp = G.exponent()
        brute = set()
        for images in brute_force_hom_images(G, G):
            for n in range(exp):
                if all(cls[images[g]] == cls[G.power(g, n)]
                       for g in range(G.order)):
                    brute.add(n)
        assert conjugacy_types(G).types == brute


def test_s5_types(S5):
    res = conjugacy_types(S5)
    assert res.modulus == 60
    assert res.types == {0} | {n for n in range(60) if math.gcd(n, 60) == 1}
    assert 2 not in res.types and 3 not in res.types


def test_s5_a6_types_and_first_witnesses(S5):
    """Types of S5 and A6 (0 and the units mod 60 on both), each witnessed
    by the first endomorphism in `enumerate_homomorphisms` order that
    realizes it."""
    want = {0} | {n for n in range(60) if math.gcd(n, 60) == 1}
    for G in (S5, make_alternating(6)):
        res = conjugacy_types(G)
        assert res.types == want, G.label
        cls = conjugacy_classes(G).class_of
        M = cls[G.power_table(G.exponent()).T]
        first = {}
        for alpha in enumerate_homomorphisms(G, G):
            for n in np.nonzero((M == cls[alpha.images]).all(axis=1))[0]:
                first.setdefault(int(n), alpha.key())
        assert set(first) == want
        assert {n: a.key() for n, a in res.witnesses.items()} == first


def test_types_stop_once_every_residue_has_a_witness(monkeypatch):
    """On C2^4 both residues are found within the first 4,681 of the
    65,536 candidates, so the batches are not read to the end."""
    read = []
    real = bands._hom_batches

    def counting(G, H):
        for batch in real(G, H):
            read.append(len(batch))
            yield batch
        read.append(None)  # the generator was exhausted

    monkeypatch.setattr(bands, "_hom_batches", counting)
    res = conjugacy_types(parse_group_spec("C2xC2xC2xC2"))
    assert res.types == {0, 1}
    assert read and None not in read
    assert sum(read) < 2 ** 16


def test_hom_count_s3(S3):
    assert len(enumerate_homomorphisms(S3, S3)) == 10
    assert len(brute_force_hom_images(S3, S3)) == 10


def test_band_center_families(S3, S5):
    fams = band_center_families([S3, S5, make_cyclic(60)])
    expected = {0} | {n for n in range(60) if math.gcd(n, 60) == 1}
    assert fams == expected


def test_band_center_families_single(S3):
    assert band_center_families([S3]) == {0, 1, 3, 5}


def test_band_center_families_mixed_moduli(S3, C4):
    fams = band_center_families([S3, C4])
    # lcm(6, 4) = 12; C4 admits everything, so S3 decides mod 6
    assert fams == {n for n in range(12) if n % 6 in {0, 1, 3, 5}}


def test_band_center_families_empty():
    with pytest.raises(ValueError):
        band_center_families([])


def test_centralizer_of_constant_and_identity(test_universe):
    for G in test_universe:
        const = GroupHom(G, G, [G.identity] * G.order)
        assert centralizer_of_hom(const) == tuple(range(G.order))
        ident = GroupHom(G, G, list(range(G.order)))
        assert centralizer_of_hom(ident) == center(G)


def test_centralizer_of_sign_map(S3):
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    images = [S3.identity if int(orders[g]) in (1, 3) else t
              for g in range(6)]
    alpha = GroupHom(S3, S3, images)
    assert centralizer_of_hom(alpha) == tuple(sorted({S3.identity, t}))
