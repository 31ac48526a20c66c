"""Conjugacy-type endomorphisms and finite-universe center families.

An endomorphism alpha of G has conjugacy type n when alpha(g) is
conjugate to g^n for every g.  Since g^n only depends on n modulo the
exponent of G, types are residues mod exponent(G).  Intersecting the
type sets over a finite universe of groups (residues taken modulo the
lcm of the exponents) gives an upper bound on the family of power
operations that act centrally on every group in that universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .group_core import (_BLOCK_CELLS, FiniteGroup, GroupHom,
                         _hom_batches, centralizer, conjugacy_classes)

__all__ = [
    "ConjugacyTypeResult",
    "centralizer_of_hom",
    "conjugacy_types",
    "band_center_families",
]


@dataclass
class ConjugacyTypeResult:
    group: FiniteGroup
    types: set
    witnesses: dict

    @property
    def modulus(self) -> int:
        return self.group.exponent()


def centralizer_of_hom(alpha: GroupHom) -> tuple:
    """Elements of the target commuting with the whole image of alpha."""
    return centralizer(alpha.target, set(int(x) for x in alpha.images))


def conjugacy_types(G: FiniteGroup) -> ConjugacyTypeResult:
    """All residues n with some endomorphism of conjugacy type n.

    Witness per residue: the first endomorphism (enumeration order)
    realizing it.  Each verified batch of `_hom_batches` is matched
    against every residue still without a witness at once, and the
    enumeration stops once every residue has one.  Each witness is
    re-verified at every element against the defining condition, with
    powers computed apart from `power_table`, before being returned.
    """
    exp = G.exponent()
    cls = conjugacy_classes(G).class_of
    P = G.power_table(exp)
    # M[n, g] = class of g^n
    M = cls[P.T]
    witnesses = {}
    todo = np.arange(exp)  # residues without a witness, ascending
    # rows of a batch per comparison, within the enumeration's budget
    step = max(1, _BLOCK_CELLS // (exp * G.order))
    for rows in (batch[a:a + step] for batch in _hom_batches(G, G)
                 for a in range(0, len(batch), step)):
        hit = (cls[rows][:, None, :] == M[None, todo, :]).all(axis=2)
        found = hit.any(axis=0)
        for col in np.nonzero(found)[0]:
            witnesses[int(todo[col])] = GroupHom._verified(
                G, G, rows[hit[:, col].argmax()])
        todo = todo[~found]
        if not len(todo):
            break
    for n, alpha in witnesses.items():
        bad = cls[alpha.images] != cls[G._power(np.arange(G.order), n)]
        if bad.any():
            raise AssertionError(
                f"witness for type {n} fails at element {bad.argmax()}")
    return ConjugacyTypeResult(group=G, types=set(witnesses),
                               witnesses=witnesses)


def band_center_families(universe) -> set:
    """Residues mod lcm of exponents admitted by every group.

    An upper bound on the center over this finite universe: residue n
    survives iff each group has an endomorphism of conjugacy type
    n mod exponent(group).
    """
    universe = list(universe)
    if not universe:
        raise ValueError("empty universe")
    results = [conjugacy_types(G) for G in universe]
    L = lcm(*(r.modulus for r in results))
    out = set()
    for n in range(L):
        if all((n % r.modulus) in r.types for r in results):
            out.add(n)
    return out
