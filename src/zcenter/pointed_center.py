"""Center invariants of a finite group with an associator 3-cocycle.

Simple objects are indexed by group elements, the tensor product is
X_g (x) X_h = X_{gh}, and the associator on (X_g, X_h, X_k) is
zeta^{omega(g,h,k)}.  An object decomposes over conjugacy classes; the
class sums are the central elements of the fusion ring.  Whether a sum
with multiplicities (a_i) admits a central structure, and in how many
inequivalent ways, reduces per class to representation counts of the
twisted centralizer algebra K^{gamma_i} C_G(g_i), where gamma_i is the
2-cocycle obstruction cut out of omega at the class representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cohomology import Cochain, _gamma, _require_cocycle, _tree_rows
from .group_core import FiniteGroup, conjugacy_classes
from .snf import _prime_power_echelons
from .twisted_rep import TwistedGroupAlgebra, irrep_profile

__all__ = [
    "PointedCategory",
    "CentralObjectSpec",
    "ObstructionResult",
    "CenterReport",
    "e2_00_basis",
    "e_page_report",
    "center_report",
    "obstruction",
    "lift_count",
    "kernel_of_characteristic",
    "count_simple_central_objects",
    "report_to_json",
]

# Bounds lift_count's big-integer additions; accepted `lift` runs take at
# most 2.5 s (C2^7) and 351 MB (C2) end to end on a 2-core VM
MAX_LIFT_WORK = 2 ** 24


class PointedCategory:
    """A finite group together with a degree-3 associator cocycle.

    The cocycle identity is checked once, here; each class's gamma
    (`cohomology._gamma`) takes omega's verdict and is never re-verified.
    """

    def __init__(self, group: FiniteGroup, omega: Cochain):
        if omega.degree != 3:
            raise ValueError("associator must be a degree-3 cochain")
        if omega.group is not group:
            raise ValueError("associator is defined on a different group")
        _require_cocycle(omega, "associator")
        self.group = group
        self.omega = omega
        self.modulus = omega.modulus
        self._algebras = {}

    def class_algebra(self, i: int) -> TwistedGroupAlgebra:
        """K^{gamma_i} C_G(g_i) for the i-th conjugacy class."""
        if i in self._algebras:
            return self._algebras[i]
        cc = conjugacy_classes(self.group)
        if not 0 <= i < cc.count:
            raise ValueError(f"class index {i} out of range (0..{cc.count - 1})")
        gam = _gamma(self.omega, int(cc.representatives[i]))
        alg = TwistedGroupAlgebra(gam.group, gam)
        self._algebras[i] = alg
        return alg

    def __repr__(self):
        return f"PointedCategory({self.group.label}, N={self.modulus})"


@dataclass(frozen=True)
class CentralObjectSpec:
    """Multiplicity a_i for each conjugacy class sum."""

    multiplicities: tuple

    @classmethod
    def unit(cls, class_count: int, i: int, multiplicity: int = 1):
        m = [0] * class_count
        m[i] = multiplicity
        return cls(tuple(m))

    def support(self):
        return [i for i, a in enumerate(self.multiplicities) if a]


@dataclass
class ObstructionResult:
    class_index: int
    representative: int
    gamma: Cochain
    vanishes: bool


@dataclass
class CenterReport:
    group_label: str
    modulus: int
    e_pages: dict
    obstructions: list
    kernel_invariant_factors: tuple
    lifts: list = field(default_factory=list)
    simple_central_objects: int | None = None


def e2_00_basis(C: PointedCategory):
    """The conjugacy class sums, one unit spec per class."""
    cc = conjugacy_classes(C.group)
    return [CentralObjectSpec.unit(cc.count, i) for i in range(cc.count)]


def obstruction(C: PointedCategory, i: int) -> ObstructionResult:
    """gamma at the i-th class representative on its centralizer.

    "Vanishes" means the class of gamma dies in H^2(C(g), K^x), not
    merely mod N (the symmetric cocycle gamma(1,1) = zeta_2 on C2 is
    killed by phi(1) = zeta_4).  It is read off the Wedderburn profile
    of K^gamma C(g): gamma dies over K^x iff that algebra has a
    one-dimensional representation.  A 1-dim rep u_x -> phi(x) in K^x
    satisfies phi(x)phi(y) = zeta^gamma(x,y) phi(xy), which says exactly
    delta(phi) = gamma; conversely such a phi is a 1-dim rep
    (Karpilovsky, Projective Representations of Finite Groups, 1985).
    """
    alg = C.class_algebra(i)
    cc = conjugacy_classes(C.group)
    return ObstructionResult(
        class_index=i,
        representative=int(cc.representatives[i]),
        gamma=alg.cocycle,
        vanishes=1 in irrep_profile(alg).dimensions)


def lift_count(C: PointedCategory, spec: CentralObjectSpec) -> int:
    """Central structures on sum_i a_i Y_i: product of per-class counts,
    each a_i * (profile length) big-integer additions, at most
    MAX_LIFT_WORK in all."""
    cc = conjugacy_classes(C.group)
    mult = spec.multiplicities
    if len(mult) != cc.count:
        raise ValueError(
            f"spec length {len(mult)} != class count {cc.count}")
    if min(mult, default=0) < 0:
        raise ValueError("multiplicities must be non-negative")
    profiles = [(a, irrep_profile(C.class_algebra(i)))
                for i, a in enumerate(mult) if a]
    work = sum(a * len(prof.dimensions) for a, prof in profiles)
    if work > MAX_LIFT_WORK:
        raise ValueError(
            f"lift work (sum of multiplicity * profile length) is {work}, "
            f"above the bound MAX_LIFT_WORK = 2^24 = {MAX_LIFT_WORK}")
    return math.prod(prof.count_of_dim(a) for a, prof in profiles)


def kernel_of_characteristic(C: PointedCategory) -> tuple:
    """Invariant factors of Hom(G, Z/N), the characters of the grading group.

    A character is a 1-cochain phi with delta(phi) = 0: it solves the
    rows of `_tree_rows` for f = 0 (Holt, J. Symbolic Comput. 1, 1985, in
    degree 1).  Over each p^k exactly dividing N, a pivot p^v of those
    rows leaves a summand Z/p^v and a free column a summand Z/p^k.
    """
    N = C.modulus
    _, rows = _tree_rows(Cochain.zero(C.group, 2, N))
    # the unknowns phi(s); the constants are 0, so no echelon fails
    u = rows.shape[1] - 1
    factors = []  # largest first
    for q, M, (r, _) in _prime_power_echelons(rows, N):
        pivots = [d for d in np.diag(M)[:r].tolist() if d > 1]
        for i, d in enumerate(sorted(pivots + [q] * (u - r), reverse=True)):
            if i == len(factors):
                factors.append(1)
            factors[i] *= d
    return tuple(sorted(factors))


def count_simple_central_objects(C: PointedCategory) -> int:
    """Simple lifts: one class with one irreducible each."""
    cc = conjugacy_classes(C.group)
    return sum(len(irrep_profile(C.class_algebra(i)).dimensions)
               for i in range(cc.count))


def _e_pages(C: PointedCategory, kernel: tuple) -> dict:
    G = C.group
    cc = conjugacy_classes(G)
    n = G.order
    return {
        "e1_00": {"descriptor":
                  "free commutative monoid on the simple objects",
                  "rank": n},
        "e1_01": {"descriptor": "K^x", "rank": 1},
        "e1_11": {"descriptor": "units per simple object", "rank": n},
        "e1_21": {"descriptor": "units per pair of simple objects",
                  "rank": n * n},
        "e2_00": {"descriptor": "central class sums",
                  "basis": [{"class": i,
                             "representative": int(cc.representatives[i]),
                             "size": int(cc.class_sizes[i])}
                            for i in range(cc.count)]},
        "e2_01": {"descriptor": "K^x", "rank": 1},
        "e2_11": {"descriptor": "characters of the universal grading group",
                  "invariant_factors": list(kernel),
                  "order": math.prod(kernel)},
        "universal_grading": "G",
    }


def e_page_report(C: PointedCategory) -> CenterReport:
    """Page terms, per-class obstructions, kernel; no lift table."""
    cc = conjugacy_classes(C.group)
    kernel = kernel_of_characteristic(C)
    return CenterReport(
        group_label=C.group.label or "?",
        modulus=C.modulus,
        e_pages=_e_pages(C, kernel),
        obstructions=[obstruction(C, i) for i in range(cc.count)],
        kernel_invariant_factors=kernel)


def center_report(C: PointedCategory, specs=None) -> CenterReport:
    """Full report; default lift table covers the class-sum basis."""
    report = e_page_report(C)
    if specs is None:
        specs = e2_00_basis(C)
    report.lifts = [(spec, lift_count(C, spec)) for spec in specs]
    report.simple_central_objects = count_simple_central_objects(C)
    return report


def _obstruction_json(o: ObstructionResult) -> dict:
    return {"class": o.class_index, "representative": o.representative,
            "vanishes": o.vanishes}


def report_to_json(report: CenterReport) -> dict:
    return {
        "group": report.group_label,
        "modulus": report.modulus,
        "e_pages": report.e_pages,
        "obstructions": [_obstruction_json(o) for o in report.obstructions],
        "kernel_char": {"invariant_factors":
                        list(report.kernel_invariant_factors)},
        "lifts": [{"spec": list(spec.multiplicities), "count": count}
                  for spec, count in report.lifts],
        "simple_central_objects": report.simple_central_objects,
    }
