"""Exact Drinfeld-center invariants for pointed fusion categories.

Core pieces: finite groups as full multiplication tables (`group_core`),
normalized Z/N-valued cochains (`cohomology`), twisted group algebras
and their irreducible-dimension data (`twisted_rep`), the center report
engine for a group with a 3-cocycle (`pointed_center`), and a finite
harness for conjugacy-type endomorphisms of groups (`bands`).
Everything is integer arithmetic; roots of unity are residues mod N.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .group_core import (  # noqa: F401
    FiniteGroup,
    GroupHom,
    ConjugacyClassData,
    make_cyclic,
    make_trivial,
    direct_product,
    make_symmetric,
    make_alternating,
    conjugacy_classes,
    centralizer,
    center,
    subgroup,
    enumerate_homomorphisms,
    load_group,
    parse_group_spec,
)
from .cohomology import (  # noqa: F401
    Cochain,
    CocycleError,
    CohomologyClassVerdict,
    coboundary,
    is_cocycle,
    is_coboundary,
    cup3,
    gamma,
    embed_modulus,
    load_cocycle,
    cochain_from_json,
    cochain_to_json,
)
from .twisted_rep import (  # noqa: F401
    TwistedGroupAlgebra,
    IrrepProfile,
    irrep_profile,
    regular_classes,
    ordinary_character_degrees,
)
from .pointed_center import (  # noqa: F401
    PointedCategory,
    CentralObjectSpec,
    ObstructionResult,
    CenterReport,
    e2_00_basis,
    obstruction,
    lift_count,
    kernel_of_characteristic,
    count_simple_central_objects,
    e_page_report,
    center_report,
    report_to_json,
)
from .bands import (  # noqa: F401
    ConjugacyTypeResult,
    conjugacy_types,
    centralizer_of_hom,
    band_center_families,
)
