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

from .group_core import *  # noqa: F401,F403
from .cohomology import *  # noqa: F401,F403
from .twisted_rep import *  # noqa: F401,F403
from .pointed_center import *  # noqa: F401,F403
from .bands import *  # noqa: F401,F403
