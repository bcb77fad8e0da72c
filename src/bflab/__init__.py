"""bflab: exact block-theory invariants of finite groups over GF(p^m).

Blocks, defect groups, Brauer pairs and block fusion systems; interior
algebras, twisted Brauer quotients and biset shapes of invariant bases;
and mechanical verification of the equivalence between unital invariant
bases, twisted units, and balance for source algebras.
"""

from .gf import FiniteField, field, make_field
from .groups import (GroupInjection, PermGroup, Subgroup, TwistedDiagonal,
                     group_from_generators, load_group)
from .algebra import AlgebraContext, group_algebra
from .interior import InteriorAlgebra
from .bisets import BisetShape, characteristic_report, explicit_invariant_basis, \
    shape_from_brauer_dims
from .idempotents import block_idempotents
from .fusion import (BrauerPairs, FusionSystem, fixed_point_presystem,
                     fusion_equal, fusion_from_group, is_divisible)
from .blocks import analyze_block, build_group_algebra

__all__ = [
    "FiniteField", "field", "make_field",
    "GroupInjection", "PermGroup", "Subgroup", "TwistedDiagonal",
    "group_from_generators", "load_group",
    "AlgebraContext", "group_algebra", "InteriorAlgebra",
    "BisetShape", "characteristic_report", "explicit_invariant_basis",
    "shape_from_brauer_dims",
    "block_idempotents",
    "BrauerPairs", "FusionSystem", "fixed_point_presystem", "fusion_equal",
    "fusion_from_group", "is_divisible",
    "analyze_block", "build_group_algebra",
]

__version__ = "0.1.0"
