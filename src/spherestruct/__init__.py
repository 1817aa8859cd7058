"""Exact calculator for smooth structure sets of products of spheres.

The package computes, with integer and rational arithmetic only, the
pieces of the surgery-theoretic description of S^Diff(S^p x S^q): orders
of the groups bP_{4k} through the Levine order formula, the residual
obstruction groups 8 t_p t_q . bP_{p+q}, stabilisers and fibre sizes of
the homotopy-sphere action, and full diffeomorphism classifications over
S^3 x S^4 and S^4 x S^4.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bp import bp_order, residual_group, t
from .classify import (
    BP8,
    S3S4Invariant,
    S4S4Manifold,
    WallTriple,
    plumbing_boundary_class,
    s3s4_diffeomorphic,
    s3s4_inertia_group,
    s3s4_structure_equal,
    s4s4_almost_diffeomorphic,
    s4s4_diffeomorphic,
    wall_triple_of_plumbing,
)
from .cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    subgroup_generated,
)
from .ltheory import (
    LClass,
    LGroupKind,
    NormalClassDiff,
    l_group,
    theta_diff,
)
from .rationals import MAX_BERNOULLI_INDEX, bernoulli, num_b_over_4k
from .structset import (
    GroupStructureVerdict,
    StructureSetPresentation,
    TopStructureSet,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    present,
    stabilizer,
    top_structure_set,
)
from .tables import (
    GroupTable,
    KnownGroup,
    builtin_table,
    load_table,
    parse_table,
    pi_go,
    theta_order,
)

__all__ = [
    "__version__",
    "MAX_BERNOULLI_INDEX",
    "bernoulli",
    "num_b_over_4k",
    "CyclicGroup",
    "CyclicElement",
    "CyclicSubgroup",
    "subgroup_generated",
    "KnownGroup",
    "GroupTable",
    "builtin_table",
    "theta_order",
    "pi_go",
    "parse_table",
    "load_table",
    "t",
    "bp_order",
    "residual_group",
    "LGroupKind",
    "LClass",
    "NormalClassDiff",
    "l_group",
    "theta_diff",
    "StructureSetPresentation",
    "TopStructureSet",
    "GroupStructureVerdict",
    "present",
    "del_map",
    "stabilizer",
    "eta_fiber_size",
    "top_structure_set",
    "group_structure_possible",
    "forgetful_fiber",
    "BP8",
    "S3S4Invariant",
    "WallTriple",
    "S4S4Manifold",
    "s3s4_structure_equal",
    "s3s4_diffeomorphic",
    "s3s4_inertia_group",
    "wall_triple_of_plumbing",
    "plumbing_boundary_class",
    "s4s4_almost_diffeomorphic",
    "s4s4_diffeomorphic",
]
