"""The paper's two consequences of the smooth structure set.

The source paper (arXiv:0904.1370) calculates S^Diff(S^p x S^q) for
p, q >= 2 and p + q >= 5, and draws two consequences from it:

1. In general S^Diff(S^{4j-1} x S^{4k}) admits no group structure for
   which the smooth surgery exact sequence is a long exact sequence of
   groups.  The Theta-action has stabilisers that vary with the
   even-factor coordinate d (``structset.stabilizer``), so the fibres of
   the normal-invariant map have different sizes, which the fibres of a
   homomorphism never do.
2. The image of the forgetful map
   S^Diff(S^{4j} x S^{4k}) -> S^Top(S^{4j} x S^{4k}) is not in general a
   subgroup of the topological structure set.  It is one exactly when
   the residual group 8 t_{4j} t_{4k} . bP_{4(j+k)} of ``bp`` is
   trivial, and that group is nontrivial in every shipped dimension.

The topological structure set, by contrast, is a group isomorphic to
L_p x L_q (``top_structure_set``).  ``group_structure_possible``
answers both consequences by the shape of the pair, with one of three
shared verdicts; ``image_f_residual`` hands out the residual group of
the second, and ``forgetful_fiber`` the size of a fibre of the
forgetful map over S^3 x S^4.

This module sits between ``structset`` and ``classify``.  Its two value
classes, ``GroupStructureVerdict`` and ``TopStructureSet``, live in
``structset``, the module below, so each keeps its ``__module__``, repr
and pickle bytes.  As there, public functions check their arguments
(``bp.check_pair``, or ``image_f_residual``'s own test of the (4j, 4k)
shape, for the dimensions) and then answer from ``bp``'s shape table
and pair record, ``structset.eta_fiber_size`` or ``ltheory.l_group``.
Each reads the pair as given, without ``structset.normalize_dims``: the
verdicts, the residual group and the fibre are symmetric in p and q,
and ``top_structure_set`` keeps the factor order it is given.
"""

from __future__ import annotations

from . import _HOMES, bp
from .bp import _RESIDUAL, _SHAPES, _STABILIZER
from .cyclic import CyclicGroup, _exact_int, _shown
from .ltheory import l_group
from .structset import GroupStructureVerdict, TopStructureSet, eta_fiber_size
from .tables import KnownGroup

__all__ = _HOMES["consequences"]


def top_structure_set(p: int, q: int) -> TopStructureSet:
    """S^Top(S^p x S^q) as the group L_p x L_q (factor order as given)."""
    bp.check_pair(p, q)
    return TopStructureSet(l_group(p), l_group(q))


# The three verdicts, shared like every other result.
_VARYING_STABILIZERS = GroupStructureVerdict(False, "non-constant stabilizers")
_NOT_A_SUBGROUP = GroupStructureVerdict(False, "image not a subgroup")
_POSSIBLE = GroupStructureVerdict(True, None)


def group_structure_possible(p: int, q: int) -> GroupStructureVerdict:
    """Group-structure verdict by shape, in either order: {4j-1, 4k} fails
    with varying stabilisers, {4j, 4k} fails when the residual group is
    nontrivial, everything else succeeds."""
    bp.check_pair(p, q)
    shape = _SHAPES[p & 3][q & 3]
    if shape is _RESIDUAL:
        return _NOT_A_SUBGROUP if bp._residual_split(p, q)[2].order > 1 else _POSSIBLE
    return _VARYING_STABILIZERS if shape is _STABILIZER else _POSSIBLE


def forgetful_fiber(p: int, q: int, top_invariant: int) -> KnownGroup:
    """Size of the forgetful-map fibre over a topological structure of
    S^3 x S^4 (or S^4 x S^3) with normal invariant ``top_invariant`` in Z.

    The comparison map multiplies the degree-4 coordinate by t_4 = 2 (read
    from t's cache), so smooth structures hit exactly the even invariants
    and odd inputs are rejected.  Over t_4 * y the fibre is the
    normal-invariant fibre over d = y, of size |Theta_7| / |stabiliser(y)|.
    """
    if type(top_invariant) is not int:
        top_invariant = _exact_int("top_invariant", top_invariant)
    bp.check_pair(p, q)
    if (p, q) not in ((3, 4), (4, 3)):
        raise ValueError(
            "forgetful_fiber currently handles only S^3 x S^4, "
            f"got ({_shown(p)}, {_shown(q)})"
        )
    t_4 = bp._t_multiple_of_4(4)
    if top_invariant % t_4 != 0:
        raise ValueError(
            f"topological normal invariant {_shown(top_invariant)} is odd, "
            "hence not in the image of the smooth structure set "
            "(even invariants only)"
        )
    return eta_fiber_size(p, q, top_invariant // t_4)


def image_f_residual(p: int, q: int) -> CyclicGroup:
    """The residual group of S^{4j} x S^{4k}; the forgetful image in the
    topological structure set is a subgroup exactly when this group is
    trivial.  Other shapes are rejected."""
    if type(p) is not int or type(q) is not int:
        p, q = _exact_int("p", p), _exact_int("q", q)
    if _SHAPES[p & 3][q & 3] is not _RESIDUAL or p < 4 or q < 4:
        raise ValueError(
            "image_f_residual expects dimensions (4j, 4k), "
            f"got ({_shown(p)}, {_shown(q)})"
        )
    return bp._residual_split(p, q)[2]
