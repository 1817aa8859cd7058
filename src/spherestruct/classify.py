"""Diffeomorphism classification over S^3 x S^4 and S^4 x S^4.

S^3 x S^4 side.  Write N_v for the 3-sphere bundle over S^4 with trivial
Euler class and first Pontrjagin class 48v.  Every smooth manifold
homotopy equivalent to S^3 x S^4 is Sigma # N_v for a homotopy 7-sphere
Sigma, so a manifold is recorded as a pair (sigma in Z_28 = bP_8, v in Z).
Two such records name the same structure exactly when v agrees and the
sigma difference lies in <32 v>; they are diffeomorphic exactly when
v agrees up to sign and the difference lies in the inertia group of N_v,
which by Wilkens' classification is the subgroup <2v> of Z_28, of order
14 / gcd(14, v).

S^4 x S^4 side.  Write W_{u,v} for the plumbing of two 4-disc bundles
over S^4 with Pontrjagin data (48u, 48v).  Its Wall classification triple
is the rank-2 hyperbolic intersection form together with the tangential
invariant Salpha taking values (24u, 24v) on the standard basis, and
signature 0.  The boundary of W_{u,v} is a homotopy 7-sphere whose class
in bP_8 = Z_28 is -del(u, v), minus the surgery obstruction of the
normal invariant (u, v) (``structset.del_map``):

    -8 t_4 t_4 uv  =  -4uv  mod 28,

which agrees with the Eells-Kuiper style quantity (signature - Salpha^2)/8
of the Wall triple.  So the boundary is the standard sphere exactly when
r divides uv, where r = 7 is the order of the residual group
8 t_4 t_4 . bP_8 (``bp.residual_group(4, 4)``).  In
that case capping off gives closed manifolds N_{u,v,phi} indexed by a
gluing twist phi in Z/2.  Two of them are almost diffeomorphic exactly
when {u0, v0} = {eps u1, eps v1} as unordered pairs for a sign eps (the
twist is invisible up to connected sum with a homotopy sphere), and
diffeomorphic exactly when additionally phi agrees: the inertia group is
trivial because Salpha's image lies in 24Z, inside 4Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bp import residual_group, t
from .cyclic import (
    CyclicElement,
    CyclicSubgroup,
    _slot_writers,
    cyclic_group,
    in_subgroup,
    subgroup_generated,
)
from .structset import _stabilizer, del_map

__all__ = [
    "BP8",
    "S3S4Invariant",
    "WallTriple",
    "S4S4Manifold",
    "s3s4_structure_equal",
    "s3s4_diffeomorphic",
    "s3s4_inertia_group",
    "wall_triple_of_plumbing",
    "plumbing_boundary_class",
    "s4s4_boundary_is_standard",
    "s4s4_almost_diffeomorphic",
    "s4s4_diffeomorphic",
]

BP8 = cyclic_group(t(8))
# r: the boundary of W_{u,v} is standard exactly when r divides uv.
_S4S4_RESIDUAL = residual_group(4, 4).order


@dataclass(frozen=True, slots=True, init=False)
class S3S4Invariant:
    """A manifold Sigma # N_v: the class sigma of Sigma in Z_28 and the
    bundle parameter v.  ``sigma`` may be given as a plain integer."""

    sigma: CyclicElement
    v: int

    def __init__(self, sigma: CyclicElement | int, v: int) -> None:
        if isinstance(sigma, int):
            sigma = CyclicElement(BP8, sigma)
        elif sigma.group.order != BP8.order:
            raise ValueError(f"sigma must lie in {BP8}, got {sigma.group}")
        _set_sigma(self, sigma)
        _set_s3s4_v(self, v)


# Constructors write each field once, already canonical (see ``cyclic``).
_set_sigma, _set_s3s4_v = _slot_writers(S3S4Invariant)


def s3s4_structure_equal(a: S3S4Invariant, b: S3S4Invariant) -> bool:
    """Same point of the structure set: equal v and sigma difference in
    the stabiliser of the d = v structures, <8 t_4 t_4 v> = <32 v>."""
    if a.v != b.v:
        return False
    return in_subgroup(a.sigma - b.sigma, _stabilizer(3, 4, a.v))


def s3s4_diffeomorphic(a: S3S4Invariant, b: S3S4Invariant) -> bool:
    """Diffeomorphic (orientation aside): v agrees up to sign and the
    sigma difference lies in the inertia group <2v>."""
    if a.v != b.v and a.v != -b.v:
        return False
    return in_subgroup(a.sigma - b.sigma, s3s4_inertia_group(a.v))


def s3s4_inertia_group(v: int) -> CyclicSubgroup:
    """Inertia group of N_v: the subgroup <2v> of bP_8 = Z_28, whose
    order is 14 / gcd(14, v)."""
    return subgroup_generated(BP8.order, 2 * v)


@dataclass(frozen=True, slots=True)
class WallTriple:
    """Wall classification data of a plumbing: hyperbolic intersection
    form, the tangential invariant on the standard basis, signature 0."""

    s_alpha_x: int
    s_alpha_y: int


def wall_triple_of_plumbing(u: int, v: int) -> WallTriple:
    """Wall triple of W_{u,v}: Salpha is (24u, 24v) on the basis."""
    return WallTriple(24 * u, 24 * v)


def plumbing_boundary_class(u: int, v: int) -> CyclicElement:
    """Class of the boundary sphere of W_{u,v} in bP_8 = Z_28: minus the
    surgery obstruction del(u, v), which is -4uv mod 28.  del is bilinear,
    so this is del(-u, v) = -del(u, v), built as one element."""
    return del_map(4, 4, -u, v)


def s4s4_boundary_is_standard(u: int, v: int) -> bool:
    """Whether the boundary of W_{u,v} is the standard 7-sphere
    (equivalently r | uv, r = 7 the residual order)."""
    return plumbing_boundary_class(u, v).is_zero


@dataclass(frozen=True, slots=True, init=False)
class S4S4Manifold:
    """A closed manifold N_{u,v,phi} obtained by capping off W_{u,v}.

    Requires r | uv, where r = 7 is the residual order; otherwise the
    boundary sphere is exotic and no such closed manifold exists.  The
    twist phi is reduced mod 2.
    """

    u: int
    v: int
    phi: int

    def __init__(self, u: int, v: int, phi: int) -> None:
        if (u * v) % _S4S4_RESIDUAL != 0:
            raise ValueError(
                f"no closed manifold for (u, v) = ({u}, {v}): the plumbing "
                f"boundary is an exotic sphere unless {_S4S4_RESIDUAL} divides u*v"
            )
        _set_u(self, u)
        _set_s4s4_v(self, v)
        _set_phi(self, phi % 2)


_set_u, _set_s4s4_v, _set_phi = _slot_writers(S4S4Manifold)


def s4s4_almost_diffeomorphic(a: S4S4Manifold, b: S4S4Manifold) -> bool:
    """Almost diffeomorphic: (u, v) pairs agree as unordered pairs up to
    a common sign; the twist phi plays no role here."""
    mine = {(a.u, a.v), (a.v, a.u)}
    return (b.u, b.v) in mine or (-b.u, -b.v) in mine


def s4s4_diffeomorphic(a: S4S4Manifold, b: S4S4Manifold) -> bool:
    """Diffeomorphic: almost diffeomorphic with matching twist."""
    return s4s4_almost_diffeomorphic(a, b) and a.phi == b.phi
