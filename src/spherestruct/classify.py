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

Tables.  The S^3 x S^4 classifiers read three tuples built at import,
each with |bP_8| entries: the shared elements of BP8 =
``cyclic_group(t(8))``, the stabilisers ``structset.stabilizer(3, 4, v)``
(the subgroup generated by v times the coefficient 8 t_4 t_4)
and the inertia groups ``subgroup_generated(|bP_8|, 2v)``.  Each is
indexed by x mod |bP_8|, which is exact: d c mod n, and so the subgroup
<d c> of Z_n, depends only on d mod n.  Only t_4 and t_8 are computed
to build them.  The predicates test the coset, sigma_a = sigma_b modulo
the subgroup's canonical generator g; g divides |bP_8|, so this is
membership of the difference.

``plumbing_boundary_class`` checks u and v and reads del_map's cached
core (``structset._del_map``, 1024 entries) at (4, 4, -u, v), so the two
doors share one cache, and a warm call is one cache read that hands out
the shared element: plumbing_boundary_class(u, v) is del_map(4, 4, -u, v).

Values.  ``S3S4Invariant`` and ``S4S4Manifold`` are the caller's
arguments to the classifiers.  Their class is ``cyclic._Shared``, so a
call hands out one shared frozen value per argument tuple: a repeated
``S3S4Invariant(5, 7)`` is one builtin cache read, and the constructor,
which checks the arguments and writes the fields through the guarded
``__setstate__``, runs only for a new tuple.  ``WallTriple`` checks
that both its fields are ints.

``s4s4_diffeomorphic`` compares the twists first, one comparison that
settles every pair with different twists, and only then asks
``s4s4_almost_diffeomorphic``, the one home of the almost-diffeomorphism
test.
"""

from __future__ import annotations

from . import _HOMES
from .bp import residual_group, t
from .cyclic import (
    CyclicElement,
    CyclicSubgroup,
    _exact_int,
    _Shared,
    _shown,
    _shown_group,
    _value,
    cyclic_group,
    subgroup_generated,
)
from .structset import _del_map, stabilizer

__all__ = _HOMES["classify"]

BP8 = cyclic_group(t(8))
# Indexed by x % BP8.order (see the module docstring).
_BP8_ELEMENTS = tuple(CyclicElement(BP8, s) for s in range(BP8.order))
_S3S4_STABILIZERS = tuple(stabilizer(3, 4, v) for v in range(BP8.order))
_S3S4_INERTIA = tuple(subgroup_generated(BP8.order, 2 * v) for v in range(BP8.order))
# r: the boundary of W_{u,v} is standard exactly when r divides uv.
_S4S4_RESIDUAL = residual_group(4, 4).order


@_value
class S3S4Invariant(metaclass=_Shared):
    """A manifold Sigma # N_v: the class sigma of Sigma in Z_28 and the
    bundle parameter v.  ``sigma`` may be given as a plain integer.  One
    value is shared per argument tuple (``cyclic._Shared``)."""

    __slots__ = ("sigma", "v")
    sigma: CyclicElement
    v: int

    def __init__(self, sigma: CyclicElement | int, v: int) -> None:
        if isinstance(sigma, int):
            sigma = _BP8_ELEMENTS[sigma % BP8.order]
        elif type(sigma) is not CyclicElement:
            raise TypeError(
                f"sigma must be an int or an element of {BP8}, "
                f"got {type(sigma).__name__}"
            )
        elif sigma.group.order != BP8.order:
            raise ValueError(f"sigma must lie in {BP8}, got {_shown_group(sigma.group)}")
        if type(v) is not int:
            v = _exact_int("v", v)
        self.__setstate__((sigma, v))


def s3s4_structure_equal(a: S3S4Invariant, b: S3S4Invariant) -> bool:
    """Same point of the structure set: equal v and sigma difference in
    the stabiliser of the d = v structures, <8 t_4 t_4 v> = <32 v>."""
    if a.v != b.v:
        return False
    g = _S3S4_STABILIZERS[a.v % BP8.order].generator_value
    return a.sigma.value % g == b.sigma.value % g


def s3s4_diffeomorphic(a: S3S4Invariant, b: S3S4Invariant) -> bool:
    """Diffeomorphic (orientation aside): v agrees up to sign and the
    sigma difference lies in the inertia group <2v>."""
    if a.v != b.v and a.v != -b.v:
        return False
    g = _S3S4_INERTIA[a.v % BP8.order].generator_value
    return a.sigma.value % g == b.sigma.value % g


def s3s4_inertia_group(v: int) -> CyclicSubgroup:
    """Inertia group of N_v: the subgroup <2v> of bP_8 = Z_28, whose
    order is 14 / gcd(14, v)."""
    if type(v) is not int:
        v = _exact_int("v", v)
    return _S3S4_INERTIA[v % BP8.order]


@_value
class WallTriple:
    """Wall classification data of a plumbing: hyperbolic intersection
    form, the tangential invariant on the standard basis, signature 0."""

    __slots__ = ("s_alpha_x", "s_alpha_y")
    s_alpha_x: int
    s_alpha_y: int

    def __init__(self, s_alpha_x: int, s_alpha_y: int) -> None:
        if type(s_alpha_x) is not int or type(s_alpha_y) is not int:
            s_alpha_x = _exact_int("s_alpha_x", s_alpha_x)
            s_alpha_y = _exact_int("s_alpha_y", s_alpha_y)
        self.__setstate__((s_alpha_x, s_alpha_y))


def wall_triple_of_plumbing(u: int, v: int) -> WallTriple:
    """Wall triple of W_{u,v}: Salpha is (24u, 24v) on the basis."""
    if type(u) is not int or type(v) is not int:
        u, v = _exact_int("u", u), _exact_int("v", v)
    return WallTriple(24 * u, 24 * v)


def plumbing_boundary_class(u: int, v: int) -> CyclicElement:
    """Class of the boundary sphere of W_{u,v} in bP_8 = Z_28: minus the
    surgery obstruction del(u, v), which is -4uv mod 28.  del is bilinear,
    so this is del(-u, v) = -del(u, v), read from del_map's cache."""
    if type(u) is not int or type(v) is not int:
        u, v = _exact_int("u", u), _exact_int("v", v)
    return _del_map(4, 4, -u, v)


@_value
class S4S4Manifold(metaclass=_Shared):
    """A closed manifold N_{u,v,phi} obtained by capping off W_{u,v}.

    Requires r | uv, where r = 7 is the residual order; otherwise the
    boundary sphere is exotic and no such closed manifold exists.  The
    twist phi is reduced mod 2.  One value is shared per argument tuple
    (``cyclic._Shared``).
    """

    __slots__ = ("u", "v", "phi")
    u: int
    v: int
    phi: int

    def __init__(self, u: int, v: int, phi: int) -> None:
        if type(u) is not int or type(v) is not int or type(phi) is not int:
            u, v, phi = _exact_int("u", u), _exact_int("v", v), _exact_int("phi", phi)
        if (u * v) % _S4S4_RESIDUAL != 0:
            raise ValueError(
                f"no closed manifold for (u, v) = ({_shown(u)}, {_shown(v)}): "
                "the plumbing boundary is an exotic sphere unless "
                f"{_S4S4_RESIDUAL} divides u*v"
            )
        self.__setstate__((u, v, phi % 2))


def s4s4_almost_diffeomorphic(a: S4S4Manifold, b: S4S4Manifold) -> bool:
    """Almost diffeomorphic: (u, v) pairs agree as unordered pairs up to
    a common sign; the twist phi plays no role here."""
    au, av, bu, bv = a.u, a.v, b.u, b.v
    return (
        (bu == au and bv == av)
        or (bu == av and bv == au)
        or (bu == -au and bv == -av)
        or (bu == -av and bv == -au)
    )


def s4s4_diffeomorphic(a: S4S4Manifold, b: S4S4Manifold) -> bool:
    """Diffeomorphic: matching twist and almost diffeomorphic."""
    return a.phi == b.phi and s4s4_almost_diffeomorphic(a, b)
