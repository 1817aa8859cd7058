"""Surgery obstruction groups of the trivial group and the product pairing.

The quadratic L-groups are 4-periodic: L_i = Z, 0, Z/2, 0 for i = 0, 1,
2, 3 mod 4.  Classes are stored as an integer coefficient of a fixed
generator z_i of L_i; the coefficient is normalised to 0 in the zero
groups and to {0, 1} in the Z/2 groups.

The external product L_p x L_q -> L_{p+q} vanishes unless both degrees
are divisible by 4, where it is multiplication by 8 on the integer
coefficients (signature-product conventions with the usual eighth).

Smooth normal invariants of a sphere enter through their integer
coordinate phi: the comparison map to topological normal invariants
multiplies phi by t_{4k} in degree 4k and is treated as zero elsewhere
(the Z/2-coordinate bookkeeping in degrees 2 mod 4 is outside this
package's scope).  The surgery obstructions of a product of two spheres
are then

    theta_top(x, y, z)  = x*y + z,
    theta_diff(u, v, w) = 8 t_p t_q phi_u phi_v + t_{p+q} phi_w

on topological and on smooth invariants respectively.  ``theta_diff``
evaluates its formula directly, taking 8 t_p t_q from
``bp.pairing_coefficient``, the one home of the obstruction;
``structset.del_map`` is its image in Z_{t_{p+q}}.  The composed route
theta_top(F(u), F(v), F(w)) through the comparison map F gives the same
class and is kept as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bp import check_pair, pairing_coefficient, t
from .cyclic import _slot_writers

__all__ = [
    "LGroupKind",
    "LClass",
    "NormalClassDiff",
    "l_group",
    "pairing",
    "theta_top",
    "forgetful_f",
    "theta_diff",
]

_QUADRATIC = ("Z", "0", "Z/2", "0")


@dataclass(frozen=True, slots=True)
class LGroupKind:
    """An L-group in a fixed dimension, identified by its symbol."""

    dim: int
    symbol: str  # "Z" | "0" | "Z/2"

    def __str__(self) -> str:
        return self.symbol


def l_group(i: int) -> LGroupKind:
    """The quadratic L-group in dimension i >= 0."""
    return LGroupKind(i, _QUADRATIC[i % 4])


@dataclass(frozen=True, slots=True, init=False)
class LClass:
    """An element of the quadratic L-group in its dimension.

    The stored value is the coefficient of the generator z_dim; it is
    normalised on construction (anything in a zero group is 0, Z/2 values
    are reduced mod 2).
    """

    dim: int
    value: int

    def __init__(self, dim: int, value: int) -> None:
        symbol = _QUADRATIC[dim % 4]
        if symbol == "0":
            value = 0
        elif symbol == "Z/2":
            value %= 2
        _set_lclass_dim(self, dim)
        _set_lclass_value(self, value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: LClass) -> LClass:
        if self.dim != other.dim:
            raise ValueError(
                f"cannot add L-classes of dimensions {self.dim} and {other.dim}"
            )
        return LClass(self.dim, self.value + other.value)

    def __str__(self) -> str:
        return f"{self.value}*z_{self.dim}"


# Constructors write each field once, already canonical (see ``cyclic``).
_set_lclass_dim, _set_lclass_value = _slot_writers(LClass)


@dataclass(frozen=True, slots=True, init=False)
class NormalClassDiff:
    """A smooth normal invariant of a sphere, reduced to its Z-coordinate.

    ``phi`` is the integer coordinate, meaningful only in dimensions
    divisible by 4 and normalised to 0 elsewhere.
    """

    dim: int
    phi: int = 0

    def __init__(self, dim: int, phi: int = 0) -> None:
        _set_normal_dim(self, dim)
        _set_normal_phi(self, phi if dim % 4 == 0 else 0)


_set_normal_dim, _set_normal_phi = _slot_writers(NormalClassDiff)


def pairing(p: int, q: int, x: LClass, y: LClass) -> LClass:
    """External product L_p x L_q -> L_{p+q}: 8*x*y when 4 | p and 4 | q,
    zero otherwise."""
    if x.dim != p or y.dim != q:
        raise ValueError(
            f"pairing dimension mismatch: expected ({p}, {q}), "
            f"got classes in ({x.dim}, {y.dim})"
        )
    if p % 4 == 0 and q % 4 == 0:
        return LClass(p + q, 8 * x.value * y.value)
    return LClass(p + q, 0)


def theta_top(p: int, q: int, x: LClass, y: LClass, z: LClass) -> LClass:
    """Surgery obstruction x*y + z of a topological normal invariant
    (x, y, z) of S^p x S^q."""
    check_pair(p, q)
    if z.dim != p + q:
        raise ValueError(
            f"third coordinate must live in dimension {p + q}, got {z.dim}"
        )
    return pairing(p, q, x, y) + z


def forgetful_f(u: NormalClassDiff) -> LClass:
    """Comparison map on normal invariants: multiplication by t_dim on the
    integer coordinate in dimensions divisible by 4, zero otherwise."""
    if u.dim % 4 == 0:
        return LClass(u.dim, t(u.dim) * u.phi)
    return LClass(u.dim, 0)


def theta_diff(
    p: int, q: int, u: NormalClassDiff, v: NormalClassDiff, w: NormalClassDiff
) -> LClass:
    """Surgery obstruction 8 t_p t_q phi_u phi_v + t_{p+q} phi_w of a
    smooth normal invariant (u, v, w) of S^p x S^q; the same class as
    theta_top applied to the comparison images."""
    check_pair(p, q)
    if u.dim != p or v.dim != q or w.dim != p + q:
        raise ValueError(
            f"coordinate dimensions must be ({p}, {q}, {p + q}), "
            f"got ({u.dim}, {v.dim}, {w.dim})"
        )
    return LClass(p + q, pairing_coefficient(p, q) * u.phi * v.phi + t(p + q) * w.phi)
