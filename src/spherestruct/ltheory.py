"""Surgery obstruction groups of the trivial group and their external product.

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
package's scope).  The surgery obstruction of a smooth normal invariant
(u, v, w) of a product of two spheres is then

    theta_diff(u, v, w) = 8 t_p t_q phi_u phi_v + t_{p+q} phi_w.

``theta_diff`` evaluates this formula directly, after its own checks,
taking 8 t_p t_q from ``bp``'s core of ``pairing_coefficient``, the one
home of the obstruction;
``structset.del_map`` is its image in Z_{t_{p+q}}.  The composed route,
the topological obstruction x*y + z applied to the comparison images,
gives the same class; it lives in ``tests/helpers.py`` as the reference
the tests compare against.
"""

from __future__ import annotations

from .bp import _pairing_coefficient, _t_multiple_of_4, check_pair
from .cyclic import _exact_int, _slot_writers, _value

__all__ = [
    "LGroupKind",
    "LClass",
    "NormalClassDiff",
    "l_group",
    "theta_diff",
]

_QUADRATIC = ("Z", "0", "Z/2", "0")


@_value
class LGroupKind:
    """An L-group in a fixed dimension, identified by its symbol."""

    __slots__ = ("dim", "symbol")
    dim: int
    symbol: str  # "Z" | "0" | "Z/2"

    def __init__(self, dim: int, symbol: str) -> None:
        self.__setstate__((dim, symbol))

    def __str__(self) -> str:
        return self.symbol


def l_group(i: int) -> LGroupKind:
    """The quadratic L-group in dimension i >= 0."""
    if type(i) is not int:
        i = _exact_int("i", i)
    if i < 0:
        raise ValueError(f"l_group(i) requires i >= 0, got {i}")
    return LGroupKind(i, _QUADRATIC[i % 4])


@_value
class LClass:
    """An element of the quadratic L-group in its dimension.

    The stored value is the coefficient of the generator z_dim; it is
    normalised on construction (anything in a zero group is 0, Z/2 values
    are reduced mod 2).
    """

    __slots__ = ("dim", "value")
    dim: int
    value: int

    def __init__(self, dim: int, value: int) -> None:
        if type(dim) is not int:
            dim = _exact_int("dim", dim)
        if type(value) is not int:
            value = _exact_int("value", value)
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


@_value
class NormalClassDiff:
    """A smooth normal invariant of a sphere, reduced to its Z-coordinate.

    ``phi`` is the integer coordinate, meaningful only in dimensions
    divisible by 4 and normalised to 0 elsewhere.
    """

    __slots__ = ("dim", "phi")
    dim: int
    phi: int

    def __init__(self, dim: int, phi: int = 0) -> None:
        if type(dim) is not int:
            dim = _exact_int("dim", dim)
        if type(phi) is not int:
            phi = _exact_int("phi", phi)
        _set_normal_dim(self, dim)
        _set_normal_phi(self, phi if dim % 4 == 0 else 0)


_set_normal_dim, _set_normal_phi = _slot_writers(NormalClassDiff)


def theta_diff(
    p: int, q: int, u: NormalClassDiff, v: NormalClassDiff, w: NormalClassDiff
) -> LClass:
    """Surgery obstruction 8 t_p t_q phi_u phi_v + t_{p+q} phi_w of a
    smooth normal invariant (u, v, w) of S^p x S^q."""
    check_pair(p, q)
    if u.dim != p or v.dim != q or w.dim != p + q:
        raise ValueError(
            f"coordinate dimensions must be ({p}, {q}, {p + q}), "
            f"got ({u.dim}, {v.dim}, {w.dim})"
        )
    n = p + q
    c = _pairing_coefficient(p, q)  # before t_n: a cap error names p or q first
    t_n = _t_multiple_of_4(n) if n % 4 == 0 else 0
    return LClass(n, c * u.phi * v.phi + t_n * w.phi)
