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

``theta_diff`` is a checked door over a bounded ``lru_cache`` core, as
``structset.del_map`` is over ``_del_map``: the door runs every check
first (the inline pair test of ``bp.check_pair``, then that u, v and w
are ``NormalClassDiff`` values, then their dimensions), and calls
``_theta_diff`` (1024 entries) with the pair and the three integer
coordinates.  The type test keeps the cache's keys plain ints: an
object that merely has ``dim`` and ``phi`` attributes, with a float phi,
would key like the int it equals.  So a warm call is one cache read
that hands out a shared frozen value
(``theta_diff(p, q, u, v, w) is theta_diff(p, q, u, v, w)``).  The core
evaluates the formula, taking 8 t_p t_q from the record of the pair in
``bp``, the one home of the obstruction, when ``bp``'s shape table names
the pair (4j, 4k), and 0 otherwise, and builds its class as a draft
(``cyclic._value``); ``structset.del_map`` is its image in
Z_{t_{p+q}}.  The composed route, the topological obstruction x*y + z
applied to the comparison images, gives the same class; it lives in
``tests/helpers.py`` as the reference the tests compare against.

A ``NormalClassDiff`` coordinate is a shared value too: its class is
``cyclic._Shared``, so ``NormalClassDiff(4, 3) is NormalClassDiff(4, 3)``,
and a repeated call is one builtin cache read.  ``LGroupKind``,
``LClass`` and ``NormalClassDiff`` check their dimension by the index
rule (``dim >= 0``), and an ``LGroupKind`` refuses a symbol other than
the one of its dimension.
"""

from __future__ import annotations

from functools import lru_cache

from . import _HOMES
from .bp import _RESIDUAL, _SHAPES, _residual_split, check_pair
from .cyclic import _Shared, _checked_index, _draft, _exact_int, _shown, _shown_repr, _value
from .levine import _t_multiple_of_4

__all__ = _HOMES["ltheory"]

_QUADRATIC = ("Z", "0", "Z/2", "0")


@_value
class LGroupKind:
    """An L-group in a fixed dimension, identified by its symbol."""

    __slots__ = ("dim", "symbol")
    dim: int
    symbol: str  # "Z" | "0" | "Z/2"

    def __init__(self, dim: int, symbol: str) -> None:
        if type(dim) is not int or dim < 0:
            dim = _checked_index("LGroupKind", "dim", dim, 0)
        canonical = _QUADRATIC[dim % 4]
        if symbol != canonical:
            raise ValueError(
                f"the L-group in dimension {_shown(dim)} is {canonical!r}, "
                f"got {_shown_repr(symbol)}"
            )
        self.__setstate__((dim, canonical))

    def __str__(self) -> str:
        return self.symbol


def l_group(i: int) -> LGroupKind:
    """The quadratic L-group in dimension i >= 0."""
    if type(i) is not int or i < 0:
        i = _checked_index("l_group", "i", i, 0)
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
        if type(dim) is not int or dim < 0:
            dim = _checked_index("LClass", "dim", dim, 0)
        if type(value) is not int:
            value = _exact_int("value", value)
        symbol = _QUADRATIC[dim % 4]
        if symbol == "0":
            value = 0
        elif symbol == "Z/2":
            value %= 2
        self.__setstate__((dim, value))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: LClass) -> LClass:
        if type(other) is not LClass:
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(
                f"cannot add L-classes of dimensions {_shown(self.dim)} and "
                f"{_shown(other.dim)}"
            )
        return LClass(self.dim, self.value + other.value)

    def __str__(self) -> str:
        return f"{self.value}*z_{self.dim}"


_LClassDraft = _draft(LClass)


@_value
class NormalClassDiff(metaclass=_Shared):
    """A smooth normal invariant of a sphere, reduced to its Z-coordinate.

    ``phi`` is the integer coordinate, meaningful only in dimensions
    divisible by 4 and normalised to 0 elsewhere.  One value is shared
    per argument tuple (``cyclic._Shared``).
    """

    __slots__ = ("dim", "phi")
    dim: int
    phi: int

    def __init__(self, dim: int, phi: int = 0) -> None:
        if type(dim) is not int or dim < 0:
            dim = _checked_index("NormalClassDiff", "dim", dim, 0)
        if type(phi) is not int:
            phi = _exact_int("phi", phi)
        self.__setstate__((dim, phi if dim % 4 == 0 else 0))


def theta_diff(
    p: int, q: int, u: NormalClassDiff, v: NormalClassDiff, w: NormalClassDiff
) -> LClass:
    """Surgery obstruction 8 t_p t_q phi_u phi_v + t_{p+q} phi_w of a
    smooth normal invariant (u, v, w) of S^p x S^q.  The answer is a
    shared value, cached per pair and coordinates."""
    # The test of check_pair, inlined for the common case: anything it
    # would reject, a bool too, goes to it for its error.
    if not (type(p) is int and type(q) is int and p >= 2 and q >= 2 and p + q >= 5):
        check_pair(p, q)
    if not (type(u) is type(v) is type(w) is NormalClassDiff):
        _check_coordinates(u, v, w)
    if u.dim != p or v.dim != q or w.dim != p + q:
        raise ValueError(
            f"coordinate dimensions must be ({_shown(p)}, {_shown(q)}, "
            f"{_shown(p + q)}), got ({_shown(u.dim)}, {_shown(v.dim)}, "
            f"{_shown(w.dim)})"
        )
    return _theta_diff(p, q, u.phi, v.phi, w.phi)


def _check_coordinates(u: object, v: object, w: object) -> None:
    # The slow branch behind theta_diff's type test: the first of u, v
    # and w that is not a NormalClassDiff is named.
    for name, x in (("u", u), ("v", v), ("w", w)):
        if type(x) is not NormalClassDiff:
            raise TypeError(f"{name} must be a NormalClassDiff, got {type(x).__name__}")


# The core of theta_diff, for the ints its door has checked; bounded, as
# structset._del_map is, because the coordinates are arbitrary.
@lru_cache(maxsize=1024)
def _theta_diff(p: int, q: int, phi_u: int, phi_v: int, phi_w: int) -> LClass:
    # 8 t_p t_q is 0 off the (4j, 4k) shape, and otherwise the record's
    # c, read before t_n so that a cap error names p or q first.  The
    # value is then canonical: it is 0 unless 4 divides n = p + q.
    n = p + q
    if _SHAPES[p & 3][q & 3] is not _RESIDUAL:
        value = _t_multiple_of_4(n) * phi_w if n % 4 == 0 else 0
    else:
        value = _residual_split(p, q)[0] * phi_u * phi_v + _t_multiple_of_4(n) * phi_w
    x = _LClassDraft()
    x.dim = n
    x.value = value
    x.__class__ = LClass
    return x
