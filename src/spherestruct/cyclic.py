"""Finite cyclic groups Z_n, their elements, and their subgroups.

The subgroup of Z_n generated by g equals the one generated by gcd(g, n),
so subgroups are stored by the canonical generator gcd(g mod n, n).  That
makes subgroup values compare equal exactly when they are the same
subgroup, which is what the classification predicates rely on.  The
canonical generator is always a positive divisor of n; the trivial
subgroup is stored with generator n itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import attrgetter

__all__ = [
    "CyclicGroup",
    "cyclic_group",
    "CyclicElement",
    "CyclicSubgroup",
    "subgroup_generated",
]


def _value(cls: type) -> type:
    """Make a slotted class a frozen value whose fields are its
    ``__slots__``, in order.

    It adds equality and hashing by the field tuple, a ``repr`` naming
    each field, ``__match_args__``, and pickling by a list of the fields
    (the state a frozen slotted dataclass pickles, so the bytes are the
    same), and it refuses to assign or delete any attribute.
    ``__setstate__`` is the one writer of a blank instance (pickle, copy
    and deepcopy call it) and refuses a built value with the text an
    assignment gets.  The class writes its own ``__init__``, which checks
    its arguments and passes the canonical fields to ``__setstate__``,
    so that ``__init__`` on a built value is refused too; a class that
    library calls build afresh writes through ``_slot_writers`` instead
    (see there).  A class
    keeps any of these methods it defines itself (``tables.GroupTable``
    does, so that a copy or a pickle passes its constructor).  It gets no
    base class: ``structset.present`` retypes a plain class with the
    same slots to a value, which CPython allows only with equal bases."""
    names = cls.__slots__
    first = names[0]
    get = attrgetter(*names)  # of one name, the bare value
    key = get if len(names) > 1 else lambda self: (get(self),)
    writers = _slot_writers(cls)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __getstate__(self):
        return list(key(self))

    def __setstate__(self, state):
        if hasattr(self, first):  # built: refused before any write
            raise AttributeError(f"cannot assign to field {first!r}")
        for write, value in zip(writers, state):
            write(self, value)

    for method in (__eq__, __hash__, __repr__, __getstate__, __setstate__):
        if method.__name__ not in vars(cls):
            setattr(cls, method.__name__, method)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__match_args__ = names
    return cls


def _refuse_assignment(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _slot_writers(cls: type) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    ``__setstate__`` writes through these after its guard, which reads
    the first slot; on a fresh build that slot is unset and the read
    raises, about 0.6-1.1 us more than two direct writes on a 2-field
    class.  So the six classes that library calls build afresh, each
    hundreds to thousands of times per benchmark round (``CyclicGroup``,
    ``CyclicElement``, ``ltheory.LClass`` and ``NormalClassDiff``,
    ``classify.S3S4Invariant`` and ``S4S4Manifold``), write each field
    once, already canonical, through these, bound right after the class
    body, and their ``__init__`` is not guarded.  A slot's own setter
    skips the name lookup through the class that ``object.__setattr__``
    repeats on every call.  Each call costs about 70 ns, so a wide class
    that one factory builds fills an unfrozen twin with the same
    ``__slots__`` by plain stores and retypes it once
    (``structset.present`` does)."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _reject_non_int(name: str, value: object) -> None:
    raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _exact_int(name: str, value: object) -> int:
    # The slow branch behind ``type(value) is not int``: a bool is stored
    # as the int it equals, so that it prints, serialises and caches as one.
    if not isinstance(value, int):
        _reject_non_int(name, value)
    return int(value)


@_value
class CyclicGroup:
    """The additive cyclic group Z_n; order 1 is the trivial group.

    Z_n is determined by n, so code that only needs to know whether two
    groups are the same compares their orders."""

    __slots__ = ("order",)
    order: int

    def __init__(self, order: int) -> None:
        if type(order) is not int:
            order = _exact_int("order", order)
        if order < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {order}")
        _set_order(self, order)

    def element(self, value: int) -> CyclicElement:
        return CyclicElement(self, value)

    def __str__(self) -> str:
        return "0" if self.order == 1 else f"Z_{self.order}"


(_set_order,) = _slot_writers(CyclicGroup)


def _check_group(name: str, group: object) -> None:
    # The slow branch behind ``type(group) is not CyclicGroup``.
    if not isinstance(group, CyclicGroup):
        raise TypeError(f"{name} must be a CyclicGroup, got {type(group).__name__}")


def cyclic_group(n: int) -> CyclicGroup:
    """The shared Z_n value: equal to ``CyclicGroup(n)``, built once per
    order and then reused (safe because the value is frozen).  A bool is
    turned into the int it equals and any other non-int is rejected
    before the cache, so that cyclic_group(True) is cyclic_group(1) and
    a float never reaches a key it equals."""
    if type(n) is not int:
        n = _exact_int("order", n)
    return _cyclic_group(n)


# The core of cyclic_group, for int orders; the package's own callers,
# which hold an int, call it directly.  Bounded because orders are
# arbitrary integers.
@lru_cache(maxsize=1024)
def _cyclic_group(n: int) -> CyclicGroup:
    return CyclicGroup(n)


@_value
class CyclicElement:
    """An element of Z_n, stored by its representative in 0..n-1."""

    __slots__ = ("group", "value")
    group: CyclicGroup
    value: int

    def __init__(self, group: CyclicGroup, value: int) -> None:
        if not isinstance(value, int):
            _reject_non_int("value", value)
        if type(group) is not CyclicGroup:
            _check_group("group", group)
        _set_group(self, group)
        _set_value(self, value % group.order)

    def _check_same_group(self, other: CyclicElement) -> None:
        if self.group.order != other.group.order:
            raise ValueError(
                f"elements live in different groups: {self.group} vs {other.group}"
            )

    def __add__(self, other: CyclicElement) -> CyclicElement:
        self._check_same_group(other)
        return CyclicElement(self.group, self.value + other.value)

    def __sub__(self, other: CyclicElement) -> CyclicElement:
        self._check_same_group(other)
        return CyclicElement(self.group, self.value - other.value)

    def __neg__(self) -> CyclicElement:
        return CyclicElement(self.group, -self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value} in {self.group}"


_set_group, _set_value = _slot_writers(CyclicElement)


@_value
class CyclicSubgroup:
    """A subgroup of Z_n, canonicalised to its generator gcd(g mod n, n)."""

    __slots__ = ("ambient", "generator_value")
    ambient: CyclicGroup
    generator_value: int

    def __init__(self, ambient: CyclicGroup, generator_value: int) -> None:
        if not isinstance(generator_value, int):
            _reject_non_int("generator_value", generator_value)
        if type(ambient) is not CyclicGroup:
            _check_group("ambient", ambient)
        n = ambient.order
        self.__setstate__((ambient, gcd(generator_value % n, n)))

    @property
    def order(self) -> int:
        return self.ambient.order // self.generator_value

    def contains(self, x: CyclicElement) -> bool:
        if x.group.order != self.ambient.order:
            raise ValueError(
                f"element of {x.group} tested against a subgroup of {self.ambient}"
            )
        return x.value % self.generator_value == 0

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        shown = self.generator_value % self.ambient.order
        return f"<{shown}> in {self.ambient}"


# Only ``_subgroup`` writes through these: its value is fresh and canonical.
_set_ambient, _set_generator_value = _slot_writers(CyclicSubgroup)


def subgroup_generated(n: int, g: int) -> CyclicSubgroup:
    """The subgroup of Z_n generated by g, i.e. (g mod n)Z_n."""
    if type(n) is not int:
        n = _exact_int("n", n)  # a bool n reaches the shared Z_n of its int
    if not isinstance(g, int):
        _reject_non_int("g", g)
    if n < 1:
        raise ValueError(f"ambient order must be >= 1, got {n}")
    return _subgroup(n, gcd(g % n, n))


@lru_cache(maxsize=1024)
def _subgroup(n: int, generator: int) -> CyclicSubgroup:
    # One shared value per subgroup, keyed by its canonical generator,
    # which is written as given: the caller has already reduced it.
    subgroup = object.__new__(CyclicSubgroup)
    _set_ambient(subgroup, _cyclic_group(n))
    _set_generator_value(subgroup, generator)
    return subgroup
