"""Finite cyclic groups Z_n, their elements, and their subgroups.

The subgroup of Z_n generated by g equals the one generated by gcd(g, n),
so subgroups are stored by the canonical generator gcd(g mod n, n).  That
makes subgroup values compare equal exactly when they are the same
subgroup, which is what the classification predicates rely on.  The
canonical generator is always a positive divisor of n; the trivial
subgroup is stored with generator n itself.

The module also holds the package's argument rules that every door
shares: ``_exact_int`` for an integer, ``_checked_class`` for a value
of one class, which refuses a subclass too and whose one form is
``<name> must be a <Class>, got <type>``, ``_checked_index`` for an
index's least value, whose one message form is
``<door>(<arg>) requires <arg> >= <least>, got <value>``,
``_past_cap`` for an index above a cap, whose one form is
``<door>(<arg>) requires <arg> <= <most><note>, got <value>``, and
``_checked_order`` for a group order, whose one form is
``<subject> must be >= 1, got <value>``.  Beside them is the one
display rule for a caller's value in a message:
``_shown`` prints a number of up to ``_SHOWN_DIGITS`` (100) digits in
full and names a longer one by its digit count, which it counts by
integer arithmetic, so a number past Python's int-to-str limit is named
too; ``_shown_repr`` does the same for a ``repr``, and ``_shown_group``
names Z_n through ``_shown``, so no message can be flooded by its
argument.  The rules above and every message that prints a caller's
integer or group go through them; ``CyclicGroup.__str__``, which the
CLI prints, stays in full.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import gcd
from operator import attrgetter

from . import _HOMES

__all__ = _HOMES["cyclic"]


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
    so that ``__init__`` on a built value is refused too.  A class keeps
    any of these methods it defines itself (``tables.GroupTable`` does,
    so that a copy or a pickle passes its constructor, and it sets
    ``__hash__`` to None, since its read-only views do not hash).

    The three classes that callers alone build (``ltheory.NormalClassDiff``,
    ``classify.S3S4Invariant`` and ``S4S4Manifold``) have the metaclass
    ``_Shared``: a call of the class is a read of one cache, so it hands
    out one shared value per argument tuple, and the constructor and its
    guard run only on a miss.

    A value that a library function builds is a draft instead: the
    function stores each field, already checked and canonical, into an
    instance of the class's ``_draft`` twin by plain slot stores, then
    sets its ``__class__`` to the value class once.  That skips the
    constructor's call and its guard, whose read of the first slot
    raises on every fresh build, and costs about half a guarded build;
    the retyped object is an ordinary frozen value.  Six builders work
    this way, each behind a door that has checked the fields: ``_group``
    and ``_subgroup`` (cache cores), ``_element`` (for element arithmetic
    and the cache core ``structset._del_map``), ``tables._known_group``
    (for the cache cores ``_finite`` and ``_z_times_finite``), the cache
    core ``ltheory._theta_diff`` and ``structset.present``.
    CPython allows the retype only between classes with the same slots
    and the same base, so a value class gets no base class."""
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
            _refuse_assignment(self, first, state)
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

    ``__setstate__`` writes through these after its guard, and so does
    ``tables.GroupTable.__init__`` after its own.  A slot's own setter
    skips the name lookup through the class that ``object.__setattr__``
    repeats on every call, but each call still costs more than a plain
    store into a draft; so no library function writes through one per
    op, and each builds a draft instead (see ``_value``)."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _draft(cls: type) -> type:
    """The method-less twin of a value class that ``_value`` describes:
    the same ``__slots__`` in the same order and no base class."""
    return type(f"_{cls.__name__}Draft", (), {"__slots__": cls.__slots__})


def _exact_int(name: str, value: object) -> int:
    # The package's one integer rule, the slow branch behind every door's
    # ``type(value) is not int``: a bool is taken as the int it equals, so
    # that it prints, serialises and caches as one, and any other non-int
    # is refused.
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return int(value)


def _checked_class(name: str, value: object, cls: type, what: str = "") -> object:
    # The package's one class rule, called directly or behind a door's
    # inline ``type(value) is not cls``: ``cls`` itself passes, and anything
    # else, a subclass too, is refused; ``what`` replaces "a <Class>".
    if type(value) is not cls:
        what = what or f"a {cls.__name__}"
        raise TypeError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def _built(cls: type, *args: object, **kwargs: object) -> object:
    # A miss of ``_shared``.  A bool argument is re-keyed as the int it
    # equals, so that both keys hold one value; otherwise the class's
    # guarded constructor checks the arguments and builds the value.
    if bool in map(type, (*args, *kwargs.values())):
        args = [_exact_int("", x) if type(x) is bool else x for x in args]
        kwargs = {k: _exact_int("", x) if type(x) is bool else x for k, x in kwargs.items()}
        return _shared(cls, *args, **kwargs)
    return type.__call__(cls, *args, **kwargs)


# The class call of a ``_Shared`` class: one C-level cache read on a hit.
# Typed, so that a float is refused on every call and never reads the
# entry of the int it equals.  An argument must hash: ``S3S4Invariant([1],
# 0)`` raises ``unhashable type: 'list'``.  The bound holds the distinct
# argument tuples of a working set such as the benchmark's classify-grid
# (about 2,450 per seed) with room to spare; past it, the least recently
# used value is dropped, and a later call builds an equal one.
_shared = lru_cache(maxsize=4096, typed=True)(_built)


class _Shared(type):
    """The metaclass of the value classes that only callers build: a call
    ``cls(*args)`` hands out one shared frozen value per argument tuple
    (see ``_shared``), as the library's cached doors do."""

    __call__ = _shared

    @property
    def __signature__(cls):
        # What help() and inspect show for a call of the class: the
        # parameters of its __init__, not the cache's (*args, **kwargs).
        from inspect import signature

        return signature(partial(cls.__init__, None))


# Error messages show a number of up to this many digits, and name a longer
# one by its digit count, so a caller's argument cannot flood the message.
_SHOWN_DIGITS = 100


def _shown(number: int | str) -> str:
    # ``number`` is an int, or ASCII digits after an optional "-".  An int
    # is measured by arithmetic: str() refuses one of more digits than
    # sys.get_int_max_str_digits().
    if isinstance(number, str):
        negative, digits = number.startswith("-"), len(number.lstrip("-"))
    else:
        # Counted up from a lower bound by the bit length, since
        # 0.30102999566 is just below log10(2); 0 counts as no digits.
        negative, size = number < 0, abs(number)
        digits = (size.bit_length() - 1) * 30102999566 // 10**11 + 1
        while size >= 10**digits:
            digits += 1
    if digits <= _SHOWN_DIGITS:
        return str(number)
    return f"{'-' if negative else ''}<integer of {digits} digits>"


def _shown_repr(value: object) -> str:
    # repr(value), or its type and length when that is longer than a number
    # ``_shown`` would print.
    text = repr(value)
    if len(text) <= _SHOWN_DIGITS:
        return text
    return f"<{type(value).__name__} of {len(text)} characters>"


def _checked_index(door: str, name: str, value: object, least: int) -> int:
    # The package's one range rule, the slow branch behind every index
    # door's ``type(value) is not int or value < least``: the integer
    # rule, then one message form for an index below its least value.
    value = _exact_int(name, value)
    if value < least:
        raise ValueError(
            f"{door}({name}) requires {name} >= {least}, got {_shown(value)}"
        )
    return value


def _past_cap(door: str, name: str, value: int, most: int, note: str) -> ValueError:
    # The package's one cap rule, the error behind every capped door's
    # ``value > most``; ``note`` says which cap it is.
    return ValueError(
        f"{door}({name}) requires {name} <= {most}{note}, got {_shown(value)}"
    )


@_value
class CyclicGroup:
    """The additive cyclic group Z_n; order 1 is the trivial group.

    Z_n is determined by n, so code that only needs to know whether two
    groups are the same compares their orders."""

    __slots__ = ("order",)
    order: int

    def __init__(self, order: int) -> None:
        self.__setstate__((_checked_order("order", "cyclic group order", order),))

    def element(self, value: int) -> CyclicElement:
        return CyclicElement(self, value)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        return "0" if self.order == 1 else f"Z_{self.order}"


def _shown_group(group: CyclicGroup) -> str:
    # str(group) by the display rule, for a message.
    return "0" if group.order == 1 else f"Z_{_shown(group.order)}"


def _checked_order(name: str, what: str, value: object) -> int:
    # The package's one order rule, the slow branch behind every order
    # door's ``type(value) is not int or value < 1``: the integer rule for
    # the argument ``name``, then "<what> must be >= 1".  CyclicGroup,
    # cyclic_group, subgroup_generated and tables.KnownGroup pass it.
    if type(value) is not int:
        value = _exact_int(name, value)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {_shown(value)}")
    return value



_GroupDraft = _draft(CyclicGroup)


def _group(n: int) -> CyclicGroup:
    # Z_n as a draft (see ``_value``), for an int n >= 1 that the caller
    # has checked.
    group = _GroupDraft()
    group.order = n
    group.__class__ = CyclicGroup
    return group


def cyclic_group(n: int) -> CyclicGroup:
    """The shared Z_n value: equal to ``CyclicGroup(n)``, built once per
    order and then reused (safe because the value is frozen).  A bool is
    turned into the int it equals, and any other non-int or an order
    below 1 is rejected before the cache, whose core builds Z_n as a
    draft (see ``_value``); so cyclic_group(True) is cyclic_group(1) and
    a float never reaches a key it equals."""
    if type(n) is not int or n < 1:
        n = _checked_order("order", "cyclic group order", n)
    return _cyclic_group(n)


# The core of cyclic_group, for int orders >= 1; the package's own
# callers, which hold one, call it directly.  Bounded because orders are
# arbitrary integers.
_cyclic_group = lru_cache(maxsize=1024)(_group)


@_value
class CyclicElement:
    """An element of Z_n, stored by its representative in 0..n-1."""

    __slots__ = ("group", "value")
    group: CyclicGroup
    value: int

    def __init__(self, group: CyclicGroup, value: int) -> None:
        if type(value) is not int:
            value = _exact_int("value", value)
        _checked_class("group", group, CyclicGroup)
        self.__setstate__((group, value % group.order))

    def _check_same_group(self, other: CyclicElement) -> None:
        if self.group.order != other.group.order:
            raise ValueError(
                "elements live in different groups: "
                f"{_shown_group(self.group)} vs {_shown_group(other.group)}"
            )

    def __add__(self, other: CyclicElement) -> CyclicElement:
        if type(other) is not CyclicElement:
            return NotImplemented
        self._check_same_group(other)
        group = self.group
        return _element(group, (self.value + other.value) % group.order)

    def __sub__(self, other: CyclicElement) -> CyclicElement:
        if type(other) is not CyclicElement:
            return NotImplemented
        self._check_same_group(other)
        group = self.group
        return _element(group, (self.value - other.value) % group.order)

    def __neg__(self) -> CyclicElement:
        group = self.group
        return _element(group, -self.value % group.order)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value} in {self.group}"


_ElementDraft = _draft(CyclicElement)


def _element(group: CyclicGroup, value: int) -> CyclicElement:
    # An element as a draft (see ``_value``): ``value`` is an int that the
    # caller has already reduced into 0..n-1.
    element = _ElementDraft()
    element.group = group
    element.value = value
    element.__class__ = CyclicElement
    return element


@_value
class CyclicSubgroup:
    """A subgroup of Z_n, canonicalised to its generator gcd(g mod n, n).

    ``as_dict`` is its form in the CLI's ``stabilizer`` answer, and its
    generator, shown as g mod n (0 for the trivial subgroup), is the one
    ``str`` prints."""

    __slots__ = ("ambient", "generator_value")
    ambient: CyclicGroup
    generator_value: int

    def __init__(self, ambient: CyclicGroup, generator_value: int) -> None:
        if type(generator_value) is not int:
            generator_value = _exact_int("generator_value", generator_value)
        _checked_class("ambient", ambient, CyclicGroup)
        n = ambient.order
        self.__setstate__((ambient, gcd(generator_value % n, n)))

    @property
    def order(self) -> int:
        return self.ambient.order // self.generator_value

    def contains(self, x: CyclicElement) -> bool:
        _checked_class("x", x, CyclicElement)
        if x.group.order != self.ambient.order:
            raise ValueError(
                f"element of {_shown_group(x.group)} tested against a subgroup "
                f"of {_shown_group(self.ambient)}"
            )
        return x.value % self.generator_value == 0

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def as_dict(self) -> dict:
        n = self.ambient.order
        return {"ambient_order": n, "generator": self.generator_value % n, "order": self.order}

    def __str__(self) -> str:
        return f"<{self.as_dict()['generator']}> in {self.ambient}"


_SubgroupDraft = _draft(CyclicSubgroup)


def subgroup_generated(n: int, g: int) -> CyclicSubgroup:
    """The subgroup of Z_n generated by g, i.e. (g mod n)Z_n."""
    if type(n) is not int:
        n = _exact_int("n", n)  # a bool n reaches the shared Z_n of its int
    if type(g) is not int:
        g = _exact_int("g", g)
    if n < 1:
        _checked_order("order", "cyclic group order", n)
    return _subgroup(n, gcd(g % n, n))


@lru_cache(maxsize=1024)
def _subgroup(n: int, generator: int) -> CyclicSubgroup:
    # One shared value per subgroup, keyed by its canonical generator,
    # which is stored as given: the caller has already reduced it.
    subgroup = _SubgroupDraft()
    subgroup.ambient = _cyclic_group(n)
    subgroup.generator_value = generator
    subgroup.__class__ = CyclicSubgroup
    return subgroup
