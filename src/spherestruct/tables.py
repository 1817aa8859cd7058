"""Reference orders for groups the calculator consumes but cannot derive.

Three families are tabulated:

* ``theta``          -- orders of the group of homotopy n-spheres,
* ``pi_go_torsion``  -- torsion of the n-th homotopy group of G/O,
* ``bp``             -- orders of the boundary-sphere groups bP_m for
                        m = 2 mod 4, each 1 or 2.  ``GroupTable.bp_order``
                        reads them for that residue, the only one with no
                        closed formula here: odd m and m = 4 are trivial,
                        and m = 4k is the Levine order t_m (``rationals``).

The shipped entries cover dimensions up to 20 and come from the standard
Kervaire-Milnor era tables; they are reference data, not computed by this
package.  The bp family ships only the entries forced by the theta data
(bP_6 and bP_14 must be trivial because they embed in groups of order 1
and 3).  The pi_go torsion entries are the ones determined by the theta
and bp data through the surgery sequence of the sphere, namely
|Theta_n| / |bP_{n+1}| for odd n and that times 2/|bP_n| for n = 2 mod 4,
plus the classical pi_2(G/O) = Z/2.  For n = 0 mod 4 the group splits as
Z x Theta_n, so the torsion is read off the theta family at lookup time.

Any dimension outside the shipped data is reported as unknown rather than
guessed.  A JSON file can override individual entries; see ``load_table``.

``GroupTable.__init__`` is the one gate into a table: the constructor,
keyword construction, ``parse_table``, ``copy``, ``deepcopy`` and
``pickle.loads`` all pass it.  It rejects a key that is not an int (a
bool too) or an entry that is not a ``KnownGroup`` (``TypeError``), then
applies the entry rules that ``parse_table`` applies to each JSON entry
and the Kervaire-Milnor chain check (``TableError``), and it stores
read-only views of its own copies, so tables are immutable once built.
The kind rule: every entry is ``finite`` or ``unknown``, because Theta_n
and bP_m are finite groups and a ``pi_go_torsion`` entry is a torsion
order, so a ``z_times_finite`` entry raises a ``TableError`` naming it.
A built table refuses ``__init__`` before it writes anything
(``AttributeError``, as a frozen dataclass does); ``copy``, ``deepcopy``
and ``pickle.loads`` start from a blank instance, so they still pass the
gate.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .cyclic import _exact_int, _reject_non_int, _slot_writers, _value
from .rationals import MAX_BERNOULLI_INDEX, _t_multiple_of_4

__all__ = [
    "KnownGroup",
    "GroupTable",
    "TableError",
    "TableReadError",
    "builtin_table",
    "theta_order",
    "pi_go",
    "parse_table",
    "load_table",
]


class TableError(ValueError):
    """Raised when a table file cannot be parsed, or when table data
    (parsed or hand-built) fails validation."""


class TableReadError(TableError):
    """Raised when a table file cannot be opened or read at all."""


@_value
class KnownGroup:
    """Order data for a group: finite of known order, Z x finite, or unknown.

    Only orders are recorded, not isomorphism types; a ``finite`` entry of
    order 8 says nothing about whether the group is cyclic.  ``unknown``
    is a legal state that propagates through every computation consuming
    it, never silently becoming 0 or 1.  The constructor rejects any
    other kind, an order that is not an int >= 1 for the two known kinds,
    and an order for ``unknown``.
    """

    __slots__ = ("kind", "order")
    kind: str  # "finite" | "z_times_finite" | "unknown"
    order: int | None  # group order, or torsion order for z_times_finite

    def __init__(self, kind: str, order: int | None = None) -> None:
        if kind == "unknown":
            if order is not None:
                raise ValueError(
                    f"an unknown group has no order, got {_shown_repr(order)}"
                )
        elif kind == "finite" or kind == "z_times_finite":
            if type(order) is not int:
                order = _exact_int("order", order)
            if order < 1:
                what = "finite group order" if kind == "finite" else "torsion order"
                raise ValueError(f"{what} must be >= 1, got {order}")
        else:
            raise ValueError(
                "group kind must be 'finite', 'z_times_finite' or 'unknown', "
                f"got {_shown_repr(kind)}"
            )
        self.__setstate__((kind, order))

    # finite and z_times_finite return one shared value per order.  They
    # reject a non-int and turn a bool into its int before the cache
    # (``_finite``, ``_z_times_finite``), so that no float is stored and
    # finite(True) is finite(1).

    @staticmethod
    def finite(order: int) -> KnownGroup:
        if type(order) is not int:
            order = _exact_int("order", order)
        return _finite(order)

    @staticmethod
    def trivial() -> KnownGroup:
        return _TRIVIAL

    @staticmethod
    def z_times_finite(torsion_order: int) -> KnownGroup:
        if type(torsion_order) is not int:
            torsion_order = _exact_int("torsion_order", torsion_order)
        return _z_times_finite(torsion_order)

    @staticmethod
    def unknown() -> KnownGroup:
        return _UNKNOWN

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    @property
    def is_trivial(self) -> bool:
        return self.kind == "finite" and self.order == 1

    def describe(self) -> str:
        if self.kind == "unknown":
            return "unknown"
        if self.kind == "z_times_finite":
            if self.order == 1:
                return "Z"
            return f"Z x (torsion order {self.order})"
        if self.order == 1:
            return "trivial"
        return f"finite of order {self.order}"

    def as_json(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "order": self.order}
        if self.kind == "z_times_finite":
            return {"kind": "z_times_finite", "torsion_order": self.order}
        return {"kind": "unknown"}


# Shared values behind KnownGroup.trivial() and KnownGroup.unknown(); safe
# to hand to every caller because KnownGroup is frozen.
_TRIVIAL = KnownGroup("finite", 1)
_UNKNOWN = KnownGroup("unknown", None)


# The cores of KnownGroup.finite and z_times_finite, for int orders; the
# constructor rejects an order below 1.  The caches are bounded because
# orders are arbitrary integers.
@lru_cache(maxsize=1024)
def _finite(order: int) -> KnownGroup:
    return KnownGroup("finite", order)


@lru_cache(maxsize=256)
def _z_times_finite(torsion_order: int) -> KnownGroup:
    return KnownGroup("z_times_finite", torsion_order)


# Orders of the homotopy-sphere groups Theta_n, n <= 20 (reference data).
_THETA_ORDERS: dict[int, int] = {
    1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 28, 8: 2, 9: 8, 10: 6,
    11: 992, 12: 1, 13: 3, 14: 2, 15: 16256, 16: 2, 17: 16, 18: 16,
    19: 523264, 20: 24,
}

# bP_m for m = 2 mod 4: only the entries forced by the theta orders above.
_BP_2MOD4_ORDERS: dict[int, int] = {6: 1, 14: 1}

# Torsion of pi_n(G/O) for n != 0 mod 4, where determined by the data
# above (see the module docstring); pi_2(G/O) = Z/2 is classical.
_PI_GO_TORSION: dict[int, int] = {
    2: 2, 3: 1, 5: 1, 6: 2, 7: 1, 11: 1, 13: 3, 14: 4, 15: 2, 19: 2,
}


_FAMILIES = ("theta", "pi_go_torsion", "bp")


@_value
class GroupTable:
    """Immutable bundle of the three order families, each a read-only view
    of the table's own copy, from a dimension to a ``KnownGroup`` (empty
    by default); the constructor is the gate of the module docstring.
    Lookups test ``n in family`` before ``family[n]``, which on a view
    costs what ``dict.get`` does on a miss, where ``.get`` costs more."""

    __slots__ = _FAMILIES
    theta: Mapping[int, KnownGroup]
    pi_go_torsion: Mapping[int, KnownGroup]
    bp: Mapping[int, KnownGroup]

    def __init__(
        self,
        theta: Mapping[int, KnownGroup] | None = None,
        pi_go_torsion: Mapping[int, KnownGroup] | None = None,
        bp: Mapping[int, KnownGroup] | None = None,
    ) -> None:
        if hasattr(self, "theta"):  # built: refused before any write
            raise AttributeError("cannot assign to field 'theta'")
        families = (theta, pi_go_torsion, bp)
        for write, family, entries in zip(_table_writers, _FAMILIES, families):
            write(self, MappingProxyType(_checked_family(family, entries)))
        _check_consistency(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={dict(getattr(self, name))!r}" for name in _FAMILIES)
        return f"GroupTable({shown})"

    # Pickled as plain dicts, the bytes of a table before its families were
    # read-only; a copy or an unpickled table passes the gate.

    def __getstate__(self) -> list[dict[int, KnownGroup]]:
        return [dict(getattr(self, name)) for name in _FAMILIES]

    def __setstate__(self, state: list | dict) -> None:
        if type(state) is dict:  # pickled while GroupTable had a __dict__
            state = [state[name] for name in _FAMILIES]
        GroupTable.__init__(self, *state)

    def theta_order(self, n: int) -> KnownGroup:
        """Order of Theta_n, or unknown: a plain lookup that checks
        nothing (the module's ``theta_order`` checks n)."""
        theta = self.theta
        return theta[n] if n in theta else _UNKNOWN

    def pi_go(self, n: int) -> KnownGroup:
        """Order data for pi_n(G/O); Z x torsion in the 4-periodic degrees.
        A plain lookup that checks nothing (the module's ``pi_go`` checks
        n)."""
        torsions = self.pi_go_torsion
        if n % 4 == 0 and n >= 4:
            torsion = torsions[n] if n in torsions else self.theta_order(n)
            if torsion.is_unknown:
                return _UNKNOWN
            return _z_times_finite(torsion.order)
        return torsions[n] if n in torsions else _UNKNOWN

    def bp_order(self, m: int) -> KnownGroup:
        """Order data for bP_m, m >= 4 (see the module docstring).  It
        rejects a non-int m before the cache of t_m, which would key 12.0
        as 12."""
        if type(m) is not int:
            m = _exact_int("m", m)
        if m % 2 == 1 or m == 4:
            return _TRIVIAL
        if m % 4 == 0:
            return _finite(_t_multiple_of_4(m))
        bp = self.bp
        return bp[m] if m in bp else _UNKNOWN


_table_writers = _slot_writers(GroupTable)


def _checked_family(family: str, entries: object) -> dict[int, KnownGroup]:
    # The gate's copy of one family, each entry checked.
    if entries is None:
        return {}
    if not isinstance(entries, Mapping):
        raise TypeError(f"{family} must be a mapping, got {type(entries).__name__}")
    checked = {}
    for dim, group in entries.items():
        if type(dim) is not int:  # a bool is an int, but not a dimension
            raise TypeError(
                f"{family}: dimension keys must be ints, got {_shown_repr(dim)}"
            )
        if type(group) is not KnownGroup:
            raise TypeError(
                f"{_entry(family, dim)}: expected a KnownGroup, "
                f"got {type(group).__name__}"
            )
        _check_dimension(family, dim, dim)
        if group.kind == "z_times_finite":
            raise TableError(
                f"{_entry(family, dim)}: entries must be finite or unknown, "
                "got z_times_finite"
            )
        if not group.is_unknown:
            _check_order(family, group.order, dim)
        checked[dim] = group
    return checked


def _reject_non_table(table: object) -> None:
    # A door's ``table`` is None (the built-in table) or a GroupTable.
    raise TypeError(f"table must be a GroupTable, got {type(table).__name__}")


def theta_order(n: int, table: GroupTable | None = None) -> KnownGroup:
    """Order of the group of homotopy n-spheres, n >= 1, or unknown."""
    if not isinstance(n, int):
        _reject_non_int("n", n)
    if n < 1:
        raise ValueError(f"theta_order(n) requires n >= 1, got {n}")
    if table is not None and not isinstance(table, GroupTable):
        _reject_non_table(table)
    return (table or _BUILTIN).theta_order(n)


def pi_go(n: int, table: GroupTable | None = None) -> KnownGroup:
    """Order data for pi_n(G/O), n >= 2."""
    if not isinstance(n, int):
        _reject_non_int("n", n)
    if n < 2:
        raise ValueError(f"pi_go(n) requires n >= 2, got {n}")
    if table is not None and not isinstance(table, GroupTable):
        _reject_non_table(table)
    return (table or _BUILTIN).pi_go(n)


class _LongInt:
    """A JSON integer with more digits than int() converts, kept so that
    the entry holding it can be named without echoing the digits."""

    __slots__ = ("digits",)

    def __init__(self, text: str) -> None:
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"<integer of {self.digits} digits>"


def _json_int(text: str) -> int | _LongInt:
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        return _LongInt(text)


def _too_long(what: str, digits: int) -> TableError:
    return TableError(f"{what} has {digits} digits, more than int() converts")


# Error messages show a number of up to this many digits, and name a longer
# one by its digit count, so a bad entry cannot flood the message.
_SHOWN_DIGITS = 100


def _shown(number: int | str) -> str:
    # ``number`` is an int or a string of ASCII digits.
    text = str(number)
    digits = len(text.lstrip("-"))
    if digits <= _SHOWN_DIGITS:
        return text
    sign = "-" if text.startswith("-") else ""
    return f"{sign}<integer of {digits} digits>"


def _shown_repr(value: object) -> str:
    # repr(value), or its type and length when that is longer than a number
    # ``_shown`` would print.
    text = repr(value)
    if len(text) <= _SHOWN_DIGITS:
        return text
    return f"<{type(value).__name__} of {len(text)} characters>"


def _decimal(text: str, what: str) -> int | None:
    # Plain ASCII digits only: int() would also accept signs, surrounding
    # whitespace, underscores ("7_0" -> 70) and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _too_long(what, len(text)) from None


def _entry(family: str, key: int | str) -> str:
    # An entry as errors name it; ``key`` is a dimension or its JSON key.
    return f"{family}[{_shown(key)}]"


# The entry rules: one home for the JSON entries of parse_table and for
# the gate of GroupTable.  ``key`` names the entry in an error.


def _check_dimension(family: str, dim: int, key: int | str) -> None:
    if dim < 1:
        raise TableError(f"{_entry(family, key)}: dimension must be >= 1")
    if family == "bp" and dim % 4 != 2:
        raise TableError(
            f"{_entry(family, key)}: only dimensions = 2 mod 4 are table entries "
            "(odd ones are trivial, multiples of 4 are computed)"
        )


def _check_order(family: str, order: int, key: int | str) -> None:
    # ``order`` is a known order, >= 1.
    if family == "bp" and order > 2:
        raise TableError(
            f"{_entry(family, key)}: |bP_{{4k+2}}| is 1 or 2, got {_shown(order)}"
        )


def _parse_entry(family: str, dim_key: str, value: object) -> tuple[int, KnownGroup]:
    dim = _decimal(dim_key, f"{family}: a dimension key")
    if dim is None:
        raise TableError(
            f"{family}: dimension keys must be decimal strings, "
            f"got {_shown_repr(dim_key)}"
        )
    _check_dimension(family, dim, dim_key)
    entry = _entry(family, dim_key)
    if value == "unknown":
        return dim, KnownGroup.unknown()
    if value == "Z":
        if family != "pi_go_torsion":
            raise TableError(
                f"{entry}: the marker 'Z' is only meaningful for "
                "pi_go_torsion (it denotes a free group with trivial torsion)"
            )
        return dim, _finite(1)
    if isinstance(value, str):
        order = _decimal(value, f"{entry}: the order")
    elif isinstance(value, int) and not isinstance(value, bool):  # bool is an int
        order = value
    elif isinstance(value, _LongInt):
        raise _too_long(f"{entry}: the order", value.digits)
    else:
        order = None
    if order is None:
        raise TableError(
            f"{entry}: expected a decimal order string, "
            f"'Z', or 'unknown'; got {_shown_repr(value)}"
        )
    if order < 1:
        raise TableError(f"{entry}: orders must be >= 1, got {_shown(order)}")
    _check_order(family, order, dim_key)
    return dim, _finite(order)


def _check_consistency(table: GroupTable) -> None:
    # The gate's chain check.  Kervaire-Milnor: bP_{n+1} is a subgroup of
    # Theta_n, so its order, whether a table entry or formula output,
    # divides every known |Theta_n|.
    for n, theta_group in sorted(table.theta.items()):
        m = n + 1
        past_cap = m % 4 == 0 and m > 4 * MAX_BERNOULLI_INDEX  # t_m not computable
        if theta_group.is_unknown or m < 4 or past_cap:
            continue
        bp_group = table.bp_order(m)
        if not bp_group.is_unknown and theta_group.order % bp_group.order != 0:
            bp_name, theta_name = f"bP_{_shown(m)}", f"Theta_{_shown(n)}"
            raise TableError(
                f"|{bp_name}| = {_shown(bp_group.order)} does not divide "
                f"|{theta_name}| = {_shown(theta_group.order)}; the table is "
                f"inconsistent with {bp_name} being a subgroup of {theta_name}"
            )


def _finite_map(orders: dict[int, int]) -> dict[int, KnownGroup]:
    return {n: _finite(k) for n, k in orders.items()}


# Built once the gate's checks exist; its chain check asks t of 8 to 20.
_BUILTIN = GroupTable(
    theta=_finite_map(_THETA_ORDERS),
    pi_go_torsion=_finite_map(_PI_GO_TORSION),
    bp=_finite_map(_BP_2MOD4_ORDERS),
)


def builtin_table() -> GroupTable:
    """The table shipped with the package (dimensions <= 20)."""
    return _BUILTIN


def _object_without_duplicates(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of two equal keys without a word.
    result: dict = {}
    for key, value in pairs:
        if key in result:
            raise TableError(
                f"table JSON has a duplicate key {_shown_repr(key)} in one object"
            )
        result[key] = value
    return result


def parse_table(text: str) -> GroupTable:
    """Parse override JSON and merge it over the built-in table.

    Empty input yields the built-ins unchanged.  Each family maps decimal
    dimension strings to a decimal order string, the marker ``"Z"`` (for
    pi_go_torsion only), or ``"unknown"``.  Entries replace the built-in
    entry for that dimension wholesale.  A key repeated in one JSON object,
    or two keys naming the same dimension (``"07"`` and ``"7"``), is an
    error, and so is an order that breaks the Kervaire-Milnor chain
    |bP_{n+1}| divides |Theta_n|, where bP_{n+1} comes from a table entry
    or from the order formula.  The merged table is built by the
    ``GroupTable`` constructor, which runs that chain check.
    """
    if not text.strip():
        return _BUILTIN
    import json  # only a table override needs it; keeps the import light

    try:
        raw = json.loads(
            text, object_pairs_hook=_object_without_duplicates, parse_int=_json_int
        )
    except json.JSONDecodeError as exc:
        raise TableError(
            f"table JSON is malformed at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError:  # json.loads recurses once per nesting level
        raise TableError("table JSON is nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise TableError("table file must contain a JSON object at top level")
    stray = sorted(set(raw) - set(_FAMILIES))
    if stray:
        raise TableError(
            f"unrecognised table keys {stray}; expected any of {list(_FAMILIES)}"
        )
    merged = {family: dict(getattr(_BUILTIN, family)) for family in _FAMILIES}
    for family in _FAMILIES:
        entries = raw.get(family)
        if entries is None:
            continue
        if not isinstance(entries, dict):
            raise TableError(f"{family}: expected an object of dimension entries")
        seen: dict[int, str] = {}
        for dim_key, value in entries.items():
            dim, group = _parse_entry(family, dim_key, value)
            if dim in seen:
                raise TableError(
                    f"{family}: keys {_shown(seen[dim])!r} and "
                    f"{_shown(dim_key)!r} both name dimension {_shown(dim)}"
                )
            seen[dim] = dim_key
            merged[family][dim] = group
    return GroupTable(**merged)


def load_table(path: str) -> GroupTable:
    """Read a JSON override file and merge it over the built-ins."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TableReadError(f"cannot read table file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TableError(f"table file {path!r} is not UTF-8 text: {exc}") from exc
    return parse_table(text)
