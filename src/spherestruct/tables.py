"""Reference orders for groups the calculator consumes but cannot derive,
and the orders the table derives from them.

Three families are tabulated:

* ``theta``          -- orders of the group of homotopy n-spheres,
* ``pi_go_torsion``  -- torsion of the n-th homotopy group of G/O,
* ``bp``             -- orders of the boundary-sphere groups bP_m for
                        m = 2 mod 4, m >= 6, each 1 or 2.  ``GroupTable.bp_order``
                        reads them for that residue, the only one with no
                        closed formula here: odd m and m = 4 are trivial,
                        and m = 4k is the Levine order t_m (``levine``).

The given entries of the built-in table are |Theta_n| for n <= 20, from
the standard Kervaire-Milnor era tables, and the classical
pi_2(G/O) = Z/2; they are reference data, not computed by this package.
Every other entry of a family is derived by the gate (below) from the
entries it is given, through the surgery sequence of the sphere
(Kervaire-Milnor, "Groups of homotopy spheres I", Ann. Math. 77, 1963):

* bP_{4k+2} is trivial wherever |Theta_{4k+1}| is known and odd, because
  |bP_{4k+2}| is 1 or 2 and divides it (so bP_6 and bP_14 are trivial);
* the torsion of pi_n(G/O), n >= 3, is |Theta_n| / |bP_{n+1}|, times
  2 / |bP_n| for n = 2 mod 4, where each factor is known (and t_{n+1}
  is below the cap); for n = 0 mod 4 that is |Theta_n|, and pi_n(G/O)
  is Z x torsion there.

A given entry wins over a derived one, in any family: a ``pi_go_torsion``
entry stands whatever the rule gives, and a ``bp`` entry, ``unknown``
too, stands over a forced trivial one.  ``parse_table`` merges an
override over the built-in table's given entries, not over its derived
ones, so an override of Theta or bP moves every order derived from it.

Any dimension outside the shipped data is reported as unknown rather than
guessed.  A JSON file can override individual entries; see ``load_table``.
The doors ``theta_order`` and ``pi_go`` and the method
``GroupTable.bp_order`` check their index by the package's one range
rule, ``cyclic._checked_index``, so they share its message form with
every other index door; ``GroupTable.theta_order`` and ``pi_go`` are
plain lookups.

``GroupTable.__init__`` is the one gate into a table and the one checker
of its entries: the constructor, keyword construction, ``parse_table``,
``copy``, ``deepcopy`` and ``pickle.loads`` all pass it.  It rejects a
key that is not an int (a bool too) or an entry that is not a
``KnownGroup`` (``TypeError``), then applies the entry rules (a dimension
>= 1, a ``bp`` dimension of 2 mod 4 and >= 4, a ``bp`` order of 1 or 2)
and the Kervaire-Milnor chain check (``TableError``), in whose one pass
over theta it derives the entries above.  It stores read-only views of
its own copies, given and derived entries together, so tables are
immutable once built, and a table's families passed back through the
gate derive nothing new: a copy equals its source.  A table does not
hash, as its views do not.
The kind rule: every entry is ``finite`` or ``unknown``, because Theta_n
and bP_m are finite groups and a ``pi_go_torsion`` entry is a torsion
order, so a ``z_times_finite`` entry raises a ``TableError`` naming it.
A built table refuses ``__init__`` before it writes anything
(``AttributeError``, as a frozen dataclass does); ``copy``, ``deepcopy``
and ``pickle.loads`` start from a blank instance, so they still pass the
gate.

``parse_table`` only reads, and leaves the checks to the gate.
``_decimal``, the package's one reader of a typed integer (the CLI's
arguments too), reads each key and order: an optional ``-`` and then
ASCII digits, a key unsigned.  A JSON number reaches it as its digit
text, so ``{"7": 28}`` and ``{"7": "28"}`` read alike.  The reader
refuses an order below 1, which no ``KnownGroup`` holds.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from . import _HOMES
from .cyclic import (
    _checked_class, _checked_index, _checked_order, _draft, _refuse_assignment, _shown,
    _shown_repr, _slot_writers, _value,
)
from .levine import MAX_BERNOULLI_INDEX, _t_multiple_of_4

__all__ = _HOMES["tables"]


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
            if type(order) is not int or order < 1:
                what = "finite group order" if kind == "finite" else "torsion order"
                order = _checked_order("order", what, order)
        else:
            raise ValueError(
                "group kind must be 'finite', 'z_times_finite' or 'unknown', "
                f"got {_shown_repr(kind)}"
            )
        self.__setstate__((kind, order))

    # finite and z_times_finite return one shared value per order.  They
    # reject a non-int and an order below 1 and turn a bool into its int
    # before the cache (``_finite``, ``_z_times_finite``), so that no
    # float or bad order is stored and finite(True) is finite(1).

    @staticmethod
    def finite(order: int) -> KnownGroup:
        if type(order) is not int or order < 1:
            order = _checked_order("order", "finite group order", order)
        return _finite(order)

    @staticmethod
    def trivial() -> KnownGroup:
        return _TRIVIAL

    @staticmethod
    def z_times_finite(torsion_order: int) -> KnownGroup:
        if type(torsion_order) is not int or torsion_order < 1:
            torsion_order = _checked_order(
                "torsion_order", "torsion order", torsion_order
            )
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

_KnownGroupDraft = _draft(KnownGroup)


def _known_group(kind: str, order: int) -> KnownGroup:
    # A KnownGroup as a draft (``cyclic._value``), so that a first call
    # of a cache core below runs no constructor and no guard.
    group = _KnownGroupDraft()
    group.kind = kind
    group.order = order
    group.__class__ = KnownGroup
    return group


# The cores of KnownGroup.finite and z_times_finite, for int orders >= 1,
# which their doors and the package's own callers have checked; order 1
# is the one trivial group, whatever the cache has evicted.  The caches
# are bounded because orders are arbitrary integers.
@lru_cache(maxsize=1024)
def _finite(order: int) -> KnownGroup:
    return _TRIVIAL if order == 1 else _known_group("finite", order)


@lru_cache(maxsize=256)
def _z_times_finite(torsion_order: int) -> KnownGroup:
    return _known_group("z_times_finite", torsion_order)


# Orders of the homotopy-sphere groups Theta_n, n <= 20 (reference data).
_THETA_ORDERS: dict[int, int] = {
    1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 28, 8: 2, 9: 8, 10: 6,
    11: 992, 12: 1, 13: 3, 14: 2, 15: 16256, 16: 2, 17: 16, 18: 16,
    19: 523264, 20: 24,
}

# pi_2(G/O) = Z/2, classical; no rule of the gate reaches n = 2.
_PI_GO_TORSION: dict[int, int] = {2: 2}


_FAMILIES = ("theta", "pi_go_torsion", "bp")


@_value
class GroupTable:
    """Immutable bundle of the three order families, each a read-only view
    of the table's own copy, from a dimension to a ``KnownGroup`` (empty
    by default); the constructor is the gate of the module docstring.
    Lookups test ``n in family`` before ``family[n]``, which on a view
    costs what ``dict.get`` does on a miss, where ``.get`` costs more."""

    __slots__ = _FAMILIES
    __hash__ = None  # its families are read-only views, which do not hash
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
            _refuse_assignment(self, "theta", theta)
        given = (theta, pi_go_torsion, bp)
        theta, torsions, bp = map(_checked_family, _FAMILIES, given)
        for write, entries in zip(_table_writers, (theta, torsions, bp)):
            write(self, MappingProxyType(entries))
        _check_consistency(self, torsions, bp)

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
        A plain lookup of the torsion, given or derived by the gate, that
        checks nothing (the module's ``pi_go`` checks n)."""
        torsions = self.pi_go_torsion
        torsion = torsions[n] if n in torsions else _UNKNOWN
        if n % 4 or torsion.is_unknown:
            return torsion
        return _z_times_finite(torsion.order)

    def bp_order(self, m: int) -> KnownGroup:
        """Order data for bP_m, m >= 4 (see the module docstring).  It
        rejects m as the module's ``bp_order`` does, before the cache of
        t_m, which would key 12.0 as 12 and store t_0 as a float."""
        if type(m) is not int or m < 4:
            m = _checked_index("bp_order", "m", m, 4)
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
        _check_dimension(family, dim)
        if group.kind == "z_times_finite":
            raise TableError(
                f"{_entry(family, dim)}: entries must be finite or unknown, "
                "got z_times_finite"
            )
        if not group.is_unknown:
            _check_order(family, dim, group.order)
        checked[dim] = group
    return checked


def _checked_table(table: object) -> GroupTable:
    # A door's ``table`` other than None (the built-in table): a GroupTable
    # itself, since a subclass could answer a lookup past the gate.
    return _checked_class("table", table, GroupTable)


def theta_order(n: int, table: GroupTable | None = None) -> KnownGroup:
    """Order of the group of homotopy n-spheres, n >= 1, or unknown."""
    if type(n) is not int or n < 1:
        n = _checked_index("theta_order", "n", n, 1)
    return (_BUILTIN if table is None else _checked_table(table)).theta_order(n)


def pi_go(n: int, table: GroupTable | None = None) -> KnownGroup:
    """Order data for pi_n(G/O), n >= 2."""
    if type(n) is not int or n < 2:
        n = _checked_index("pi_go", "n", n, 2)
    return (_BUILTIN if table is None else _checked_table(table)).pi_go(n)


def _decimal(text: str, what: str) -> int | None:
    # The package's one reader of a typed integer (argv, a table key or
    # order): an optional "-" and then ASCII digits, or None.  int() would
    # also accept "+", surrounding whitespace, underscores ("7_0" -> 70)
    # and non-ASCII digits.
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise TableError(
            f"{what} has {len(digits)} digits, more than int() converts"
        ) from None


def _entry(family: str, dim: int) -> str:
    # An entry as errors name it: by its dimension, not its JSON key.
    return f"{family}[{_shown(dim)}]"


# The entry rules of the gate, which checks every entry of every table.


def _check_dimension(family: str, dim: int) -> None:
    if dim < 1:
        raise TableError(f"{_entry(family, dim)}: dimension must be >= 1")
    if family == "bp" and dim % 4 != 2:
        raise TableError(
            f"{_entry(family, dim)}: only dimensions = 2 mod 4 are table entries "
            "(odd ones are trivial, multiples of 4 are computed)"
        )
    if family == "bp" and dim < 4:  # bP_2: bp_order refuses m < 4, so never read
        raise TableError(f"{_entry(family, dim)}: dimension must be >= 4")


def _check_order(family: str, dim: int, order: int) -> None:
    # ``order`` is a known order, >= 1.
    if family == "bp" and order > 2:
        raise TableError(
            f"{_entry(family, dim)}: |bP_{{4k+2}}| is 1 or 2, got {_shown(order)}"
        )


def _parse_entry(family: str, dim_key: str, value: object) -> tuple[int, KnownGroup]:
    # One JSON entry read, not checked: an unsigned decimal key, and a
    # value that becomes a KnownGroup ("unknown", "Z" or an order >= 1).
    # A JSON number arrives as its digit text (``parse_table``).
    dim = _decimal(dim_key, f"{family}: a dimension key") if dim_key.isdigit() else None
    if dim is None:
        raise TableError(
            f"{family}: dimension keys must be decimal strings, "
            f"got {_shown_repr(dim_key)}"
        )
    entry = _entry(family, dim)
    if value == "unknown":
        return dim, _UNKNOWN
    if value == "Z":
        if family != "pi_go_torsion":
            raise TableError(
                f"{entry}: the marker 'Z' is only meaningful for "
                "pi_go_torsion (it denotes a free group with trivial torsion)"
            )
        return dim, _TRIVIAL
    order = _decimal(value, f"{entry}: the order") if isinstance(value, str) else None
    if order is None:
        raise TableError(
            f"{entry}: expected a decimal order string, "
            f"'Z', or 'unknown'; got {_shown_repr(value)}"
        )
    if order < 1:
        _check_dimension(family, dim)  # a bad dimension is named first
        raise TableError(f"{entry}: orders must be >= 1, got {_shown(order)}")
    return dim, _finite(order)


def _check_consistency(table: GroupTable, torsions: dict, bp: dict) -> None:
    # The gate's chain check, which also adds to the table's own ``torsions``
    # and ``bp`` what it derives where they have no entry.  Kervaire-Milnor:
    # bP_{n+1} is a subgroup of Theta_n, so its order, whether a table entry
    # or formula output, divides every known |Theta_n|; so bP_{4k+2}, of
    # order 1 or 2, is trivial where |Theta_{4k+1}| is odd.  The surgery
    # sequence of S^n makes the torsion of pi_n(G/O) |Theta_n| / |bP_{n+1}|,
    # times 2 / |bP_n| for n = 2 mod 4.  Theta_n is read in increasing n,
    # so a forced bP_n is in place when Theta_n is read.
    for n, theta_group in sorted(table.theta.items()):
        m = n + 1
        past_cap = m % 4 == 0 and m > 4 * MAX_BERNOULLI_INDEX  # t_m not computable
        if theta_group.is_unknown or m < 4 or past_cap:
            continue
        if m % 4 == 2 and theta_group.order % 2:
            bp.setdefault(m, _TRIVIAL)
        bp_group = table.bp_order(m)
        if not bp_group.is_unknown and theta_group.order % bp_group.order != 0:
            bp_name, theta_name = f"bP_{_shown(m)}", f"Theta_{_shown(n)}"
            raise TableError(
                f"|{bp_name}| = {_shown(bp_group.order)} does not divide "
                f"|{theta_name}| = {_shown(theta_group.order)}; the table is "
                f"inconsistent with {bp_name} being a subgroup of {theta_name}"
            )
        # Off n = 2 mod 4 the factor 2 / |bP_n| is 1: |bP_n| stands in as 2.
        bp_n = table.bp_order(n) if n % 4 == 2 else _finite(2)
        if not (bp_group.is_unknown or bp_n.is_unknown):
            torsion = theta_group.order // bp_group.order * 2 // bp_n.order
            torsions.setdefault(n, _finite(torsion))


# The built-in table's given entries.  parse_table merges an override over
# these, not over the built-in families, so that no entry derived from a
# built-in order outvotes an override.
_GIVEN = {
    family: {n: _finite(order) for n, order in orders.items()}
    for family, orders in (("theta", _THETA_ORDERS), ("pi_go_torsion", _PI_GO_TORSION))
}

# Built once the gate's checks exist; its chain check asks t of 8 to 20.
_BUILTIN = GroupTable(**_GIVEN)


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
    """Parse override JSON and merge it over the built-in table's given
    entries; the gate then derives the rest (see the module docstring).

    Empty input yields the built-ins unchanged.  Each family present, even
    as ``null``, must be an object mapping decimal dimension strings to an
    order (a JSON number or a decimal string, read as the CLI reads an
    integer argument), the marker ``"Z"`` (for pi_go_torsion only), or
    ``"unknown"``; an absent family keeps its built-ins.  Entries replace
    the built-in entry for that dimension wholesale.  A key repeated in one
    JSON object, or two keys naming the same dimension (``"07"`` and
    ``"7"``), is an error, and so is an order that breaks the
    Kervaire-Milnor chain |bP_{n+1}| divides |Theta_n|, where bP_{n+1}
    comes from a table entry or from the order formula.  The merged table
    is built by the ``GroupTable`` constructor, which runs that chain
    check.
    """
    if not text.strip():
        return _BUILTIN
    import json  # only a table override needs it; keeps the import light

    try:
        raw = json.loads(
            text, object_pairs_hook=_object_without_duplicates, parse_int=str
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
    merged = {family: dict(_GIVEN.get(family, {})) for family in _FAMILIES}
    for family in _FAMILIES:
        if family not in raw:
            continue
        entries = raw[family]
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
