import argparse
import json
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestruct import (
    MAX_BERNOULLI_INDEX,
    GroupTable,
    KnownGroup,
    bp_order,
    builtin_table,
    parse_table,
    load_table,
    pi_go,
    t,
    theta_order,
)
from spherestruct.cli import _integer
from spherestruct.cyclic import _shown, _shown_repr
from spherestruct.tables import TableError

from helpers import surgery_bp_order, surgery_pi_go


def test_theta_builtin_values():
    assert theta_order(7) == KnownGroup.finite(28)
    assert theta_order(8) == KnownGroup.finite(2)
    assert theta_order(6) == KnownGroup.finite(1)
    assert theta_order(11) == KnownGroup.finite(992)
    assert theta_order(15) == KnownGroup.finite(16256)
    assert theta_order(19) == KnownGroup.finite(523264)
    assert theta_order(20) == KnownGroup.finite(24)
    assert theta_order(21).is_unknown
    assert theta_order(25).is_unknown


# The torsion of pi_n(G/O), n != 0 mod 4, that the built-in table once
# typed by hand, and the torsion |Theta_n| that it read for n = 0 mod 4;
# the gate now derives all of them but pi_2 = Z/2.
_TYPED_PI_GO_TORSION = {2: 2, 3: 1, 5: 1, 6: 2, 7: 1, 11: 1, 13: 3, 14: 4, 15: 2, 19: 2}
_THETA_TORSION = {4: 1, 8: 2, 12: 1, 16: 2, 20: 24}


def test_pi_go_values():
    # Every degree up to 20 answers as it did when the torsions were
    # typed: unknown only where bP_10 or bP_18 is a factor.
    for n in range(2, 21):
        if n in _TYPED_PI_GO_TORSION:
            expected = KnownGroup.finite(_TYPED_PI_GO_TORSION[n])
        elif n in _THETA_TORSION:
            expected = KnownGroup.z_times_finite(_THETA_TORSION[n])
        else:
            assert n in (9, 10, 17, 18)
            expected = KnownGroup.unknown()
        assert pi_go(n) == expected, n
    assert pi_go(24).is_unknown  # theta unknown above 20


def test_pi_go_torsion_matches_sphere_surgery_derivation():
    # For odd n the torsion is |Theta_n| / |bP_{n+1}|; for n = 2 mod 4 it
    # gains the factor 2 / |bP_n|.  Check every shipped entry above the
    # classical n = 2 against that derivation.
    table = builtin_table()

    def bp_int(m):
        return table.bp_order(m).order

    for n, entry in table.pi_go_torsion.items():
        if n == 2:
            assert entry == KnownGroup.finite(2)
            continue
        theta = table.theta_order(n).order
        bp_next = bp_int(n + 1)
        assert bp_next is not None, n
        expected = theta // bp_next
        if n % 4 == 2:
            expected *= 2 // bp_int(n)
        assert entry == KnownGroup.finite(expected), n


def test_bp_family_builtin_forced_entries():
    assert bp_order(6) == KnownGroup.trivial()
    assert bp_order(14) == KnownGroup.trivial()
    assert bp_order(10).is_unknown
    assert bp_order(18).is_unknown


def test_known_group_validation_and_describe():
    with pytest.raises(ValueError):
        KnownGroup.finite(0)
    with pytest.raises(ValueError):
        KnownGroup.z_times_finite(-1)
    assert KnownGroup.trivial().describe() == "trivial"
    assert KnownGroup.finite(28).describe() == "finite of order 28"
    assert KnownGroup.z_times_finite(1).describe() == "Z"
    assert KnownGroup.z_times_finite(2).describe() == "Z x (torsion order 2)"
    assert KnownGroup.unknown().describe() == "unknown"
    assert KnownGroup.unknown().as_json() == {"kind": "unknown"}


def test_parse_empty_text_gives_builtins():
    assert parse_table("") is builtin_table()
    assert parse_table("   \n") is builtin_table()


def test_parse_override_replaces_entry():
    table = parse_table('{"theta": {"9": "8"}}')
    assert table.theta_order(9) == KnownGroup.finite(8)
    table = parse_table('{"theta": {"21": "1"}}')
    assert table.theta_order(21) == KnownGroup.finite(1)
    # untouched entries survive the merge
    assert table.theta_order(7) == KnownGroup.finite(28)


def test_parse_unknown_and_z_markers():
    table = parse_table('{"theta": {"9": "unknown"}, "pi_go_torsion": {"9": "Z"}}')
    assert table.theta_order(9).is_unknown
    assert table.pi_go(9) == KnownGroup.finite(1)


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(TableError, match=r"line 1"):
        parse_table("{not json")


def test_parse_rejects_json_nested_past_the_recursion_limit():
    # json.loads raises RecursionError, not JSONDecodeError, for deep
    # nesting; parse_table reports it without raising the process-wide limit.
    limit = sys.getrecursionlimit()
    with pytest.raises(TableError) as caught:
        parse_table("[" * 100000)
    assert str(caught.value) == "table JSON is nested too deeply to parse"
    assert caught.value.__cause__ is None and caught.value.__suppress_context__
    assert sys.getrecursionlimit() == limit


def test_parse_rejects_bad_structure():
    with pytest.raises(TableError, match="top level"):
        parse_table("[1, 2]")
    with pytest.raises(TableError, match="unrecognised"):
        parse_table('{"thetas": {}}')
    # A family that is present must be an object: null is not an absent one.
    for family, value in (("theta", "5"), ("theta", "null"), ("bp", "null")):
        with pytest.raises(
            TableError, match=f"^{family}: expected an object of dimension entries$"
        ):
            parse_table(f'{{"{family}": {value}}}')
    with pytest.raises(TableError, match="dimension keys"):
        parse_table('{"theta": {"seven": "28"}}')
    with pytest.raises(TableError, match="decimal order"):
        parse_table('{"theta": {"9": "eight"}}')
    with pytest.raises(TableError, match="only meaningful"):
        parse_table('{"theta": {"9": "Z"}}')
    with pytest.raises(TableError, match="orders must be >= 1"):
        parse_table('{"theta": {"9": "0"}}')
    with pytest.raises(TableError, match="2 mod 4"):
        parse_table('{"bp": {"12": "3"}}')


def test_parse_rejects_divisibility_violation():
    # bP_{n+1} is a subgroup of Theta_n, whether its order is a table
    # entry or formula output.
    with pytest.raises(TableError, match=r"\|bP_10\| = 2 does not divide \|Theta_9\| = 3"):
        parse_table('{"bp": {"10": "2"}, "theta": {"9": "3"}}')
    with pytest.raises(TableError, match=r"\|bP_8\| = 28 does not divide \|Theta_7\| = 3"):
        parse_table('{"theta": {"7": "3"}}')
    with pytest.raises(TableError, match=r"\|bP_12\| = 992 does not divide"):
        parse_table('{"theta": {"11": "496"}}')
    table = parse_table('{"bp": {"10": "2"}}')  # 2 divides |Theta_9| = 8: fine
    assert bp_order(10, table) == KnownGroup.finite(2)
    assert parse_table('{"theta": {"7": "56"}}').theta_order(7) == KnownGroup.finite(56)


def test_chain_check_near_the_bernoulli_cap():
    # |bP_n| at the cap is named in the error by its digit count; past the
    # cap the link is not checked, so the entry loads instead of failing
    # on str().
    top = 4 * MAX_BERNOULLI_INDEX
    digits = len(str(t(top)))
    with pytest.raises(TableError, match=f"bP_{top}\\| = <integer of {digits} digits> "):
        parse_table(f'{{"theta": {{"{top - 1}": "5"}}}}')
    for n in (top + 3, 3999):
        assert theta_order(n, parse_table(f'{{"theta": {{"{n}": "5"}}}}')).order == 5


def test_parse_rejects_impossible_bp_2mod4_orders():
    # bP_{4k+2} is 0 or Z/2 (Kervaire-Milnor), so no other order is possible.
    for order in ("3", "4", "8"):
        with pytest.raises(TableError, match="is 1 or 2"):
            parse_table('{"bp": {"10": "%s"}}' % order)
    for order in ("1", "2", "unknown"):
        parse_table('{"bp": {"10": "%s"}}' % order)


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"theta": {"21": "3"}}', encoding="utf-8")
    table = load_table(str(path))
    assert table.theta_order(21) == KnownGroup.finite(3)
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    assert load_table(str(empty)) is builtin_table()
    with pytest.raises(TableError, match="cannot read"):
        load_table(str(tmp_path / "missing.json"))


def test_load_table_refuses_a_bp_entry_below_4(tmp_path):
    # bp_order refuses m < 4, so an entry there could never be read.
    path = tmp_path / "table.json"
    path.write_text('{"bp": {"2": "2"}}', encoding="utf-8")
    with pytest.raises(TableError, match=r"^bp\[2\]: dimension must be >= 4$"):
        load_table(str(path))


def test_parse_rejects_boolean_order():
    # bool is a subclass of int, so JSON true must be caught explicitly.
    with pytest.raises(TableError, match="decimal order"):
        parse_table('{"theta": {"7": true}}')
    with pytest.raises(TableError, match="decimal order"):
        parse_table('{"pi_go_torsion": {"5": false}}')


def test_parse_accepts_only_plain_decimal_digits():
    # int() would read "7_0" as 70 and " 7" or "+7" as 7.
    for key in ("7_0", " 7", "+7", "-7", "٧", ""):
        with pytest.raises(TableError, match="dimension keys"):
            parse_table('{"theta": {%s: "28"}}' % json.dumps(key))
    for value in ("2_8", " 28", "+28"):
        with pytest.raises(TableError, match="decimal order"):
            parse_table('{"theta": {"7": %s}}' % json.dumps(value))


def test_parse_rejects_colliding_dimension_keys():
    # "07" and "7" name the same dimension; neither may silently win.
    with pytest.raises(TableError, match="both name dimension 7"):
        parse_table('{"theta": {"07": "3", "7": "28"}}')
    with pytest.raises(TableError, match="both name dimension 10"):
        parse_table('{"bp": {"10": "2", "010": "2"}}')


def test_parse_rejects_duplicate_json_keys():
    with pytest.raises(TableError, match="duplicate key '7'"):
        parse_table('{"theta": {"7": "3", "7": "28"}}')
    with pytest.raises(TableError, match="duplicate key 'theta'"):
        parse_table('{"theta": {"7": "28"}, "theta": {"9": "8"}}')


_LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"theta": {"7": "%s"}}' % _LONG, "theta[7]: the order has 5000 digits"),
        ('{"theta": {"7": %s}}' % _LONG, "theta[7]: the order has 5000 digits"),
        ('{"theta": {"7": -%s}}' % _LONG, "theta[7]: the order has 5000 digits"),
        ('{"bp": {"%s": "1"}}' % _LONG, "bp: a dimension key has 5000 digits"),
        # A JSON number is read as its digit text, so one in a list is
        # shown as the list's text.
        ('{"theta": {"7": [%s]}}' % _LONG, "got <list of 5004 characters>"),
    ],
    ids=["order-string", "json-integer", "negative-json-integer", "dimension-key",
         "integer-in-a-list"],
)
def test_parse_rejects_numbers_too_long_to_convert(text, message):
    with pytest.raises(TableError) as info:
        parse_table(text)
    assert message in str(info.value)
    assert len(str(info.value)) < 200  # the digits are not echoed


_NEAR = "9" * 4000  # int() converts it, but a message should not echo it
_NEAR_LABEL = "<integer of 4000 digits>"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"bp": {"%s": "1"}}' % _NEAR,
         f"bp[{_NEAR_LABEL}]: only dimensions = 2 mod 4 are table entries"),
        ('{"theta": {"%s": "0"}}' % _NEAR,
         f"theta[{_NEAR_LABEL}]: orders must be >= 1, got 0"),
        ('{"theta": {"7": %s}}' % _NEAR,
         f"|bP_8| = 28 does not divide |Theta_7| = {_NEAR_LABEL};"),
        ('{"theta": {"7": "%s"}}' % _NEAR,
         f"|bP_8| = 28 does not divide |Theta_7| = {_NEAR_LABEL};"),
        ('{"theta": {"7": -%s}}' % _NEAR,
         f"theta[7]: orders must be >= 1, got -{_NEAR_LABEL}"),
        ('{"bp": {"10": %s}}' % _NEAR,
         f"bp[10]: |bP_{{4k+2}}| is 1 or 2, got {_NEAR_LABEL}"),
        ('{"theta": {"%s": "0"}}' % ("0" * 4000), "theta[0]: dimension must be >= 1"),
        ('{"theta": {"0%s": "3", "%s": "3"}}' % (_NEAR, _NEAR),
         "theta: keys '<integer of 4001 digits>' and "
         f"'{_NEAR_LABEL}' both name dimension {_NEAR_LABEL}"),
        ('{"bp": {"%s8": "2"}, "theta": {"%s7": "3"}}' % (_NEAR[1:], _NEAR[1:]),
         f"|bP_{_NEAR_LABEL}| = 2 does not divide |Theta_{_NEAR_LABEL}| = 3;"),
        ('{"theta": {"-%s": "3"}}' % _NEAR,
         "theta: dimension keys must be decimal strings, got <str of 4003 characters>"),
        ('{"theta": {"%s": "3", "%s": "3"}}' % (_NEAR, _NEAR),
         "table JSON has a duplicate key <str of 4002 characters> in one object"),
        ('{"theta": {"7": [%s]}}' % _NEAR,
         "theta[7]: expected a decimal order string, 'Z', or 'unknown'; "
         "got <list of 4004 characters>"),
    ],
    ids=["bp-dimension-key", "theta-dimension-key", "chain-check-json-integer",
         "chain-check-order-string", "negative-order", "bp-order", "zero-key",
         "colliding-keys", "chain-check-dimensions", "signed-key",
         "duplicate-key", "integer-in-a-list"],
)
def test_numbers_under_the_conversion_limit_are_not_echoed(text, message):
    # Named by their digit count, as numbers past the limit already are.
    with pytest.raises(TableError) as info:
        parse_table(text)
    assert message in str(info.value)
    assert len(str(info.value)) < 300


def test_numbers_of_up_to_100_digits_are_echoed():
    shown = "9" * 100
    with pytest.raises(TableError, match=f"\\|Theta_7\\| = {shown};"):
        parse_table('{"theta": {"7": "%s"}}' % shown)
    with pytest.raises(TableError, match=r"\|Theta_7\| = <integer of 101 digits>;"):
        parse_table('{"theta": {"7": "%s"}}' % ("9" * 101))


def test_a_group_table_is_a_frozen_slotted_value():
    empty = GroupTable()
    assert empty.theta == empty.pi_go_torsion == empty.bp == {}
    assert GroupTable().theta is not empty.theta  # a new dict per table
    assert empty == GroupTable()
    assert repr(empty) == "GroupTable(theta={}, pi_go_torsion={}, bp={})"
    assert not hasattr(empty, "__dict__")
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'theta'$"):
        empty.theta = {}
    table = builtin_table()
    fields = {name: getattr(table, name) for name in GroupTable.__slots__}
    assert GroupTable(**fields) == table
    assert pickle.loads(pickle.dumps(table)) == table
    # A table pickled while GroupTable had a __dict__ stored its fields
    # by name; it loads as the same table.
    old = (
        b"\x80\x04\x95x\x00\x00\x00\x00\x00\x00\x00\x8c\x13spherestruct.tables"
        b"\x94\x8c\nGroupTable\x94\x93\x94)\x81\x94}\x94(\x8c\x05theta\x94}\x94K"
        b"\x07h\x00\x8c\nKnownGroup\x94\x93\x94)\x81\x94]\x94(\x8c\x06finite\x94K"
        b"\x1cebs\x8c\rpi_go_torsion\x94}\x94\x8c\x02bp\x94}\x94ub."
    )
    assert pickle.loads(old) == GroupTable(theta={7: KnownGroup.finite(28)})


def test_duplicate_key_error_survives_long_integers():
    with pytest.raises(TableError, match="duplicate key '7'"):
        parse_table('{"theta": {"7": %s, "7": "28"}}' % _LONG)


# Integer texts: any int, "-0", leading zeros (a JSON string and argv
# take them, JSON numbers do not), and numbers of more digits than int()
# converts, either sign.  Junk: texts outside the grammar of an optional
# "-" and then ASCII digits, none of them a table marker.
_INT_TEXTS = st.one_of(
    st.integers().map(str),
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})", fullmatch=True),
    st.from_regex(r"-?0[0-9]{1,5}", fullmatch=True),
    st.builds(
        lambda sign, lead, zeros: sign + lead + "0" * zeros,
        st.sampled_from(["", "-"]), st.sampled_from("123456789"),
        st.integers(4250, 5000),
    ),
)
_JUNK = st.one_of(
    st.sampled_from(["+5", "1_6", " 5", "5 ", "\u0667", "", "-", "--5", "5-", "1e3"]),
    st.text().filter(
        lambda text: not re.fullmatch(r"-?[0-9]+", text) and text not in ("Z", "unknown")
    ),
)
_JSON_INTEGER = re.compile(r"-?(0|[1-9][0-9]*)")


def _argv_reading(text):
    try:
        return _integer(text)
    except argparse.ArgumentTypeError as exc:
        return str(exc)


def _order_reading(order_json):
    # The order of theta[21] in a table that gives it, or the refusal.
    try:
        table = parse_table('{"theta": {"21": %s}}' % order_json)
    except TableError as exc:
        return str(exc)
    return table.theta_order(21).order


@settings(max_examples=200, deadline=None)
@given(st.one_of(_INT_TEXTS, _JUNK))
def test_argv_and_both_json_spellings_of_an_order_read_alike(text):
    # One reader, tables._decimal, behind an argv integer, an order written
    # as a JSON string and (where the text is a JSON number) the same order
    # written as a JSON number: the same value, or the same refusal.
    argv = _argv_reading(text)
    if isinstance(argv, int):
        expected = argv if argv >= 1 else (
            f"theta[21]: orders must be >= 1, got {_shown(argv)}"
        )
    elif re.fullmatch(r"-?[0-9]+", text):  # more digits than int() converts
        assert argv == f"invalid int value: {_shown(text)}"
        digits = len(text.removeprefix("-"))
        expected = f"theta[21]: the order has {digits} digits, more than int() converts"
    else:
        assert argv == f"invalid int value: {_shown_repr(text)}"
        expected = (
            "theta[21]: expected a decimal order string, 'Z', or 'unknown'; "
            f"got {_shown_repr(text)}"
        )
    assert _order_reading(json.dumps(text)) == expected
    if _JSON_INTEGER.fullmatch(text):
        assert _order_reading(text) == expected


def test_shared_known_group_constants_are_frozen():
    assert KnownGroup.unknown() is KnownGroup.unknown()
    assert KnownGroup.trivial() is KnownGroup.trivial()
    for group in (KnownGroup.unknown(), KnownGroup.trivial()):
        with pytest.raises(AttributeError, match=r"^cannot assign to field 'order'$"):
            group.order = 5
    assert KnownGroup.unknown().as_json() == {"kind": "unknown"}
    assert KnownGroup.trivial() == KnownGroup.finite(1)
    # a lookup that misses returns the shared unknown value
    assert builtin_table().theta_order(99) is KnownGroup.unknown()


_ORDER = st.integers(min_value=1, max_value=10**30)


def _chain_factor(n: int) -> int:
    # A theta order that is a multiple of this keeps the chain
    # |bP_{n+1}| divides |Theta_n| for any bp entry the strategy writes.
    m = n + 1
    if m % 4 == 0 and m >= 8:
        return t(m)
    return 2 if m % 4 == 2 else 1


@st.composite
def _overrides(draw):
    """A valid override table: theta orders keep the Kervaire-Milnor chain
    and bp entries avoid 6 and 14, which the built-in theta data forces
    to be trivial."""
    theta = draw(st.dictionaries(
        st.integers(1, 60),
        st.one_of(st.just("unknown"), st.integers(1, 50)),
        max_size=6,
    ))
    pi_go_torsion = draw(st.dictionaries(
        st.integers(1, 60),
        st.one_of(st.sampled_from(["unknown", "Z"]), _ORDER.map(str), _ORDER),
        max_size=6,
    ))
    bp = draw(st.dictionaries(  # bp_order refuses m < 4, so no bP_2 entry
        st.sampled_from([m for m in range(10, 61, 4) if m != 14]),
        st.sampled_from(["1", "2", 1, 2, "unknown"]),
        max_size=4,
    ))
    theta = {n: v if v == "unknown" else str(v * _chain_factor(n)) for n, v in theta.items()}
    families = {"theta": theta, "pi_go_torsion": pi_go_torsion, "bp": bp}
    return {
        family: {str(n): v for n, v in entries.items()}
        for family, entries in families.items() if entries or draw(st.booleans())
    }


def _entry_text(group: KnownGroup) -> str:
    # The table-file form of an entry, written from its JSON form.
    data = group.as_json()
    assert data["kind"] in ("finite", "unknown"), data
    return str(data["order"]) if data["kind"] == "finite" else "unknown"


def _table_text(table) -> str:
    # Every entry of every family, the built-in ones included.
    return json.dumps({
        family: {str(n): _entry_text(g) for n, g in getattr(table, family).items()}
        for family in ("theta", "pi_go_torsion", "bp")
    })


@settings(max_examples=150, deadline=None)
@given(_overrides())
def test_parse_table_round_trips_through_its_own_entries(override):
    table = parse_table(json.dumps(override))
    for n, value in override.get("theta", {}).items():
        expected = KnownGroup.unknown() if value == "unknown" else KnownGroup.finite(int(value))
        assert table.theta_order(int(n)) == expected
    assert parse_table(_table_text(table)) == table


@st.composite
def _theta_bp_overrides(draw):
    """Random theta, bp and pi_go_torsion overrides up to dimension 40,
    with the merged theta orders that the rule reads.  The chain holds:
    |Theta_n| is a multiple of t_{n+1} where n + 1 = 0 mod 4, and a bp
    entry of 2 stands only where the merged |Theta_{m-1}| is even or
    unknown.  Odd theta orders elsewhere keep the forced bP in play."""
    theta = draw(st.dictionaries(
        st.integers(1, 40), st.one_of(st.none(), st.integers(1, 12)), max_size=10
    ))
    theta = {
        n: None if v is None else v * (t(n + 1) if (n + 1) % 4 == 0 else 1)
        for n, v in theta.items()
    }
    merged = {n: theta_order(n).order for n in range(1, 21)} | theta
    bp = draw(st.dictionaries(
        st.sampled_from(range(6, 42, 4)), st.sampled_from([1, 2, None]), max_size=4
    ))
    bp = {
        m: v for m, v in bp.items()
        if v != 2 or merged.get(m - 1) is None or merged[m - 1] % 2 == 0
    }
    given = draw(st.dictionaries(
        st.integers(2, 41), st.one_of(st.none(), st.integers(1, 9)), max_size=2
    ))
    return merged, bp, {2: 2} | given, {
        "theta": theta, "bp": bp, "pi_go_torsion": given,
    }


@settings(max_examples=150, deadline=None)
@given(_theta_bp_overrides())
def test_pi_go_follows_the_surgery_sequence_under_any_override(case):
    # The gate's derived torsions and forced bP against the rule written
    # out independently in helpers.surgery_pi_go, on the merged orders.
    theta, bp, given_torsion, families = case
    text = json.dumps({
        family: {str(n): "unknown" if v is None else str(v) for n, v in entries.items()}
        for family, entries in families.items()
    })
    table = parse_table(text)
    for n in range(2, 45):
        assert table.pi_go(n) == surgery_pi_go(n, theta, bp, given_torsion), n
    for m in range(6, 45, 4):
        order = surgery_bp_order(m, theta, bp)
        assert table.bp_order(m) == (
            KnownGroup.unknown() if order is None else KnownGroup.finite(order)
        ), m


def _known_group_from_json(data: dict) -> KnownGroup:
    if data["kind"] == "finite":
        return KnownGroup.finite(data["order"])
    if data["kind"] == "z_times_finite":
        return KnownGroup.z_times_finite(data["torsion_order"])
    assert data == {"kind": "unknown"}
    return KnownGroup.unknown()


_KNOWN_GROUPS = st.one_of(
    _ORDER.map(KnownGroup.finite),
    _ORDER.map(KnownGroup.z_times_finite),
    st.just(KnownGroup.unknown()),
    st.just(KnownGroup.trivial()),
)


@settings(max_examples=200, deadline=None)
@given(_KNOWN_GROUPS)
def test_known_group_as_json_round_trips(group):
    data = json.loads(json.dumps(group.as_json()))
    assert data == group.as_json()
    assert _known_group_from_json(data) == group


def test_pi_go_as_json_round_trips_in_every_degree():
    # pi_go yields all three kinds: Z x torsion in degrees 0 mod 4.
    kinds = set()
    for n in range(2, 41):
        group = pi_go(n)
        assert _known_group_from_json(group.as_json()) == group, n
        kinds.add(group.kind)
    assert kinds == {"finite", "z_times_finite", "unknown"}
