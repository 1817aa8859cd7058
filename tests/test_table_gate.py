"""Every ``GroupTable`` passes one gate, its constructor.

However a table comes into being (built by hand, by keyword from another
table's fields, by ``parse_table``, by ``copy``, ``deepcopy`` or
``pickle.loads``), it obeys the entry and chain rules that ``parse_table``
states, and its families refuse every change, so no caller can change the
answers another caller reads.
"""

import copy
import pickle
import re

import pytest

from spherestruct import tables
from spherestruct import (
    GroupTable,
    KnownGroup,
    TableError,
    bp_order,
    builtin_table,
    parse_table,
    present,
    theta_order,
)

_FAMILIES = ("theta", "pi_go_torsion", "bp")
_28 = KnownGroup.finite(28)
# The dimensions of the built-in pi_go_torsion family: the given pi_2 and
# every n <= 20 whose torsion the gate derives, which leaves out 9, 10,
# 17 and 18, where bP_10 or bP_18 is an unknown factor.
_BUILTIN_TORSION_DIMENSIONS = {2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 19, 20}

# Tables whose construction is refused for the type of a key or a value.
_TYPE_ERRORS = {
    "theta-int-value": (
        {"theta": {7: 28}}, "theta[7]: expected a KnownGroup, got int"
    ),
    "theta-str-key": (
        {"theta": {"7": _28}}, "theta: dimension keys must be ints, got '7'"
    ),
    "theta-bool-key": (
        {"theta": {True: KnownGroup.trivial()}},
        "theta: dimension keys must be ints, got True",
    ),
    "bp-float-key": (
        {"bp": {10.0: KnownGroup.trivial()}},
        "bp: dimension keys must be ints, got 10.0",
    ),
    "pi_go_torsion-str-value": (
        {"pi_go_torsion": {2: "2"}},
        "pi_go_torsion[2]: expected a KnownGroup, got str",
    ),
    "bp-list-family": ({"bp": [(10, _28)]}, "bp must be a mapping, got list"),
}


@pytest.mark.parametrize("case", sorted(_TYPE_ERRORS))
def test_a_key_or_value_of_the_wrong_type_is_refused(case):
    families, message = _TYPE_ERRORS[case]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        GroupTable(**families)


# Tables that break an entry or chain rule, each with the override file
# that breaks it the same way: a hand-built table fails with parse_table's
# text.
_RULE_ERRORS = {
    "theta-chain": (
        {"theta": {7: KnownGroup.finite(5)}},
        '{"theta": {"7": "5"}}',
        "|bP_8| = 28 does not divide |Theta_7| = 5; the table is inconsistent "
        "with bP_8 being a subgroup of Theta_7",
    ),
    "bp-chain": (
        {"theta": {9: KnownGroup.finite(3)}, "bp": {10: KnownGroup.finite(2)}},
        '{"theta": {"9": "3"}, "bp": {"10": "2"}}',
        "|bP_10| = 2 does not divide |Theta_9| = 3; the table is inconsistent "
        "with bP_10 being a subgroup of Theta_9",
    ),
    "bp-order-7": (
        {"bp": {10: KnownGroup.finite(7)}},
        '{"bp": {"10": "7"}}',
        "bp[10]: |bP_{4k+2}| is 1 or 2, got 7",
    ),
    "theta-zero-key": (
        {"theta": {0: KnownGroup.trivial()}},
        '{"theta": {"0": "1"}}',
        "theta[0]: dimension must be >= 1",
    ),
    "bp-key-8": (
        {"bp": {8: _28}},
        '{"bp": {"8": "28"}}',
        "bp[8]: only dimensions = 2 mod 4 are table entries "
        "(odd ones are trivial, multiples of 4 are computed)",
    ),
    "bp-key-7": (
        {"bp": {7: KnownGroup.trivial()}},
        '{"bp": {"7": "1"}}',
        "bp[7]: only dimensions = 2 mod 4 are table entries "
        "(odd ones are trivial, multiples of 4 are computed)",
    ),
    "bp-key-2": (
        {"bp": {2: KnownGroup.trivial()}},
        '{"bp": {"2": "1"}}',
        "bp[2]: dimension must be >= 4",
    ),
}


@pytest.mark.parametrize("case", sorted(_RULE_ERRORS))
def test_a_hand_built_table_obeys_the_rules_of_a_table_file(case):
    families, text, message = _RULE_ERRORS[case]
    with pytest.raises(TableError) as built:
        GroupTable(**families)
    with pytest.raises(TableError) as parsed:
        parse_table(text)
    assert str(built.value) == str(parsed.value) == message


def test_keyword_construction_from_a_tables_fields_checks_again():
    table = builtin_table()
    fields = {name: getattr(table, name) for name in GroupTable.__slots__}
    rebuilt = GroupTable(**fields)
    assert rebuilt == table
    assert all(getattr(rebuilt, name) is not fields[name] for name in _FAMILIES)
    fields["theta"] = {**table.theta, 7: KnownGroup.finite(5)}
    with pytest.raises(TableError, match=r"^\|bP_8\| = 28 does not divide"):
        GroupTable(**fields)


def test_a_table_keeps_its_own_copy_of_the_families_it_was_given():
    theta = {7: _28}
    table = GroupTable(theta=theta)
    theta[7] = KnownGroup.finite(5)
    del theta[7]
    assert table.theta_order(7) is _28


# Every way to change a mapping in place.
_MUTATORS = {
    "setitem": lambda family: family.__setitem__(7, KnownGroup.finite(5)),
    "delitem": lambda family: family.__delitem__(7),
    "clear": lambda family: family.clear(),
    "pop": lambda family: family.pop(7),
    "popitem": lambda family: family.popitem(),
    "setdefault": lambda family: family.setdefault(99, _28),
    "update": lambda family: family.update({7: KnownGroup.finite(5)}),
    "ior": lambda family: family.__ior__({7: KnownGroup.finite(5)}),
}


@pytest.mark.parametrize("source", ["builtin", "parsed"])
@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("mutator", sorted(_MUTATORS))
def test_every_family_refuses_every_change(source, family, mutator):
    table = builtin_table() if source == "builtin" else parse_table(
        '{"theta": {"21": "4"}, "bp": {"22": "2"}, "pi_go_torsion": {"4": "3"}}'
    )
    before = {name: dict(getattr(table, name)) for name in _FAMILIES}
    answer = present(3, 4, table).as_dict()
    with pytest.raises((TypeError, AttributeError)):
        _MUTATORS[mutator](getattr(table, family))
    assert {name: dict(getattr(table, name)) for name in _FAMILIES} == before
    assert present(3, 4, table).as_dict() == answer


def test_a_refused_change_leaves_every_answer():
    # The first finding: an item assignment on the built-in table used to
    # change theta_order(7) and present(3, 4) for every caller.
    with pytest.raises(TypeError):
        builtin_table().theta[7] = KnownGroup.finite(5)
    with pytest.raises(TypeError):
        builtin_table().theta |= {7: KnownGroup.finite(5)}
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'theta'$"):
        builtin_table().theta = {7: KnownGroup.finite(5)}
    assert theta_order(7) is _28
    assert present(3, 4).theta_group is _28
    assert repr(GroupTable()) == "GroupTable(theta={}, pi_go_torsion={}, bp={})"


@pytest.mark.parametrize("source", ["builtin", "parsed", "empty"])
def test_copies_and_pickles_are_equal_read_only_tables(source):
    table = {
        "builtin": builtin_table(),
        "parsed": parse_table('{"theta": {"21": "4"}, "bp": {"22": "2"}}'),
        "empty": GroupTable(),
    }[source]
    # The families hold derived entries (pi_21(G/O) = Z/2 in the parsed
    # table) beside given ones; passed back through the gate as given,
    # they derive the same entries again.
    clones = {
        "keyword": GroupTable(**{name: getattr(table, name) for name in _FAMILIES}),
        "copy": copy.copy(table),
        "deepcopy": copy.deepcopy(table),
        "pickle": pickle.loads(pickle.dumps(table)),
    }
    for how, clone in clones.items():
        assert clone == table, how
        assert repr(clone) == repr(table), how
        for name in _FAMILIES:
            with pytest.raises(TypeError):
                getattr(clone, name)[99] = _28
        assert theta_order(21, clone) == theta_order(21, table), how
        assert bp_order(22, clone) == bp_order(22, table), how


def test_a_table_pickles_to_the_bytes_of_its_plain_dict_families():
    # The state is a list of three plain dicts, as before the families were
    # read-only, so a pickle written by either loads in the other.  The
    # pi_go_torsion dict holds the torsion the gate derives, |pi_7(G/O)| =
    # |Theta_7| / |bP_8| = 1.
    table = GroupTable(theta={7: _28})
    assert pickle.dumps(table, 4) == (
        b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x13spherestruct.tables"
        b"\x94\x8c\nGroupTable\x94\x93\x94)\x81\x94]\x94(}\x94K\x07h\x00\x8c\n"
        b"KnownGroup\x94\x93\x94)\x81\x94]\x94(\x8c\x06finite\x94K\x1cebs}\x94K"
        b"\x07h\x07)\x81\x94]\x94(h\nK\x01ebs}\x94eb."
    )


def _blank_table():
    return object.__new__(GroupTable)


class _Forged:
    # Pickles as a GroupTable with the given state, which the unpickler
    # hands to GroupTable.__setstate__.
    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return _blank_table, (), self.state


@pytest.mark.parametrize(
    "state, error, message",
    [
        ([{7: KnownGroup.finite(5)}, {}, {}], TableError, r"^\|bP_8\| = 28 does not divide"),
        ([{7: 28}, {}, {}], TypeError, r"^theta\[7\]: expected a KnownGroup, got int$"),
        (
            {"theta": {}, "pi_go_torsion": {}, "bp": {10: KnownGroup.finite(7)}},
            TableError,
            r"^bp\[10\]: \|bP_\{4k\+2\}\| is 1 or 2, got 7$",
        ),
    ],
    ids=["list-chain", "list-int-value", "dict-bp-order"],
)
def test_an_unpickled_table_passes_the_gate(state, error, message):
    data = pickle.dumps(_Forged(state))
    with pytest.raises(error, match=message):
        pickle.loads(data)


def test_an_old_format_pickle_loads_as_a_read_only_table():
    # A table pickled while GroupTable had a __dict__ stored its fields by
    # name.
    old = (
        b"\x80\x04\x95x\x00\x00\x00\x00\x00\x00\x00\x8c\x13spherestruct.tables"
        b"\x94\x8c\nGroupTable\x94\x93\x94)\x81\x94}\x94(\x8c\x05theta\x94}\x94K"
        b"\x07h\x00\x8c\nKnownGroup\x94\x93\x94)\x81\x94]\x94(\x8c\x06finite\x94K"
        b"\x1cebs\x8c\rpi_go_torsion\x94}\x94\x8c\x02bp\x94}\x94ub."
    )
    table = pickle.loads(old)
    assert table == GroupTable(theta={7: _28})
    with pytest.raises(TypeError):
        table.theta[7] = KnownGroup.finite(5)


def test_the_table_method_bp_order_takes_a_bool_as_its_int():
    # A float is rejected (test_bp's _NON_INT_CALLS); a bool is an int,
    # and True is refused as 1 is, by the rule of the bp_order door.
    table = builtin_table()
    with pytest.raises(ValueError, match=r"^bp_order\(m\) requires m >= 4, got 1$"):
        table.bp_order(True)
    assert table.bp_order(12) == KnownGroup.finite(992)


@pytest.mark.parametrize(
    "family, dim", [("theta", 7), ("pi_go_torsion", 2), ("bp", 10)]
)
def test_a_z_times_finite_entry_is_refused_in_every_family(family, dim):
    # Theta_n and bP_m are finite groups and a pi_go_torsion entry is a
    # torsion order, so every entry is finite or unknown, as in a table file;
    # Theta_7 as Z x (torsion 28) used to be built and presented as order 28.
    with pytest.raises(
        TableError,
        match=f"^{re.escape(family)}\\[{dim}\\]: entries must be finite or "
        "unknown, got z_times_finite$",
    ):
        GroupTable(**{family: {dim: KnownGroup.z_times_finite(28)}})


@pytest.mark.parametrize(
    "reinit",
    [
        lambda table: table.__init__(theta={7: KnownGroup.finite(5)}),
        lambda table: table.__init__(),
        lambda table: GroupTable.__init__(table, theta={7: _28}),
        lambda table: table.__setstate__([{}, {}, {}]),
    ],
    ids=["broken-chain", "empty", "valid", "setstate"],
)
@pytest.mark.parametrize("source", ["builtin", "parsed"])
def test_a_built_table_refuses_init_before_it_writes(reinit, source):
    table = builtin_table() if source == "builtin" else parse_table(
        '{"theta": {"21": "4"}, "bp": {"22": "2"}}'
    )
    before = {name: dict(getattr(table, name)) for name in _FAMILIES}
    answer = present(3, 4, table).as_dict()
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'theta'$"):
        reinit(table)
    assert {name: dict(getattr(table, name)) for name in _FAMILIES} == before
    assert present(3, 4, table).as_dict() == answer
    assert theta_order(7) is _28
    assert present(3, 4).theta_group is _28
    assert set(builtin_table().pi_go_torsion) == _BUILTIN_TORSION_DIMENSIONS


def test_the_gate_derives_pi_go_and_the_forced_bp_from_an_override():
    # An override of Theta or bP moves the pi_n(G/O) it is a factor of and
    # the bP_{4k+2} that an odd |Theta_{4k+1}| forces.
    assert parse_table('{"theta": {"7": "56"}}').pi_go(7) == KnownGroup.finite(2)
    table = parse_table('{"bp": {"10": "2"}}')
    assert table.pi_go(9) == KnownGroup.finite(4)
    assert table.pi_go(10) == KnownGroup.finite(6)
    table = parse_table('{"bp": {"18": "2"}}')
    assert table.pi_go(17) == KnownGroup.finite(8)
    assert table.pi_go(18) == KnownGroup.finite(16)
    for n in (5, 13):
        table = parse_table(f'{{"theta": {{"{n}": "6"}}}}')
        assert table.bp_order(n + 1).is_unknown
        assert table.pi_go(n).is_unknown and table.pi_go(n + 1).is_unknown
    table = parse_table('{"theta": {"24": "5"}}')
    assert table.pi_go(24) == KnownGroup.z_times_finite(5)


def test_a_given_entry_wins_over_the_rule():
    unknown = KnownGroup.unknown()
    table = parse_table('{"theta": {"7": "56"}, "pi_go_torsion": {"7": "5"}}')
    assert table.pi_go(7) == KnownGroup.finite(5)
    table = GroupTable(theta={8: KnownGroup.finite(2)}, pi_go_torsion={8: unknown})
    assert table.pi_go(8).is_unknown
    table = GroupTable(theta={5: KnownGroup.trivial()}, bp={6: unknown})
    assert table.bp_order(6).is_unknown and table.pi_go(5).is_unknown


def test_a_theta_entry_past_the_cap_of_t_derives_nothing():
    # t_3312 is past the cap, so bP_3312 and pi_3311(G/O) are unknown, and
    # the gate asks neither.
    table = GroupTable(theta={3311: KnownGroup.finite(5)})
    assert table.pi_go(3311).is_unknown
    assert dict(table.pi_go_torsion) == {} and dict(table.bp) == {}


def test_theta_entries_at_1_and_2_never_ask_bp_2(monkeypatch):
    # bp_order refuses m < 4, and no rule here reaches pi_2 or a bP_2 entry.
    asked = []
    read = GroupTable.bp_order
    monkeypatch.setattr(
        GroupTable, "bp_order", lambda self, m: asked.append(m) or read(self, m)
    )
    trivial = KnownGroup.trivial()
    table = GroupTable(theta={1: trivial, 2: trivial, 3: trivial})
    assert asked == [4]
    assert dict(table.bp) == {} and dict(table.pi_go_torsion) == {3: trivial}
    assert table.pi_go(2).is_unknown


_GIVEN_ENTRIES = [
    (family, dim) for family, entries in tables._GIVEN.items() for dim in entries
]
_ANSWER = {
    "theta": GroupTable.theta_order,
    "pi_go_torsion": GroupTable.pi_go,
    "bp": GroupTable.bp_order,
}


@pytest.mark.parametrize(
    "family, dim", _GIVEN_ENTRIES, ids=[f"{f}[{n}]" for f, n in _GIVEN_ENTRIES]
)
def test_the_builtin_table_types_only_what_no_rule_derives(family, dim):
    # Without any one of its given entries the built-in table no longer
    # knows that entry's answer: no rule of the gate derives it from the
    # rest, so no typed number is redundant.
    given = {name: dict(entries) for name, entries in tables._GIVEN.items()}
    del given[family][dim]
    assert _ANSWER[family](GroupTable(**given), dim).is_unknown


def test_the_builtin_table_is_its_given_entries_through_the_gate():
    assert GroupTable(**tables._GIVEN) == builtin_table()
    assert len(_GIVEN_ENTRIES) == 21  # |Theta_n| for n <= 20 and pi_2(G/O)
