"""The contract of the package's immutable value classes.

Every value is a frozen, slotted value class (``cyclic._value``) whose
fields are its ``__slots__`` and whose constructor puts each field in
canonical form.  Keyword construction by field name takes the place of
``dataclasses.replace``.  A cyclic group Z_n is identified by n alone:
elements and subgroups built on a shared ``cyclic_group(n)`` and on a
fresh ``CyclicGroup(n)`` mix freely.
"""

import json
import os
import pickle
import re
import subprocess
import sys
from collections.abc import Hashable
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherestruct import (
    GroupStructureVerdict,
    KnownGroup,
    StructureSetPresentation,
    TopStructureSet,
    bernoulli,
    bp_order,
    builtin_table,
    check_pair,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    image_f_residual,
    l_group,
    pairing_coefficient,
    parse_table,
    present,
    stabilizer,
    subgroup_generated,
    t,
    theta_diff,
    theta_order,
    top_structure_set,
)
from spherestruct.classify import (
    BP8,
    S3S4Invariant,
    S4S4Manifold,
    WallTriple,
    plumbing_boundary_class,
    s3s4_structure_equal,
    wall_triple_of_plumbing,
)
from spherestruct.cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    _cyclic_group,
    _element,
    _shown,
    _shown_group,
    _slot_writers,
    _subgroup,
    cyclic_group,
)
from spherestruct.ltheory import LClass, LGroupKind, NormalClassDiff
from spherestruct import bp, classify, cyclic, ltheory, structset, tables
from spherestruct.structset import ACTION_FREE, ACTION_STABILIZER, _Draft
from spherestruct.tables import _finite, _z_times_finite

from helpers import brute_subgroup, core_caches, entered, entered_codes


def _samples():
    z28 = CyclicGroup(28)
    return [
        z28,
        CyclicElement(z28, 5),
        CyclicSubgroup(z28, 8),
        KnownGroup.finite(28),
        l_group(2),
        LClass(4, 3),
        NormalClassDiff(8, 3),
        present(3, 4),
        top_structure_set(4, 4),
        group_structure_possible(4, 4),
        S3S4Invariant(3, 5),
        wall_triple_of_plumbing(1, 7),
        S4S4Manifold(7, 1, 3),
    ]


VALUE_CLASSES = (
    CyclicGroup, CyclicElement, CyclicSubgroup, KnownGroup, LGroupKind, LClass,
    NormalClassDiff, StructureSetPresentation, TopStructureSet,
    GroupStructureVerdict, S3S4Invariant, WallTriple, S4S4Manifold,
)

# The classes whose __init__ passes its fields to the guarded
# __setstate__, so that it refuses a built value too: every class that a
# library function builds (as a draft, ``cyclic._value``) or shares.
# Only the three that callers alone build keep an unguarded __init__.
GUARDED_INIT = (
    CyclicGroup, CyclicElement, CyclicSubgroup, KnownGroup, LGroupKind, LClass,
    StructureSetPresentation, TopStructureSet, GroupStructureVerdict, WallTriple,
)


# The repr of each sample and the SHA-256 of its protocol-4 pickle, as
# the dataclass-based classes printed and pickled them: the value classes
# keep both, so a pickle written by either loads in the other.
_PINNED = [
    ("CyclicGroup(order=28)",
     "e4047eb3a0bcbfb16249eb6b7f2bc3bfdad21eb402a61fb601b8b35e1e33602f"),
    ("CyclicElement(group=CyclicGroup(order=28), value=5)",
     "7ff66659693eda6d5e527825775bbf316a5495b6cf2b3a3048a2e8e56a989871"),
    ("CyclicSubgroup(ambient=CyclicGroup(order=28), generator_value=4)",
     "1b9c832c65a9f4dda637ed2914e0646cf2c60a1e52b246173c812d6fd6d72f7d"),
    ("KnownGroup(kind='finite', order=28)",
     "ca949aa192a7a0a3866c6a9c4aa34ad9e3004721438ac6f65ac6b5f275325024"),
    ("LGroupKind(dim=2, symbol='Z/2')",
     "16c3daef980856dacebd26a6008c843f37aec1bbe1055a85b37fd60cc2cfa0aa"),
    ("LClass(dim=4, value=3)",
     "562b8e2542bb578243456769a657b69203aefb98631c4294f78cc3c99bd5ee1a"),
    ("NormalClassDiff(dim=8, phi=3)",
     "9b6256bf00fe00d6cdc596ae9c333f4895b04403f36e06e96d81d705e00596ab"),
    ("StructureSetPresentation(p=3, q=4, input_p=3, input_q=4, "
     "theta_group=KnownGroup(kind='finite', order=28), "
     "bp_next=KnownGroup(kind='finite', order=28), "
     "normal_invariants=(KnownGroup(kind='finite', order=1), "
     "KnownGroup(kind='z_times_finite', order=1)), residual=CyclicGroup(order=1), "
     "action_case='stabilizers_vary_with_d', stabilizer_coefficient=32)",
     "bf1a8b7d82464fb6b8b57c48c6a81dd45376f6eda8df9c44e1f85d622c7701a0"),
    ("TopStructureSet(p_factor=LGroupKind(dim=4, symbol='Z'), "
     "q_factor=LGroupKind(dim=4, symbol='Z'))",
     "c0835ec2415cc576a2f4ffdbb69ae72b83a1e2101cfc4a6f1afa1ddf26a53763"),
    ("GroupStructureVerdict(possible=False, reason='image not a subgroup')",
     "06c98b08bbdccb1dcca35007880df8bf755d3e590123e08722b549bcb0edc12c"),
    ("S3S4Invariant(sigma=CyclicElement(group=CyclicGroup(order=28), value=3), v=5)",
     "695b92d6046dbdf2f2adef430baaf4f78c84f00e2a7d654bb218a36ea762cd7f"),
    ("WallTriple(s_alpha_x=24, s_alpha_y=168)",
     "36542352e974b6b40b8bbdcc5e7a04a67b1ec6622e0c8eb1f017b7768f960057"),
    ("S4S4Manifold(u=7, v=1, phi=1)",
     "d02801062c58bebc0fb3a32b05bdbab86c1e2b04aefe34d6c12a0f277a8fbeb0"),
]


def test_each_value_keeps_its_repr_and_pickle_bytes():
    # In a fresh interpreter: the pickle memo records which fields share
    # one object (present(3, 4) holds finite(28) twice), and that depends
    # on which caches earlier tests cleared.
    here = Path(__file__).resolve().parent
    code = (
        "import hashlib, json, pickle, test_values\n"
        "print(json.dumps([(repr(v), hashlib.sha256(pickle.dumps(v, 4)).hexdigest())"
        " for v in test_values._samples()]))"
    )
    path = os.pathsep.join(str(d) for d in (here.parent / "src", here))
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert [tuple(pin) for pin in json.loads(result.stdout)] == _PINNED


def _fields(value):
    # A value's fields by name, ready for keyword construction.
    return {name: getattr(value, name) for name in type(value).__slots__}


def test_every_value_class_is_frozen_and_slotted():
    samples = _samples()
    assert [type(x) for x in samples] == list(VALUE_CLASSES)
    for value in samples:
        cls = type(value)
        assert "__slots__" in cls.__dict__, cls
        # The annotations document the fields, in field order.
        assert tuple(cls.__annotations__) == cls.__slots__ == cls.__match_args__, cls
        assert not hasattr(value, "__dict__"), cls
        assert not hasattr(cls, "__post_init__"), cls
        # Every name is refused, a field or not.
        for name in cls.__slots__ + ("not_a_field",):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, getattr(value, name, 1))
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        # Writing a built value again is refused before any write, by
        # __setstate__ on every class and by __init__ on the guarded ones.
        shown, fields = repr(value), _fields(value)
        refused = f"^cannot assign to field '{cls.__slots__[0]}'$"
        with pytest.raises(AttributeError, match=refused):
            value.__setstate__(list(fields.values()))
        if cls in GUARDED_INIT:
            with pytest.raises(AttributeError, match=refused):
                value.__init__(**fields)
        assert repr(value) == shown and value == type(value)(**fields), cls


def test_a_shared_value_refuses_a_rewrite_and_every_answer_stays():
    # Each call rewrote a value that the caches hand to every caller, and
    # the answers below then changed with it.
    with pytest.raises(AttributeError, match="^cannot assign to field 'kind'$"):
        KnownGroup.finite(28).__init__("finite", 5)
    assert theta_order(7).order == present(3, 4).bp_next.order == 28
    with pytest.raises(AttributeError, match="^cannot assign to field 'kind'$"):
        KnownGroup.finite(992).__setstate__(["finite", 3])
    assert theta_order(11).order == 992
    with pytest.raises(AttributeError, match="^cannot assign to field 'ambient'$"):
        stabilizer(3, 4, 1).__setstate__([cyclic_group(28), 1])
    with pytest.raises(AttributeError, match="^cannot assign to field 'ambient'$"):
        stabilizer(3, 4, 1).__init__(cyclic_group(28), 1)
    assert eta_fiber_size(3, 4, 1).order == 4
    with pytest.raises(AttributeError, match="^cannot assign to field 'order'$"):
        cyclic_group(28).__setstate__([5])
    assert str(cyclic_group(28)) == "Z_28"


def test_a_shared_bp8_element_refuses_init_and_every_answer_stays():
    # Before CyclicElement.__init__ was guarded, this rewrote the shared
    # element 3 of bP_8 to 10, so S3S4Invariant(3, 1) printed sigma 10 and
    # the structures with sigma 3 and 10 at v = 0 compared equal.
    with pytest.raises(AttributeError, match="^cannot assign to field 'group'$"):
        S3S4Invariant(3, 5).sigma.__init__(BP8, 10)
    assert repr(S3S4Invariant(3, 1).sigma) == (
        "CyclicElement(group=CyclicGroup(order=28), value=3)"
    )
    assert not s3s4_structure_equal(S3S4Invariant(3, 0), S3S4Invariant(10, 0))


def test_every_trivial_known_group_is_the_one_shared_value():
    # Order 1 is the shared trivial group through every route, also once
    # the bounded cache of finite orders has evicted it.
    trivial = KnownGroup.trivial()
    routes = (
        lambda: KnownGroup.finite(1), lambda: bp_order(5), lambda: theta_order(1),
    )
    assert all(route() is trivial for route in routes)
    try:
        for order in range(2, _finite.cache_info().maxsize + 3):
            KnownGroup.finite(order)
        misses = _finite.cache_info().misses
        assert all(route() is trivial for route in routes)
        assert _finite.cache_info().misses == misses + 1  # order 1 was evicted
    finally:
        _finite.cache_clear()


def test_a_shared_cyclic_group_refuses_init_and_every_answer_stays():
    # Before Z_n was built raw in its cache, this rewrote the shared Z_28
    # to Z_5 for every caller.
    with pytest.raises(AttributeError, match="^cannot assign to field 'order'$"):
        cyclic_group(28).__init__(5)
    assert str(cyclic_group(28)) == "Z_28"
    assert eta_fiber_size(3, 4, 1).order == 4


# Every cache of a core, a core added later too.
_CACHES = tuple(core_caches())


class _Coordinate:
    # Not a NormalClassDiff, but with its fields, and a float phi that
    # would key like the int it equals.
    dim, phi = 4, 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: KnownGroup.finite(0), "finite group order must be >= 1, got 0"),
        (lambda: KnownGroup.finite(-3), "finite group order must be >= 1, got -3"),
        (lambda: KnownGroup.finite(False), "finite group order must be >= 1, got 0"),
        (lambda: KnownGroup.z_times_finite(0), "torsion order must be >= 1, got 0"),
        (lambda: cyclic_group(0), "cyclic group order must be >= 1, got 0"),
        (lambda: cyclic_group(-1), "cyclic group order must be >= 1, got -1"),
    ],
    ids=["finite(0)", "finite(-3)", "finite(False)", "z_times_finite(0)",
         "cyclic_group(0)", "cyclic_group(-1)"],
)
def test_a_door_rejects_a_bad_order_before_its_cache(call, message):
    # The cores build raw and check nothing, so each door checks first,
    # with the constructor's text, and no cache is touched.
    before = [cache.cache_info() for cache in _CACHES]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert [cache.cache_info() for cache in _CACHES] == before
    assert KnownGroup.finite(True) is KnownGroup.finite(1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: del_map(4, 4, [1], 2), TypeError, "phi_u must be an int, got list"),
        (lambda: del_map(4, 4, 1.5, 2), TypeError, "phi_u must be an int, got float"),
        (
            lambda: del_map(1, 4, 1, 1),
            ValueError,
            "sphere factors need p, q >= 2 with p + q >= 5, got (1, 4)",
        ),
        # Every argument is checked before the core, which asks t of
        # p + q = 4004 first, so the invariant's error comes before the cap's.
        (lambda: del_map(4000, 4, 1.5, 1), TypeError, "phi_u must be an int, got float"),
        (lambda: eta_fiber_size(3, 4, 2.0), TypeError, "d must be an int, got float"),
        (
            lambda: eta_fiber_size(3, 4, 2, table=0),
            TypeError,
            "table must be a GroupTable, got int",
        ),
        (lambda: plumbing_boundary_class([1], 2), TypeError, "u must be an int, got list"),
        # theta_diff checks the pair, then that each coordinate is a
        # NormalClassDiff, then their dimensions, all before its core.
        (
            lambda: theta_diff(4, 4, 1, 2, 3),
            TypeError,
            "u must be a NormalClassDiff, got int",
        ),
        (
            lambda: theta_diff(4, 4, NormalClassDiff(4), NormalClassDiff(4), LClass(8, 1)),
            TypeError,
            "w must be a NormalClassDiff, got LClass",
        ),
        (
            lambda: theta_diff(4, 4, NormalClassDiff(4), _Coordinate(), NormalClassDiff(8)),
            TypeError,
            "v must be a NormalClassDiff, got _Coordinate",
        ),
        (
            lambda: theta_diff(4, 4, NormalClassDiff(5), NormalClassDiff(4), 3),
            TypeError,
            "w must be a NormalClassDiff, got int",
        ),
        (
            lambda: theta_diff(1, 4, 1, 2, 3),
            ValueError,
            "sphere factors need p, q >= 2 with p + q >= 5, got (1, 4)",
        ),
    ],
    ids=["del_map-list", "del_map-float", "del_map-pair",
         "del_map-float-past-the-cap", "eta_fiber_size-float",
         "eta_fiber_size-table", "plumbing_boundary_class-list",
         "theta_diff-int", "theta_diff-l-class", "theta_diff-duck",
         "theta_diff-type-before-dimension", "theta_diff-pair-before-type"],
)
def test_a_cached_door_rejects_a_bad_argument_before_its_cache(call, error, message):
    # As for the orders above: a list never reaches a key, so the error is
    # the door's text, not "unhashable type", and no cache moves.
    before = [cache.cache_info() for cache in _CACHES]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    assert [cache.cache_info() for cache in _CACHES] == before


_LONG = 10**100  # 101 digits, one more than a message shows in full
_LONG_CALLS = {
    "t-least": (lambda: t(-_LONG), "t(i) requires i >= 1, got -<integer of 101 digits>"),
    "t-cap": (
        lambda: t(4 * _LONG),
        "t(i) requires i <= 3308 for multiples of 4 (the Bernoulli index cap "
        "is 827), got <integer of 101 digits>",
    ),
    "bernoulli-cap": (
        lambda: bernoulli(_LONG),
        "bernoulli(k) requires k <= 827 (MAX_BERNOULLI_INDEX), "
        "got <integer of 101 digits>",
    ),
    "cyclic_group": (
        lambda: cyclic_group(-_LONG),
        "cyclic group order must be >= 1, got -<integer of 101 digits>",
    ),
    "finite": (
        lambda: KnownGroup.finite(-_LONG),
        "finite group order must be >= 1, got -<integer of 101 digits>",
    ),
    "check_pair": (
        lambda: check_pair(1, _LONG),
        "sphere factors need p, q >= 2 with p + q >= 5, "
        "got (1, <integer of 101 digits>)",
    ),
    "image_f_residual": (
        lambda: image_f_residual(3, _LONG),
        "image_f_residual expects dimensions (4j, 4k), "
        "got (3, <integer of 101 digits>)",
    ),
    "forgetful_fiber-pair": (
        lambda: forgetful_fiber(_LONG, 4, 2),
        "forgetful_fiber currently handles only S^3 x S^4, "
        "got (<integer of 101 digits>, 4)",
    ),
    "forgetful_fiber-odd": (
        lambda: forgetful_fiber(3, 4, _LONG + 1),
        "topological normal invariant <integer of 101 digits> is odd, hence "
        "not in the image of the smooth structure set (even invariants only)",
    ),
    "theta_diff": (
        lambda: theta_diff(4, 4, _U, NormalClassDiff(4), NormalClassDiff(_LONG)),
        "coordinate dimensions must be (4, 4, 8), got (4, 4, <integer of 101 digits>)",
    ),
    "S4S4Manifold": (
        lambda: S4S4Manifold(-_LONG, 1, 0),
        "no closed manifold for (u, v) = (-<integer of 101 digits>, 1): the "
        "plumbing boundary is an exotic sphere unless 7 divides u*v",
    ),
    "LClass-add": (
        lambda: LClass(_LONG, 1) + LClass(4, 1),
        "cannot add L-classes of dimensions <integer of 101 digits> and 4",
    ),
    "CyclicElement-sub": (
        lambda: cyclic_group(_LONG).element(1) - cyclic_group(3).element(1),
        "elements live in different groups: Z_<integer of 101 digits> vs Z_3",
    ),
    "CyclicSubgroup-contains": (
        lambda: subgroup_generated(_LONG, 2).contains(cyclic_group(1).element(0)),
        "element of 0 tested against a subgroup of Z_<integer of 101 digits>",
    ),
    # Past Python's int-to-str limit (4300 digits), counted by arithmetic.
    "t-past-str-limit": (
        lambda: t(-10**5000), "t(i) requires i >= 1, got -<integer of 5001 digits>"
    ),
    "bernoulli-past-str-limit": (
        lambda: bernoulli(10**5000),
        "bernoulli(k) requires k <= 827 (MAX_BERNOULLI_INDEX), "
        "got <integer of 5001 digits>",
    ),
}


@pytest.mark.parametrize("name", list(_LONG_CALLS))
def test_a_message_names_a_long_integer_by_its_digit_count(name):
    # One display rule, cyclic._shown, for a caller's integer in a message.
    call, message = _LONG_CALLS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_display_rule_prints_up_to_100_digits_in_full():
    # So a message with a shorter integer is byte-identical to the one
    # that printed it raw.
    for number in (0, 7, -7, 10**99, -(10**99), 10**100 - 1):
        assert _shown(number) == str(number) == _shown(str(number))
    assert _shown(10**100) == "<integer of 101 digits>"
    assert _shown(-(10**100)) == "-<integer of 101 digits>"
    # The same texts as for a short number: 0 for Z_1, Z_n otherwise.
    for order in (1, 3, 10**100 - 1):
        assert _shown_group(cyclic_group(order)) == str(cyclic_group(order))
    assert _shown_group(cyclic_group(10**100)) == "Z_<integer of 101 digits>"


def test_the_display_rule_counts_digits_without_str():
    # Every power of ten and its predecessor up to 6000 digits, past the
    # int-to-str limit; the digit count comes from arithmetic alone.
    for digits in range(101, 6001):
        assert _shown(10 ** (digits - 1)) == f"<integer of {digits} digits>"
        assert _shown(-(10**digits - 1)) == f"-<integer of {digits} digits>"


def test_a_cached_door_hands_out_one_shared_value():
    # del_map and plumbing_boundary_class share one core, keyed by
    # (p, q, phi_u, phi_v); plumbing_boundary_class(u, v) is del(-u, v).
    assert del_map(4, 4, 1, 2) is del_map(4, 4, 1, 2)
    assert plumbing_boundary_class(3, 5) is del_map(4, 4, -3, 5)
    assert eta_fiber_size(3, 4, 5) is eta_fiber_size(3, 4, 5)
    # A bool is keyed as the int it equals.
    assert del_map(4, 4, True, 2) is del_map(4, 4, 1, 2)
    assert eta_fiber_size(3, 4, True) is eta_fiber_size(3, 4, 1)
    # theta_diff is keyed by the pair and the coordinates' phi, so equal
    # coordinates share a value.
    u, v, w = NormalClassDiff(4, 3), NormalClassDiff(8, -2), NormalClassDiff(12, True)
    assert theta_diff(4, 8, u, v, w) is theta_diff(4, 8, u, v, w)
    assert theta_diff(4, 8, u, v, w) is theta_diff(4, 8, _U, _V, _W)


def test_a_value_equals_only_a_value_of_its_own_class():
    # The same field tuple in another class, or a bare field, is unequal.
    assert CyclicGroup(28) != 28 and 28 != CyclicGroup(28)
    assert CyclicGroup(28).__eq__(28) is NotImplemented
    assert LClass(4, 3) != NormalClassDiff(4, 3)
    assert LClass(4, 3).__eq__(NormalClassDiff(4, 3)) is NotImplemented


def test_each_hand_written_constructor_has_one_slot_writer_per_field():
    for cls in VALUE_CLASSES:
        assert "__init__" in cls.__dict__, cls
        writers = _slot_writers(cls)
        names = list(cls.__slots__)
        assert len(writers) == len(names), cls
        # Each writer is the setter of its own field's slot, in field order.
        assert [w.__self__.__name__ for w in writers] == names, cls
        # The constructor takes the fields, in order, by their names.
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls.__slots__, cls


def test_values_survive_replace_pickle_and_hashing():
    # "Replace" is keyword construction from the value's own fields.
    for value in _samples():
        assert type(value)(**_fields(value)) == value
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and clone is not value
        assert repr(clone) == repr(value)
        assert hash(clone) == hash(value)


def test_a_group_table_is_unhashable_and_every_other_value_hashes():
    # A table's families are read-only views, which do not hash, so
    # GroupTable declares itself unhashable instead of keeping the
    # field-tuple hash of cyclic._value, which could never work.
    table = builtin_table()
    with pytest.raises(TypeError, match=r"^unhashable type: 'GroupTable'$"):
        hash(table)
    assert not isinstance(table, Hashable)
    assert pickle.loads(pickle.dumps(table)) == table  # equal by the fields
    assert {type(value) for value in _samples()} == set(VALUE_CLASSES)
    for value in _samples():
        assert isinstance(value, Hashable)
        assert hash(value) == hash(type(value)(**_fields(value)))


def test_presentations_survive_replace_pickle_and_keyword_construction():
    # A free action, varying stabilisers (input order swapped) and an
    # unknown Theta_61.
    cases = [present(4, 4), present(4, 3), present(31, 30)]
    assert [(x.action_case, x.theta_group.is_unknown) for x in cases] == [
        (ACTION_FREE, False), (ACTION_STABILIZER, False), (ACTION_FREE, True),
    ]
    for pres in cases:
        values = _fields(pres)
        assert StructureSetPresentation(**values) == pres
        assert StructureSetPresentation(*values.values()) == pres
        swapped = StructureSetPresentation(
            **{**values, "input_p": pres.input_q, "input_q": pres.input_p}
        )
        assert (swapped.input_p, swapped.input_q) == (pres.input_q, pres.input_p)
        assert swapped.as_dict() == {
            **pres.as_dict(), "input_p": pres.input_q, "input_q": pres.input_p,
        }
        clone = pickle.loads(pickle.dumps(pres))
        assert clone == pres and clone is not pres
        assert repr(clone) == repr(pres) and hash(clone) == hash(pres)
        assert clone.as_dict() == pres.as_dict()


_OVERRIDE = parse_table(
    '{"theta": {"21": "4"}, "bp": {"22": "2"}, "pi_go_torsion": {"4": "3"}}'
)


def test_the_draft_of_a_presentation_has_its_slots_in_field_order():
    names = tuple(StructureSetPresentation.__annotations__)
    assert _Draft.__slots__ == StructureSetPresentation.__slots__ == names


def test_a_presentation_is_built_by_its_draft_or_its_constructor():
    # present retypes a draft, which CPython allows only between classes
    # with the same base and the same slots, so neither may gain a base
    # class.  Keyword construction goes through the hand-written __init__,
    # which passes its fields to __setstate__, not to ten named slot
    # writers.
    assert _Draft.__bases__ == StructureSetPresentation.__bases__ == (object,)
    assert "__init__" in StructureSetPresentation.__dict__


def test_no_module_keeps_a_slot_writer_of_a_class_the_library_builds():
    # Library-built values are drafts, so no module holds a named slot
    # writer of one; the guarded __init__ writes through __setstate__.
    for module in (bp, classify, cyclic, ltheory, structset, tables):
        for name, writer in vars(module).items():
            descriptor = getattr(writer, "__self__", None)
            owner = getattr(descriptor, "__objclass__", None)
            assert owner not in GUARDED_INIT, (module.__name__, name)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(2, 127),
    q=st.integers(2, 127),
    table=st.sampled_from([None, _OVERRIDE]),
)
def test_a_drafted_presentation_is_the_value_its_constructor_builds(p, q, table):
    # present retypes a filled draft instead of calling __init__; in both
    # argument orders the result must be the frozen value __init__ builds.
    assume(5 <= p + q < 130)
    for pres in (present(p, q, table), present(q, p, table)):
        assert type(pres) is StructureSetPresentation
        values = _fields(pres)
        assert StructureSetPresentation(**values) == pres
        assert StructureSetPresentation(*values.values()) == pres
        clone = pickle.loads(pickle.dumps(pres))
        assert clone == pres
        assert hash(clone) == hash(pres) and repr(clone) == repr(pres)
        with pytest.raises(AttributeError, match=r"^cannot assign to field 'p'$"):
            pres.p = pres.p
        assert not hasattr(pres, "__dict__")


def test_constructor_and_replace_put_fields_in_canonical_form():
    # Positional, and by keyword from a value's fields with one changed.
    z28 = CyclicGroup(28)
    assert CyclicElement(z28, -1).value == 27
    assert CyclicElement(**{**_fields(CyclicElement(z28, 3)), "value": -1}).value == 27
    assert CyclicSubgroup(z28, -32).generator_value == 4
    assert CyclicSubgroup(ambient=z28, generator_value=0).generator_value == 28
    assert LClass(2, 5).value == 1
    assert LClass(1, 5).value == 0 and LClass(4, -5).value == -5
    assert LClass(**{**_fields(LClass(2, 0)), "value": 5}).value == 1
    assert NormalClassDiff(6, 3).phi == 0
    assert NormalClassDiff(8).phi == 0 and NormalClassDiff(8, -3).phi == -3
    assert NormalClassDiff(**{**_fields(NormalClassDiff(8, 3)), "dim": 6}).phi == 0
    assert S4S4Manifold(7, 1, 3).phi == 1
    assert S4S4Manifold(u=7, v=1, phi=3).phi == 1
    assert S3S4Invariant(30, 1).sigma == CyclicElement(BP8, 2)
    assert S3S4Invariant(sigma=-1, v=1).sigma.value == 27
    with pytest.raises(ValueError, match="exotic sphere"):
        S4S4Manifold(**{**_fields(S4S4Manifold(7, 1, 0)), "u": 1})


def test_shared_and_fresh_groups_agree():
    for n in (1, 2, 28, 992):
        shared, fresh = cyclic_group(n), CyclicGroup(n)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert shared is not fresh
    assert CyclicGroup(28) != CyclicGroup(14)
    assert repr(CyclicGroup(28)) == "CyclicGroup(order=28)"
    assert repr(CyclicElement(BP8, 30)) == "CyclicElement(group=CyclicGroup(order=28), value=2)"
    # A fresh Z_28 is the group bP_8.
    assert S3S4Invariant(CyclicElement(CyclicGroup(28), 30), 1) == S3S4Invariant(2, 1)


def test_error_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^cyclic group order must be >= 1, got 0$"):
        CyclicGroup(0)
    with pytest.raises(
        ValueError,
        match=r"^no closed manifold for \(u, v\) = \(1, 1\): the plumbing boundary "
        r"is an exotic sphere unless 7 divides u\*v$",
    ):
        S4S4Manifold(1, 1, 0)
    with pytest.raises(ValueError, match=r"^sigma must lie in Z_28, got Z_27$"):
        S3S4Invariant(CyclicGroup(27).element(1), 1)
    with pytest.raises(ValueError, match=r"^elements live in different groups: Z_28 vs Z_5$"):
        CyclicGroup(28).element(1) + cyclic_group(5).element(1)
    with pytest.raises(
        ValueError, match=r"^element of Z_14 tested against a subgroup of Z_28$"
    ):
        subgroup_generated(28, 4).contains(CyclicGroup(14).element(2))


_BAD_KNOWN_GROUPS = [
    (("finite", 2.5), TypeError, r"^order must be an int, got float$"),
    (("finite", None), TypeError, r"^order must be an int, got NoneType$"),
    (("finite", -3), ValueError, r"^finite group order must be >= 1, got -3$"),
    (("z_times_finite", 0), ValueError, r"^torsion order must be >= 1, got 0$"),
    (("unknown", 5), ValueError, r"^an unknown group has no order, got 5$"),
    (("bogus", 1), ValueError, r"^group kind must be 'finite', 'z_times_finite' "
     r"or 'unknown', got 'bogus'$"),
]


@pytest.mark.parametrize(
    "args, error, message",
    _BAD_KNOWN_GROUPS,
    ids=["float", "none", "negative", "zero-torsion", "unknown-with-order", "bogus"],
)
def test_known_group_rejects_a_bad_kind_or_order(args, error, message):
    with pytest.raises(error, match=message):
        KnownGroup(*args)
    kind, order = args
    with pytest.raises(error, match=message):
        KnownGroup(kind=kind, order=order)


def test_known_group_accepts_its_three_kinds_and_bool_orders():
    assert KnownGroup("finite", 28) == KnownGroup.finite(28)
    assert KnownGroup("z_times_finite", 1) == KnownGroup.z_times_finite(1)
    assert KnownGroup("unknown") == KnownGroup("unknown", None) == KnownGroup.unknown()
    assert KnownGroup("finite", True) == KnownGroup.finite(1)
    assert KnownGroup(**{**_fields(KnownGroup.finite(3)), "order": 5}) == KnownGroup.finite(5)
    with pytest.raises(ValueError, match=r"^finite group order must be >= 1, got 0$"):
        KnownGroup.finite(0)
    with pytest.raises(ValueError, match=r"^torsion order must be >= 1, got -1$"):
        KnownGroup.z_times_finite(-1)


_BOOL_ARGUMENTS = {
    "KnownGroup": (lambda: KnownGroup("finite", True), "order"),
    "KnownGroup.finite": (lambda: KnownGroup.finite(True), "order"),
    "KnownGroup.z_times_finite": (lambda: KnownGroup.z_times_finite(True), "order"),
    "CyclicGroup": (lambda: CyclicGroup(True), "order"),
    "l_group": (lambda: l_group(True), "dim"),
    "LClass.dim": (lambda: LClass(True, 0), "dim"),
    "LClass.value": (lambda: LClass(4, True), "value"),
    "NormalClassDiff.dim": (lambda: NormalClassDiff(True), "dim"),
    "NormalClassDiff.phi": (lambda: NormalClassDiff(4, True), "phi"),
    "S3S4Invariant": (lambda: S3S4Invariant(0, True), "v"),
    "S4S4Manifold.u": (lambda: S4S4Manifold(True, 7, 0), "u"),
    "S4S4Manifold.v": (lambda: S4S4Manifold(7, True, 0), "v"),
}


@pytest.mark.parametrize(
    "build, field", _BOOL_ARGUMENTS.values(), ids=_BOOL_ARGUMENTS.keys()
)
def test_a_bool_argument_is_stored_as_the_int_it_equals(build, field):
    value = build()
    assert type(getattr(value, field)) is int
    assert "True" not in repr(value)


def test_a_bool_order_shares_the_cached_value_of_its_int():
    assert KnownGroup.finite(True) is KnownGroup.finite(1)
    assert KnownGroup.z_times_finite(True) is KnownGroup.z_times_finite(1)
    assert repr(KnownGroup.finite(True).as_json()) == "{'kind': 'finite', 'order': 1}"


@pytest.mark.parametrize("first", [True, 1], ids=["bool-first", "int-first"])
def test_a_bool_order_shares_the_cached_group_of_its_int(first):
    # From cold caches, whichever of True and 1 is asked first, both keys
    # hold one Z_1, and a subgroup of it reaches the same value.
    _cyclic_group.cache_clear()
    _subgroup.cache_clear()
    shared = cyclic_group(first)
    assert cyclic_group(True) is shared is cyclic_group(1)
    assert type(shared.order) is int
    sub = subgroup_generated(True, 5)
    assert sub.ambient is shared and sub is subgroup_generated(1, 5)
    with pytest.raises(TypeError, match="^order must be an int, got float$"):
        cyclic_group(2.0)


def _group(n, shared):
    return cyclic_group(n) if shared else CyclicGroup(n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_mixed_shared_and_fresh_groups_match_the_oracle(
    n, a, b, g, shared_x, shared_y, shared_subgroup
):
    x = CyclicElement(_group(n, shared_x), a)
    y = _group(n, shared_y).element(b)
    assert (x + y).value == ((a % n) + (b % n)) % n
    assert (x - y).value == ((a % n) - (b % n)) % n
    assert (x + y).group.order == n
    if shared_subgroup:
        sub = subgroup_generated(n, g)
    else:
        sub = CyclicSubgroup(CyclicGroup(n), g)
    elements = brute_subgroup(n, g)
    for z in (x, y, x + y, x - y):
        assert sub.contains(z) == (z.value in elements)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(-200, 200),
    st.booleans(),
    st.booleans(),
)
def test_mixing_groups_of_different_orders_still_raises(n, m, a, shared_x, shared_y):
    if n == m:
        m += 1
    x = _group(n, shared_x).element(a)
    y = _group(m, shared_y).element(a)
    mixed = re.escape(f"elements live in different groups: {x.group} vs {y.group}")
    with pytest.raises(ValueError, match=mixed):
        x + y
    with pytest.raises(ValueError, match=mixed):
        x - y
    sub = subgroup_generated(m, a) if shared_y else CyclicSubgroup(CyclicGroup(m), a)
    outside = re.escape(f"element of {x.group} tested against a subgroup of {sub.ambient}")
    with pytest.raises(ValueError, match=outside):
        sub.contains(x)


@pytest.mark.parametrize(
    "value, symbol",
    [
        (cyclic_group(28).element(3), "+"),
        (cyclic_group(28).element(3), "-"),
        (LClass(4, 1), "+"),
    ],
    ids=["element+", "element-", "LClass+"],
)
@pytest.mark.parametrize("other", [1, 1.5, None, BP8], ids=["int", "float", "None", "group"])
def test_arithmetic_with_a_foreign_operand_is_unsupported(value, symbol, other):
    # The class's own operator steps aside, so Python refuses either order
    # with its own TypeError instead of failing on the operand's fields.
    operate = {"+": lambda a, b: a + b, "-": lambda a, b: a - b}[symbol]
    for a, b in ((value, other), (other, value)):
        message = re.escape(
            f"unsupported operand type(s) for {symbol}: "
            f"'{type(a).__name__}' and '{type(b).__name__}'"
        )
        with pytest.raises(TypeError, match=f"^{message}$"):
            operate(a, b)


@pytest.mark.parametrize("other", [3, 1.5, None, BP8], ids=["int", "float", "None", "group"])
def test_membership_of_a_foreign_argument_is_refused(other):
    # Refused with a TypeError that names the argument, as the operators
    # refuse a foreign operand, not by failing on its fields.
    message = f"x must be a CyclicElement, got {type(other).__name__}"
    with pytest.raises(TypeError, match=f"^{message}$"):
        subgroup_generated(28, 4).contains(other)


# The ten shapes of the theta_diff ops of the classify-grid benchmark.
_THETA_DIFF_SHAPES = [(4, 4), (4, 8), (8, 4), (8, 8), (3, 4), (4, 3),
                      (2, 6), (6, 2), (4, 6), (5, 7)]


def _assert_same_value(built, constructed):
    # Equal in type, repr, hash and protocol-4 pickle bytes.
    assert type(built) is type(constructed)
    assert repr(built) == repr(constructed)
    assert built == constructed and hash(built) == hash(constructed)
    assert pickle.dumps(built, 4) == pickle.dumps(constructed, 4)


_PHI = st.integers(-10**6, 10**6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_THETA_DIFF_SHAPES), _PHI, _PHI, _PHI)
def test_theta_diff_builds_the_value_its_constructor_builds(shape, pu, pv, pw):
    # theta_diff drafts its class; LClass's constructor normalises one.
    p, q = shape
    u, v, w = NormalClassDiff(p, pu), NormalClassDiff(q, pv), NormalClassDiff(p + q, pw)
    value = pairing_coefficient(p, q) * u.phi * v.phi + t(p + q) * w.phi
    _assert_same_value(theta_diff(p, q, u, v, w), LClass(p + q, value))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_THETA_DIFF_SHAPES), _PHI, _PHI)
def test_del_map_builds_the_value_its_constructor_builds(shape, phi_u, phi_v):
    p, q = shape
    n = p + q
    group = CyclicGroup(t(n) if n % 4 == 0 else 1)
    value = pairing_coefficient(p, q) * phi_u * phi_v
    _assert_same_value(del_map(p, q, phi_u, phi_v), CyclicElement(group, value))


_ORDER = st.one_of(st.integers(1, 100), st.integers(1, 10**40))


@settings(max_examples=200, deadline=None)
@given(_ORDER, st.integers(-10**40, 10**40))
def test_each_draft_core_builds_the_value_its_constructor_builds(n, g):
    # The uncached cores, so that no shared value is replaced.
    generator = CyclicSubgroup(CyclicGroup(n), g).generator_value
    pairs = [
        (_cyclic_group.__wrapped__(n), CyclicGroup(n)),
        (_subgroup.__wrapped__(n, generator), CyclicSubgroup(CyclicGroup(n), g)),
        (_element(cyclic_group(n), g % n), CyclicElement(CyclicGroup(n), g)),
        (_finite.__wrapped__(n), KnownGroup("finite", n)),
        (_z_times_finite.__wrapped__(n), KnownGroup("z_times_finite", n)),
    ]
    for built, constructed in pairs:
        _assert_same_value(built, constructed)


def test_element_arithmetic_builds_the_value_its_constructor_builds():
    z28 = cyclic_group(28)
    x, y = CyclicElement(z28, 5), CyclicElement(z28, 27)
    _assert_same_value(x + y, CyclicElement(z28, 32))
    _assert_same_value(x - y, CyclicElement(z28, -22))
    _assert_same_value(-x, CyclicElement(z28, -5))


_WRITERS = {
    method.__code__
    for cls in VALUE_CLASSES
    for method in (cls.__init__, cls.__setstate__)
}
_U, _V, _W = NormalClassDiff(4, 3), NormalClassDiff(8, -2), NormalClassDiff(12, 1)
_U5, _V7 = NormalClassDiff(5), NormalClassDiff(7)


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta_diff(4, 8, _U, _V, _W),
        lambda: theta_diff(5, 7, _U5, _V7, _W),
        lambda: del_map(4, 4, 3, -5),
        lambda: plumbing_boundary_class(3, 5),
    ],
    ids=["theta_diff(4, 8)", "theta_diff(5, 7)", "del_map(4, 4)",
         "plumbing_boundary_class"],
)
def test_a_warm_library_value_runs_no_constructor_or_writer(call):
    # Drafts: no __init__ and no __setstate__ of any value class runs.
    assert _WRITERS.isdisjoint(entered_codes(call))


@pytest.mark.parametrize(
    "call",
    [lambda: del_map(4, 4, 3, -5), lambda: plumbing_boundary_class(3, 5)],
    ids=["del_map(4, 4)", "plumbing_boundary_class"],
)
def test_a_first_del_map_builds_its_element_as_a_draft(call):
    # On a miss, del_map's core fills a draft too.
    structset._del_map.cache_clear()
    assert _WRITERS.isdisjoint(entered_codes(call, warm=False))


def test_theta_diff_keys_its_cache_by_the_pair():
    # (8, 8), (4, 12) and (12, 4) share p + q and the coordinates' phi,
    # but (8, 8) has another c, so a key without the pair would mix them.
    for p, q in ((8, 8), (4, 12), (12, 4), (8, 8)):
        u, v, w = NormalClassDiff(p, 1), NormalClassDiff(q, 1), NormalClassDiff(16, 1)
        assert theta_diff(p, q, u, v, w).value == pairing_coefficient(p, q) + t(16)


def test_a_warm_theta_diff_enters_only_itself():
    # The pair test of check_pair is inline, and the answer is read from
    # the core's cache, a builtin one like t's.
    assert entered(lambda: theta_diff(4, 8, _U, _V, _W)) == ["theta_diff"]


def test_a_first_theta_diff_enters_its_core_and_builds_a_draft():
    # On a miss the core runs too, and reads c off the record of the pair
    # and t_n from t's cache, both warm builtin caches; it drafts its class.
    def call():
        return theta_diff(4, 8, _U, _V, _W)

    call()
    ltheory._theta_diff.cache_clear()
    codes = entered_codes(call, warm=False)
    assert [code.co_name for code in codes[1:]] == ["theta_diff", "_theta_diff"]
    assert _WRITERS.isdisjoint(codes)
