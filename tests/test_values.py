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
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherestruct import (
    GroupStructureVerdict,
    KnownGroup,
    StructureSetPresentation,
    TopStructureSet,
    eta_fiber_size,
    group_structure_possible,
    l_group,
    parse_table,
    present,
    stabilizer,
    subgroup_generated,
    theta_order,
    top_structure_set,
)
from spherestruct.classify import (
    BP8,
    S3S4Invariant,
    S4S4Manifold,
    WallTriple,
    wall_triple_of_plumbing,
)
from spherestruct.cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    _cyclic_group,
    _slot_writers,
    _subgroup,
    cyclic_group,
)
from spherestruct.ltheory import LClass, LGroupKind, NormalClassDiff
from spherestruct import structset
from spherestruct.structset import ACTION_FREE, ACTION_STABILIZER, _Draft

from helpers import brute_subgroup


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

# The classes no workload builds per op, whose __init__ passes its fields
# to the guarded __setstate__, so that it refuses a built value too.
GUARDED_INIT = (
    CyclicSubgroup, KnownGroup, LGroupKind, StructureSetPresentation,
    TopStructureSet, GroupStructureVerdict, WallTriple,
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
    named = [
        name for name, writer in vars(structset).items()
        if name.startswith("_set_")
        and writer.__self__.__objclass__ is StructureSetPresentation
    ]
    assert named == []


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
