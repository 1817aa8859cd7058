
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherestruct import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    subgroup_generated,
)
from spherestruct.cyclic import cyclic_group

from helpers import check_cyclic_against_bruteforce


def test_subgroup_canonical_generator_and_order():
    sub = subgroup_generated(28, 32)
    assert sub.generator_value == 4
    assert sub.order == 7

    assert subgroup_generated(28, 7).order == 4
    assert subgroup_generated(992, 448).generator_value == 32
    assert subgroup_generated(992, 448).order == 31


def test_trivial_subgroup_and_full_group():
    trivial = subgroup_generated(12, 0)
    assert trivial.order == 1
    assert trivial.generator_value == 12
    assert subgroup_generated(12, 24).order == 1
    assert subgroup_generated(12, 5).order == 12
    assert subgroup_generated(1, 0).order == 1


def test_subgroup_equality_is_canonical():
    assert subgroup_generated(28, 32) == subgroup_generated(28, 4)
    assert subgroup_generated(28, 32) == subgroup_generated(28, -4)
    assert subgroup_generated(28, 32) != subgroup_generated(28, 2)


def test_negative_generators():
    assert subgroup_generated(28, -32).generator_value == 4


def test_rejects_bad_order():
    # One order rule, cyclic._checked_order, and one text for it.
    message = r"^cyclic group order must be >= 1, got 0$"
    with pytest.raises(ValueError, match=message):
        subgroup_generated(0, 3)
    with pytest.raises(ValueError, match=message):
        CyclicGroup(0)


def test_membership_examples():
    z28 = CyclicGroup(28)
    sub = subgroup_generated(28, 32)
    assert sub.contains(z28.element(4))
    assert sub.contains(z28.element(24))
    assert not sub.contains(z28.element(1))
    assert subgroup_generated(28, 0).contains(z28.element(0))
    assert not subgroup_generated(28, 0).contains(z28.element(14))


def test_membership_requires_matching_group():
    with pytest.raises(ValueError):
        subgroup_generated(28, 4).contains(CyclicGroup(14).element(2))


def test_element_arithmetic():
    z28 = CyclicGroup(28)
    a = z28.element(30)
    assert a.value == 2
    assert (a + z28.element(27)).value == 1
    assert (a - z28.element(4)).value == 26
    assert (-a).value == 26
    assert z28.element(0).is_zero
    assert str(CyclicElement(CyclicGroup(28), 5)) == "5 in Z_28"
    with pytest.raises(ValueError):
        a + CyclicGroup(5).element(1)


def test_against_bruteforce_exhaustive_small():
    for n in range(1, 65):
        for g in range(n):
            check_cyclic_against_bruteforce(n, g, exhaustive_membership=True)


def test_against_bruteforce_sampled_up_to_1000():
    for n in range(65, 1001, 7):
        for g in (0, 1, 2, 3, 7, 97, n // 2, n - 1):
            check_cyclic_against_bruteforce(n, g, exhaustive_membership=False)
    # a few dense spot checks at the top of the range
    for g in range(0, 1000, 13):
        check_cyclic_against_bruteforce(1000, g, exhaustive_membership=False)


def test_shared_cyclic_values_are_frozen():
    z28 = cyclic_group(28)
    assert z28 is cyclic_group(28)
    assert z28 == CyclicGroup(28)
    assert CyclicGroup(28) is not CyclicGroup(28)  # the public class still builds
    sub = subgroup_generated(28, 32)
    assert sub is subgroup_generated(28, 4)  # same subgroup, same shared value
    assert sub.ambient is z28
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'order'$"):
        z28.order = 7
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'generator_value'$"):
        sub.generator_value = 1
    with pytest.raises(ValueError):
        cyclic_group(0)
    assert cyclic_group(28).order == 28 and sub.order == 7


def test_a_non_group_first_argument_is_rejected():
    z28 = cyclic_group(28)
    for call, message in (
        (lambda: CyclicElement(28, 5), "group must be a CyclicGroup, got int"),
        (lambda: CyclicElement(None, 5), "group must be a CyclicGroup, got NoneType"),
        (lambda: CyclicSubgroup(28, 4), "ambient must be a CyclicGroup, got int"),
        (lambda: CyclicSubgroup(z28.element(1), 4),
         "ambient must be a CyclicGroup, got CyclicElement"),
        # The value is checked first, as before.
        (lambda: CyclicElement(28, 1.5), "value must be an int, got float"),
        (lambda: CyclicSubgroup(28, 1.5), "generator_value must be an int, got float"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()


def test_a_subclass_of_cyclic_group_is_rejected():
    # The group was once tested by isinstance, so a subclass, which may
    # answer another order, was taken as Z_n.
    class Group(CyclicGroup):
        pass

    z = Group(28)
    for call, message in (
        (lambda: CyclicElement(z, 5), "group must be a CyclicGroup, got Group"),
        (lambda: CyclicSubgroup(z, 4), "ambient must be a CyclicGroup, got Group"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()


def test_non_integer_values_are_rejected():
    z28 = cyclic_group(28)
    for call, message in (
        (lambda: z28.element(2.5), "value must be an int, got float"),
        (lambda: CyclicElement(z28, 1.5), "value must be an int, got float"),
        (lambda: CyclicElement(z28, "3"), "value must be an int, got str"),
        (lambda: CyclicGroup(2.5), "order must be an int, got float"),
        (lambda: CyclicSubgroup(z28, 2.5), "generator_value must be an int, got float"),
        (lambda: subgroup_generated(28, 2.0), "g must be an int, got float"),
        (lambda: subgroup_generated(28.0, 2), "n must be an int, got float"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()
    # Booleans are ints and stay accepted.
    assert z28.element(True) == z28.element(1)
    assert CyclicGroup(True) == CyclicGroup(1)
    assert subgroup_generated(28, True) == subgroup_generated(28, 1)


def test_a_group_is_trivial_exactly_at_order_one():
    assert CyclicGroup(1).is_trivial and cyclic_group(True).is_trivial
    assert not any(CyclicGroup(n).is_trivial for n in (2, 28, 992))
    assert str(CyclicGroup(1)) == "0"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(-(10**8), 10**8))
@example(28, 0)
@example(28, 32)
@example(1, 5)
def test_a_subgroup_renders_its_shown_generator(n, g):
    # The reference is the rule the CLI's stabilizer payload applied
    # itself, and the text str() printed: the generator shown as g mod n.
    for sub in (subgroup_generated(n, g), CyclicSubgroup(cyclic_group(n), g)):
        shown = sub.generator_value % n
        assert sub.as_dict() == {"ambient_order": n, "generator": shown, "order": sub.order}
        assert str(sub) == f"<{shown}> in {sub.ambient}"
