import pytest

from spherestruct import LClass, LGroupKind, NormalClassDiff, l_group, theta_diff

from helpers import check_theta_diff_box, forgetful_f, pairing, theta_top


def test_l_group_periodicity():
    assert [l_group(i).symbol for i in range(8)] == [
        "Z", "0", "Z/2", "0", "Z", "0", "Z/2", "0",
    ]


def test_l_group_rejects_a_non_integer_or_negative_dimension():
    with pytest.raises(TypeError, match="^i must be an int, got float$"):
        l_group(4.0)
    with pytest.raises(ValueError, match=r"^l_group\(i\) requires i >= 0, got -1$"):
        l_group(-1)


def test_an_l_group_kind_names_the_group_of_its_dimension():
    # The dimension follows the index rule, and the symbol must be the one
    # that l_group gives; LGroupKind(2.5, "Q") was built.
    with pytest.raises(TypeError, match="^dim must be an int, got float$"):
        LGroupKind(2.5, "Q")
    with pytest.raises(ValueError, match=r"^LGroupKind\(dim\) requires dim >= 0, got -1$"):
        LGroupKind(-1, "0")
    with pytest.raises(ValueError, match=r"^the L-group in dimension 2 is 'Z/2', got 'Q'$"):
        LGroupKind(2, "Q")
    with pytest.raises(ValueError, match=r"^the L-group in dimension 4 is 'Z', got 4$"):
        LGroupKind(4, 4)
    assert [LGroupKind(i, l_group(i).symbol) for i in range(8)] == [
        l_group(i) for i in range(8)
    ]


def test_an_l_class_and_a_normal_invariant_refuse_a_negative_dimension():
    # The index rule of LGroupKind and l_group; both were built.
    with pytest.raises(ValueError, match=r"^LClass\(dim\) requires dim >= 0, got -3$"):
        LClass(-3, 1)
    with pytest.raises(
        ValueError, match=r"^NormalClassDiff\(dim\) requires dim >= 0, got -4$"
    ):
        NormalClassDiff(-4, 3)
    assert LClass(0, 5) == LClass(False, 5) and NormalClassDiff(0, 5).phi == 5


def test_lclass_normalisation():
    assert LClass(3, 17).value == 0
    assert LClass(10, 3).value == 1
    assert LClass(10, -4).value == 0
    assert LClass(8, -3).value == -3
    assert LClass(7, 1).is_zero
    assert str(LClass(4, 3)) == "3*z_4"


def test_lclass_addition():
    assert (LClass(8, 3) + LClass(8, 4)).value == 7
    assert (LClass(10, 1) + LClass(10, 1)).is_zero
    with pytest.raises(ValueError):
        LClass(8, 1) + LClass(4, 1)


def test_pairing_values():
    assert pairing(4, 4, LClass(4, 1), LClass(4, 1)) == LClass(8, 8)
    assert pairing(4, 4, LClass(4, 3), LClass(4, -2)) == LClass(8, -48)
    assert pairing(3, 4, LClass(3, 0), LClass(4, 5)).is_zero
    assert pairing(2, 6, LClass(2, 1), LClass(6, 1)).is_zero
    assert pairing(4, 8, LClass(4, 0), LClass(8, 9)).is_zero


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(4, 4, LClass(8, 1), LClass(4, 1))


def test_pairing_biadditive_on_z_degrees():
    for x1 in range(-3, 4):
        for x2 in range(-3, 4):
            for y in range(-3, 4):
                left = pairing(4, 8, LClass(4, x1 + x2), LClass(8, y))
                right = pairing(4, 8, LClass(4, x1), LClass(8, y)) + pairing(
                    4, 8, LClass(4, x2), LClass(8, y)
                )
                assert left == right


def test_theta_top_values():
    assert theta_top(4, 4, LClass(4, 1), LClass(4, 1), LClass(8, 0)) == LClass(8, 8)
    assert theta_top(4, 4, LClass(4, 1), LClass(4, 1), LClass(8, -8)).is_zero
    assert theta_top(3, 4, LClass(3, 0), LClass(4, 7), LClass(7, 0)).is_zero


def test_theta_top_kernel_matches_formula():
    for x in range(-5, 6):
        for y in range(-5, 6):
            for z in range(-5, 6):
                got = theta_top(4, 4, LClass(4, x), LClass(4, y), LClass(8, z))
                assert got.is_zero == (8 * x * y + z == 0)


def test_theta_top_validates_dimensions():
    with pytest.raises(ValueError):
        theta_top(2, 2, LClass(2, 0), LClass(2, 0), LClass(4, 0))
    with pytest.raises(ValueError):
        theta_top(4, 4, LClass(4, 0), LClass(4, 0), LClass(7, 0))


def test_normal_class_normalises_phi():
    assert NormalClassDiff(3, 5).phi == 0
    assert NormalClassDiff(6, 5).phi == 0
    assert NormalClassDiff(8, 5).phi == 5


def test_forgetful_multiplies_by_t():
    assert forgetful_f(NormalClassDiff(4, 1)) == LClass(4, 2)
    assert forgetful_f(NormalClassDiff(8, 1)) == LClass(8, 28)
    assert forgetful_f(NormalClassDiff(8, -3)) == LClass(8, -84)
    assert forgetful_f(NormalClassDiff(12, 2)) == LClass(12, 1984)
    assert forgetful_f(NormalClassDiff(3, 0)).is_zero
    assert forgetful_f(NormalClassDiff(6, 0)).is_zero


def test_theta_diff_values():
    u = NormalClassDiff(4, 1)
    v = NormalClassDiff(4, 1)
    assert theta_diff(4, 4, u, v, NormalClassDiff(8, 0)) == LClass(8, 32)
    # kernel witness: 8 * t_4 * t_4 * 7 = 224 = 28 * 8
    assert theta_diff(
        4, 4, NormalClassDiff(4, 7), v, NormalClassDiff(8, -8)
    ).is_zero
    assert theta_diff(
        3, 4, NormalClassDiff(3, 0), v, NormalClassDiff(7, 0)
    ).is_zero


def test_theta_diff_validates_dimensions():
    with pytest.raises(ValueError):
        theta_diff(
            4, 4, NormalClassDiff(4, 0), NormalClassDiff(8, 0), NormalClassDiff(8, 0)
        )


def test_theta_diff_equals_closed_formula_on_boxes():
    check_theta_diff_box(
        [(4, 4), (4, 8), (8, 4), (3, 4), (4, 3), (2, 5), (4, 2), (2, 6), (5, 5)],
        span=3,
    )
