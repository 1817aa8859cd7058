import json
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spherestruct import (
    CyclicGroup,
    GroupTable,
    KnownGroup,
    NormalClassDiff,
    TableError,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    parse_table,
    present,
    residual_group,
    stabilizer,
    subgroup_generated,
    t,
    theta_diff,
    theta_order,
    top_structure_set,
)
from spherestruct.bp import pairing_coefficient
from spherestruct.ltheory import LClass
from spherestruct import bp
from spherestruct.structset import (
    ACTION_FREE,
    ACTION_STABILIZER,
    GroupStructureVerdict,
    StructureSetPresentation,
    TopStructureSet,
    normalize_dims,
)
from spherestruct.tables import builtin_table

from test_tables import _overrides


def test_normalize_dims():
    assert normalize_dims(3, 4) == (3, 4)
    assert normalize_dims(4, 3) == (3, 4)
    assert normalize_dims(2, 3) == (3, 2)
    assert normalize_dims(4, 4) == (4, 4)
    assert normalize_dims(3, 5) == (3, 5)
    with pytest.raises(ValueError):
        normalize_dims(1, 10)
    with pytest.raises(ValueError):
        normalize_dims(2, 2)


def test_present_s3_s4():
    pres = present(3, 4)
    assert (pres.p, pres.q) == (3, 4)
    assert pres.theta_group == KnownGroup.finite(28)
    assert pres.bp_next == KnownGroup.finite(28)
    assert pres.residual.order == 1
    assert pres.action_case == ACTION_STABILIZER
    assert pres.stabilizer_coefficient == 32
    assert stabilizer(pres.p, pres.q, 1) == subgroup_generated(28, 32)
    assert stabilizer(pres.p, pres.q, 7).order == 1
    assert pres.normal_invariants[0] == KnownGroup.trivial()
    assert pres.normal_invariants[1] == KnownGroup.z_times_finite(1)


def test_present_s4_s4():
    pres = present(4, 4)
    assert pres.theta_group == KnownGroup.finite(2)
    assert pres.bp_next == KnownGroup.trivial()
    assert pres.residual.order == 7
    assert pres.action_case == ACTION_FREE
    assert pres.stabilizer_coefficient is None
    payload = pres.as_dict()
    assert payload["residual_order"] == 7
    assert payload["fiber_group_order"] == 2
    assert payload["residual_generator_coefficient"] == 32


def test_present_low_dimensional_free_case():
    pres = present(2, 3)
    assert (pres.p, pres.q) == (3, 2)
    assert (pres.input_p, pres.input_q) == (2, 3)
    assert pres.action_case == ACTION_FREE
    assert pres.residual.order == 1
    assert pres.theta_group == KnownGroup.finite(1)
    assert pres.bp_next == KnownGroup.trivial()  # forced table entry
    # A trivial Theta_5 is written 0, not by name.
    assert pres.sequence_text() == (
        "0 -> 0 -> S^Diff(S^3 x S^2) -> pi_3(G/O) x pi_2(G/O) -> 0 -> 0"
    )


def test_present_unknown_dimensions_render_symbolically():
    pres = present(17, 5)
    assert pres.theta_group.is_unknown
    assert "Theta_22(order unknown)" in pres.sequence_text()
    assert pres.as_dict()["fiber_group_order"] == "unknown"


def test_del_map_values():
    assert del_map(4, 4, 1, 1).value == 4
    assert del_map(4, 4, 1, 1).group.order == 28
    assert del_map(4, 4, 1, 7).is_zero
    assert del_map(4, 4, -1, 1).value == 24
    assert del_map(3, 4, 5, 9).is_zero
    assert del_map(3, 4, 5, 9).group.order == 1
    assert del_map(2, 6, 1, 1).is_zero  # p + q = 0 mod 4 but t_2 = 0
    assert del_map(2, 6, 1, 1).group.order == 28


def test_del_map_vanishing_iff_7_divides_uv():
    for u in range(-50, 51):
        for v in range(-50, 51):
            assert del_map(4, 4, u, v).is_zero == ((u * v) % 7 == 0), (u, v)


def test_stabilizer_shapes():
    assert stabilizer(3, 4, 1) == subgroup_generated(28, 32)
    assert stabilizer(3, 4, 1).order == 7
    assert stabilizer(3, 4, 7).order == 1
    assert stabilizer(3, 4, 0).order == 1
    assert stabilizer(3, 4, -1).order == 7
    assert stabilizer(4, 3, 1).order == 7  # normalised to (3, 4)
    assert stabilizer(7, 8, 1).ambient.order == t(16)
    assert stabilizer(7, 8, 1).order == 127


def test_stabilizer_free_shapes_are_trivial():
    assert stabilizer(4, 4, 5).order == 1
    assert stabilizer(2, 3, 9).order == 1
    assert stabilizer(5, 4, 2).order == 1
    assert stabilizer(2, 5, 1).ambient.order == 28  # bP_8 ambient, trivial subgroup
    assert stabilizer(2, 5, 1).order == 1


def test_stabilizer_orders_divide_ambient():
    for j in range(1, 4):
        for k in range(1, 4):
            p, q = 4 * j - 1, 4 * k
            ambient = t(4 * (j + k))
            for d in range(-6, 7):
                sub = stabilizer(p, q, d)
                assert sub.ambient.order == ambient
                assert ambient % sub.order == 0
                # <8 d t t> always sits inside <8 t t>
                coefficient = 8 * t(p + 1) * t(q)
                assert (coefficient * d) % sub.generator_value == 0


def test_stabilizer_order_is_r_over_gcd_d_r():
    # The order of <d c> in bP_{4(j+k)} is r / gcd(d, r), r the residual
    # order of (4j, 4k): it changes with d, which is why the structure set
    # has no compatible group structure.
    for j in range(1, 9):
        for k in range(1, 9):
            r = residual_group(4 * j, 4 * k).order
            for d in (*range(-30, 31), r, -r, 3 * r + 1, 10**40, -(10**40) * r):
                order = stabilizer(4 * j - 1, 4 * k, d).order
                assert order == r // gcd(d, r), (j, k, d)
            assert stabilizer(4 * j - 1, 4 * k, 0).is_trivial
            assert stabilizer(4 * j - 1, 4 * k, 1).order == r > 1


_SPLIT_PAIR = st.tuples(
    st.integers(min_value=1, max_value=23), st.integers(min_value=1, max_value=23)
).filter(lambda jk: sum(jk) <= 24)


@settings(max_examples=300, deadline=None)
@given(_SPLIT_PAIR, st.integers(min_value=-(10**6), max_value=10**6))
@example((1, 1), 0)
@example((1, 1), -1)
@example((12, 12), 0)
@example((23, 1), -(10**6))
@example((1, 23), 10**6)
def test_stabilizer_matches_the_subgroup_of_d_times_the_pairing(jk, d):
    j, k = jk
    expected = subgroup_generated(
        t(4 * (j + k)), d * pairing_coefficient(4 * j, 4 * k)
    )
    assert stabilizer(4 * j - 1, 4 * k, d) == expected
    assert stabilizer(4 * k, 4 * j - 1, d) == expected


def test_non_integer_inputs_are_rejected_with_their_name():
    for call, message in (
        (lambda: stabilizer(3, 4, 0.5), "d must be an int, got float"),
        (lambda: stabilizer(4, 4, 2.0), "d must be an int, got float"),
        (lambda: eta_fiber_size(3, 4, 0.5), "d must be an int, got float"),
        (lambda: eta_fiber_size(4, 17, 0.5), "d must be an int, got float"),
        (lambda: forgetful_fiber(3, 4, 0.5), "top_invariant must be an int, got float"),
        (lambda: forgetful_fiber(3, 4, "2"), "top_invariant must be an int, got str"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()
    # Booleans are ints and stay accepted.
    assert stabilizer(3, 4, True) == stabilizer(3, 4, 1)
    assert eta_fiber_size(3, 4, False) == eta_fiber_size(3, 4, 0)
    assert forgetful_fiber(3, 4, False) == forgetful_fiber(3, 4, 0)


def test_floats_never_enter_an_element():
    for call, message in (
        (lambda: del_map(4, 4, 1.5, 2), "phi_u must be an int, got float"),
        (lambda: del_map(4, 4, 2, 0.5), "phi_v must be an int, got float"),
        # the zero map rejects them too
        (lambda: del_map(3, 5, 1.5, 2), "phi_u must be an int, got float"),
        (lambda: del_map(4, 4, 0.0, 0), "phi_u must be an int, got float"),
        # checked before the product, which would repeat the string
        (lambda: del_map(4, 4, 10**5, "ab"), "phi_v must be an int, got str"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()
    assert del_map(4, 4, True, 3) == del_map(4, 4, 1, 3)


def test_floats_never_enter_an_lclass():
    one, zero = NormalClassDiff(4, 1), NormalClassDiff(8, 0)
    for call, message in (
        (lambda: NormalClassDiff(4, 1.5), "phi must be an int, got float"),
        (lambda: NormalClassDiff(4.0, 1), "dim must be an int, got float"),
        (lambda: LClass(8, 48.0), "value must be an int, got float"),
        (lambda: LClass(8.0, 48), "dim must be an int, got float"),
        (
            lambda: theta_diff(4, 4, NormalClassDiff(4, 1.5), one, zero),
            "phi must be an int, got float",
        ),
        (lambda: theta_diff(4.0, 4, one, one, zero), "p must be an int, got float"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()
    got = theta_diff(4, 4, NormalClassDiff(4, True), one, zero)
    assert got == theta_diff(4, 4, one, one, zero) == LClass(8, 32)
    assert type(got.value) is int


def test_eta_fiber_sizes_s3_s4():
    assert eta_fiber_size(3, 4, 1) == KnownGroup.finite(4)
    assert eta_fiber_size(3, 4, 7) == KnownGroup.finite(28)
    for d in range(-100, 101):
        expected = 4 if gcd(d, 7) == 1 else 28
        assert eta_fiber_size(3, 4, d) == KnownGroup.finite(expected), d


def test_eta_fiber_sizes_s4_s4():
    for d in range(-100, 101):
        assert eta_fiber_size(4, 4, d) == KnownGroup.finite(2), d


def test_eta_fiber_unknown_theta():
    assert eta_fiber_size(17, 5, 0).is_unknown
    # an override can make it known
    table = parse_table('{"theta": {"22": "4"}}')
    assert eta_fiber_size(17, 5, 0, table) == KnownGroup.finite(4)


def test_eta_fiber_rejects_inconsistent_table():
    # The table that would give eta_fiber_size(3, 4, 1) an inexact
    # quotient is rejected when it is built, by hand as by parse_table.
    with pytest.raises(TableError, match=r"^\|bP_8\| = 28 does not divide \|Theta_7\| = 5;"):
        GroupTable(theta={7: KnownGroup.finite(5)})


@settings(max_examples=150, deadline=None)
@given(_overrides(), st.data())
def test_eta_fiber_size_is_a_known_group_for_every_valid_table(override, data):
    # The chain check of every table makes the quotient |Theta_n| / |stab(d)|
    # exact, so eta_fiber_size has no error branch to reach.
    table = parse_table(json.dumps(override))
    dims = [int(n) for n in override.get("theta", {}) if int(n) >= 5]
    n = data.draw(st.sampled_from(sorted(dims) or list(range(5, 21))))
    p = data.draw(st.integers(2, n - 2))
    d = data.draw(st.integers(-60, 60))
    fiber = eta_fiber_size(p, n - p, d, table)
    assert type(fiber) is KnownGroup
    theta = theta_order(n, table)
    if theta.is_unknown:
        assert fiber.is_unknown
    else:
        assert fiber.order * stabilizer(p, n - p, d).order == theta.order


def test_top_structure_set():
    top = top_structure_set(3, 4)
    assert (top.p_factor.symbol, top.q_factor.symbol) == ("0", "Z")
    assert not top.is_singleton
    assert top_structure_set(4, 4).p_factor.symbol == "Z"
    assert top_structure_set(3, 3).is_singleton
    assert top_structure_set(2, 6).p_factor.symbol == "Z/2"


def test_group_structure_verdicts():
    verdict = group_structure_possible(3, 4)
    assert not verdict
    assert verdict.reason == "non-constant stabilizers"
    verdict = group_structure_possible(4, 4)
    assert not verdict.possible
    assert verdict.reason == "image not a subgroup"
    assert group_structure_possible(2, 5).possible
    assert group_structure_possible(2, 5).reason is None
    assert group_structure_possible(3, 5).possible
    assert not group_structure_possible(4, 3).possible  # normalised (3, 4)
    # The verdict is the same in both orders of every pair.
    for p in range(2, 60):
        for q in range(max(2, 5 - p), 60):
            assert group_structure_possible(p, q) == group_structure_possible(q, p), (p, q)


def test_the_consequence_values_refuse_a_field_of_the_wrong_type():
    # Each failed late: TopStructureSet(1, 2).is_singleton raised
    # AttributeError, and bool(GroupStructureVerdict("yes", 3)) raised
    # "__bool__ should return bool".
    z = top_structure_set(4, 4).p_factor
    for call, message in (
        (lambda: TopStructureSet(1, 2), "p_factor must be an LGroupKind, got int"),
        (lambda: TopStructureSet(z, "Z"), "q_factor must be an LGroupKind, got str"),
        (lambda: GroupStructureVerdict("yes", 3), "possible must be a bool, got str"),
        (lambda: GroupStructureVerdict(1), "possible must be a bool, got int"),
        (
            lambda: GroupStructureVerdict(False, 3),
            "reason must be a str or None, got int",
        ),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()
    # The library builds the same values as before.
    assert TopStructureSet(z, z) == top_structure_set(4, 4)
    assert GroupStructureVerdict(True) == group_structure_possible(2, 5)
    verdict = GroupStructureVerdict(False, "image not a subgroup")
    assert verdict == group_structure_possible(4, 4)


def test_a_presentation_refuses_a_field_of_the_wrong_type():
    # StructureSetPresentation(1, 2, ..., 10).lines() once raised
    # AttributeError: 'int' object has no attribute 'is_unknown'.
    with pytest.raises(TypeError, match="^theta_group must be a KnownGroup, got int$"):
        StructureSetPresentation(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    pres = present(4, 3)
    fields = {name: getattr(pres, name) for name in pres.__slots__}
    z = fields["theta_group"]
    for name, value, error, message in (
        ("p", 4.0, TypeError, "p must be an int, got float"),
        ("q", "3", TypeError, "q must be an int, got str"),
        ("input_p", None, TypeError, "input_p must be an int, got NoneType"),
        ("input_q", 3.0, TypeError, "input_q must be an int, got float"),
        ("theta_group", 28, TypeError, "theta_group must be a KnownGroup, got int"),
        ("bp_next", None, TypeError, "bp_next must be a KnownGroup, got NoneType"),
        (
            "normal_invariants", [z, z], TypeError,
            "normal_invariants must be a tuple of two KnownGroup, got list",
        ),
        (
            "normal_invariants", (z, 2), TypeError,
            r"normal_invariants must be a tuple of two KnownGroup, got \(KnownGroup, int\)",
        ),
        (
            "normal_invariants", (z,), TypeError,
            r"normal_invariants must be a tuple of two KnownGroup, got \(KnownGroup\)",
        ),
        ("residual", 1, TypeError, "residual must be a CyclicGroup, got int"),
        (
            "action_case", "free", ValueError,
            "action_case must be 'free_everywhere' or 'stabilizers_vary_with_d', "
            "got 'free'",
        ),
        (
            "stabilizer_coefficient", 32.0, TypeError,
            "stabilizer_coefficient must be an int, got float",
        ),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            StructureSetPresentation(**{**fields, name: value})
    # A bool int field is the int it equals, and None is a coefficient.
    built = StructureSetPresentation(**{**fields, "input_q": True})
    assert type(built.input_q) is int and built.input_q == 1
    built = StructureSetPresentation(**{**fields, "stabilizer_coefficient": None})
    assert built.stabilizer_coefficient is None
    assert StructureSetPresentation(**fields) == pres


def test_a_presentation_refuses_a_subclass_of_cyclic_group():
    class Group(CyclicGroup):
        pass

    pres = present(4, 3)
    fields = {name: getattr(pres, name) for name in pres.__slots__}
    residual = Group(pres.residual.order)
    with pytest.raises(TypeError, match="^residual must be a CyclicGroup, got Group$"):
        StructureSetPresentation(**{**fields, "residual": residual})


def test_a_verdict_whose_reason_contradicts_it_is_refused():
    # GroupStructureVerdict(False).lines() once printed "group structure
    # possible: no (None)", and a possible verdict carried a reason that
    # lines() dropped.
    for possible, reason, message in (
        (False, None, r"reason None contradicts possible=False"),
        (True, "x", r"reason 'x' contradicts possible=True"),
        (True, "x" * 1000, r"reason <str of 1002 characters> contradicts possible=True"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GroupStructureVerdict(possible, reason)
    # The type checks come first.
    with pytest.raises(TypeError, match="^reason must be a str or None, got int$"):
        GroupStructureVerdict(False, 3)
    with pytest.raises(TypeError, match="^possible must be a bool, got int$"):
        GroupStructureVerdict(0)
    assert GroupStructureVerdict(True).lines() == ["group structure possible: yes"]
    assert GroupStructureVerdict(False, "image not a subgroup").lines() == [
        "group structure possible: no (image not a subgroup)"
    ]


def test_group_structure_cross_check_against_component_tests():
    # Reconstruct the two obstructions from del_map and stabilizer outputs
    # and compare with the verdict, p + q <= 16.
    for p in range(2, 15):
        for q in range(2, 15):
            if p + q < 5 or p + q > 16:
                continue
            image_is_subgroup = residual_group(p, q).order == 1
            stabilizers = {stabilizer(p, q, d) for d in range(0, 30)}
            constant = len(stabilizers) == 1
            expected = image_is_subgroup and constant
            assert group_structure_possible(p, q).possible == expected, (p, q)


def test_forgetful_fiber():
    assert forgetful_fiber(3, 4, 2) == KnownGroup.finite(4)
    assert forgetful_fiber(3, 4, 14) == KnownGroup.finite(28)
    assert forgetful_fiber(3, 4, 0) == KnownGroup.finite(28)
    assert forgetful_fiber(4, 3, 2) == KnownGroup.finite(4)
    with pytest.raises(ValueError, match="odd"):
        forgetful_fiber(3, 4, 3)
    with pytest.raises(ValueError, match="S\\^3 x S\\^4"):
        forgetful_fiber(4, 4, 2)


def test_forgetful_fiber_split_matches_divisibility():
    for y in range(-60, 61):
        expected = 28 if y % 7 == 0 else 4
        assert forgetful_fiber(3, 4, 2 * y) == KnownGroup.finite(expected), y
        assert forgetful_fiber(4, 3, 2 * y) == KnownGroup.finite(expected), y
    # Both orders reject the same inputs with the same error.
    for x in (-3, 1, 7):
        for pair in ((3, 4), (4, 3)):
            with pytest.raises(ValueError, match=f"^topological normal invariant {x} is odd"):
                forgetful_fiber(*pair, x)
    for p, q in ((4, 4), (3, 5), (5, 3), (2, 5), (3, 8)):
        with pytest.raises(ValueError, match=rf"S\^3 x S\^4, got \({p}, {q}\)$"):
            forgetful_fiber(p, q, 2)


def test_exactness_bookkeeping_over_boxes():
    # Image values of del_map generate exactly the residual subgroup, and
    # the kernel over a box is cut out by divisibility by the residual
    # order.
    for p, q in [(4, 4), (4, 8), (8, 8)]:
        ambient = t(p + q)
        coefficient = 8 * t(p) * t(q)
        residual_order = residual_group(p, q).order
        index = ambient // residual_order
        image = set()
        for u in range(-20, 21):
            for v in range(-20, 21):
                value = del_map(p, q, u, v)
                assert value.value % index == 0  # lands in the subgroup
                image.add(value.value)
                assert value.is_zero == ((u * v) % residual_order == 0)
        assert image <= set(range(0, ambient, index))
        assert coefficient % ambient in image  # u = v = 1, so the image generates
        assert subgroup_generated(ambient, coefficient).order == residual_order


def test_present_validates_range():
    with pytest.raises(ValueError):
        present(1, 6)
    with pytest.raises(ValueError):
        del_map(2, 2, 1, 1)


def test_override_and_builtin_never_share_answers():
    override = parse_table(
        '{"theta": {"21": "4"}, "bp": {"22": "2"}, "pi_go_torsion": {"4": "3"}}'
    )
    builtin = present(4, 17)
    for first, second in ((None, override), (override, None)):
        a = present(4, 17, first)
        b = present(4, 17, second)
        with_override, without = (b, a) if first is None else (a, b)
        assert with_override.theta_group == KnownGroup.finite(4)
        assert with_override.bp_next == KnownGroup.finite(2)
        assert with_override.normal_invariants[1] == KnownGroup.z_times_finite(3)
        assert without == builtin
        assert without.theta_group.is_unknown and without.bp_next.is_unknown
        assert without.normal_invariants[1] == KnownGroup.z_times_finite(1)
        assert eta_fiber_size(4, 17, 1, override) == KnownGroup.finite(4)
        assert eta_fiber_size(4, 17, 1).is_unknown


_FACTOR = st.integers(min_value=2, max_value=18)
_D = st.integers(min_value=-500, max_value=500)


@settings(max_examples=200, deadline=None)
@given(_FACTOR, _FACTOR, _D)
def test_fibre_times_stabiliser_is_theta(p, q, d):
    if p + q < 5:
        return
    theta = theta_order(p + q)
    fibre = eta_fiber_size(p, q, d)
    assert fibre.is_unknown == theta.is_unknown
    if not theta.is_unknown:
        assert fibre.order * stabilizer(p, q, d).order == theta.order


@settings(max_examples=200, deadline=None)
@given(_FACTOR, _FACTOR)
def test_present_is_symmetric_after_normalisation(p, q):
    if p + q < 5:
        return
    forward, backward = present(p, q), present(q, p)
    assert (forward.input_p, forward.input_q) == (p, q)
    assert (backward.input_p, backward.input_q) == (q, p)
    fields = {name: getattr(backward, name) for name in backward.__slots__}
    if (p + q) % 2 == 0:  # nothing is normalised, so the factors swap
        fields.update(p=p, q=q, normal_invariants=backward.normal_invariants[::-1])
    fields.update(input_p=p, input_q=q)
    assert forward == StructureSetPresentation(**fields)


@settings(max_examples=200, deadline=None)
@given(_D)
def test_forgetful_fibre_is_the_eta_fibre_over_half_the_invariant(y):
    assert forgetful_fiber(3, 4, 2 * y) == eta_fiber_size(3, 4, y)
    assert forgetful_fiber(4, 3, 2 * y) == eta_fiber_size(3, 4, y)


_J = st.integers(min_value=1, max_value=11)
_PHI = st.integers(min_value=-10**6, max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(_J, st.data(), _PHI, _PHI)
def test_del_map_is_theta_diff_reduced_into_bp(j, data, phi_u, phi_v):
    k = data.draw(st.integers(min_value=1, max_value=12 - j), label="k")
    p, q = 4 * j, 4 * k
    obstruction = theta_diff(
        p, q, NormalClassDiff(p, phi_u), NormalClassDiff(q, phi_v),
        NormalClassDiff(p + q, 0),
    )
    image = del_map(p, q, phi_u, phi_v)
    assert image.group.order == t(p + q)
    assert image.value == obstruction.value % t(p + q)


@settings(max_examples=200, deadline=None)
@given(_FACTOR, _FACTOR, _PHI, _PHI)
def test_del_map_vanishes_off_the_4j_4k_shape(p, q, phi_u, phi_v):
    assume(p + q >= 5 and (p % 4 != 0 or q % 4 != 0))
    assert del_map(p, q, phi_u, phi_v).is_zero


@settings(max_examples=200, deadline=None)
@given(_J, st.data(), _PHI, _PHI)
def test_del_map_is_odd_in_the_first_invariant(j, data, phi_u, phi_v):
    # Bilinearity: del(-u, v) = -del(u, v), which plumbing_boundary_class
    # relies on to build the boundary class as one element.
    k = data.draw(st.integers(min_value=1, max_value=12 - j), label="k")
    p, q = 4 * j, 4 * k
    assert del_map(p, q, -phi_u, phi_v) == -del_map(p, q, phi_u, phi_v)


@settings(max_examples=200, deadline=None)
@given(_FACTOR, _FACTOR, _PHI, _PHI)
def test_del_map_is_odd_off_the_4j_4k_shape(p, q, phi_u, phi_v):
    assume(p + q >= 5 and (p % 4 != 0 or q % 4 != 0))
    assert del_map(p, q, -phi_u, phi_v) == -del_map(p, q, phi_u, phi_v)


def _presentation_from_cores(p, q):
    # What present(p, q) says, assembled from normalize_dims, a shape test
    # on the normalised pair and the public residual_group, bp_order and
    # pairing_coefficient, without the inlined swap and the shape branches
    # of present.
    np_, nq = normalize_dims(p, q)
    n, table = np_ + nq, builtin_table()
    varies = np_ % 4 == 3 and nq % 4 == 0
    return StructureSetPresentation(
        np_, nq, p, q, table.theta_order(n), bp.bp_order(n + 1, table),
        (table.pi_go(np_), table.pi_go(nq)), residual_group(np_, nq),
        ACTION_STABILIZER if varies else ACTION_FREE,
        bp.pairing_coefficient(np_ + 1, nq) if varies else None,
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 60), st.integers(2, 60), st.integers(-200, 200), st.booleans())
@example(3, 4, 1, False)
@example(4, 3, 0, False)
@example(22, 24, 5, True)
def test_the_doors_agree_with_normalize_dims_and_the_cores(p, q, d, swap):
    # present repeats the swap of normalize_dims inline, and stabilizer
    # reads the pair as given through the symmetric shape table; each
    # must answer as on the normalised pair.  eta_fiber_size reads
    # stabilizer with the pair as given.
    assume(p + q >= 5)
    if swap:
        p, q = q, p
    np_, nq = normalize_dims(p, q)
    assert stabilizer(p, q, d) == stabilizer(np_, nq, d)
    assert eta_fiber_size(p, q, d) == eta_fiber_size(np_, nq, d)
    assert present(p, q) == _presentation_from_cores(p, q)


def test_the_top_set_renders_as_the_top_set_subcommand_did():
    # The reference is the payload and text the CLI's handler built
    # itself before the value rendered itself.
    for p in range(2, 14):
        for q in range(max(2, 5 - p), 14):
            top = top_structure_set(p, q)
            assert top.as_dict() == {
                "factors": [top.p_factor.symbol, top.q_factor.symbol],
                "is_group": True,
                "singleton": top.is_singleton,
            }
            text = [f"S^Top(S^{p} x S^{q}) = {top} (a group)"]
            if top.is_singleton:
                text.append("the topological structure set is a single point")
            assert top.lines() == text


def test_the_three_verdicts_render_as_the_group_structure_subcommand_did():
    verdicts = {
        group_structure_possible(p, q) for p in range(2, 30) for q in range(max(2, 5 - p), 30)
    }
    assert {verdict.lines()[0] for verdict in verdicts} == {
        "group structure possible: yes",
        "group structure possible: no (non-constant stabilizers)",
        "group structure possible: no (image not a subgroup)",
    }
    for verdict in verdicts:
        assert verdict.as_dict() == {"possible": verdict.possible, "reason": verdict.reason}
        if verdict.possible:
            text = ["group structure possible: yes"]
        else:
            text = [f"group structure possible: no ({verdict.reason})"]
        assert verdict.lines() == text
