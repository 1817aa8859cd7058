from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestruct import (
    BP8,
    CyclicElement,
    CyclicGroup,
    S3S4Invariant,
    S4S4Manifold,
    WallTriple,
    del_map,
    plumbing_boundary_class,
    s3s4_diffeomorphic,
    s3s4_inertia_group,
    s3s4_structure_equal,
    s4s4_almost_diffeomorphic,
    s4s4_diffeomorphic,
    stabilizer,
    subgroup_generated,
    t,
    wall_triple_of_plumbing,
)
from spherestruct import classify
from helpers import (
    check_s3s4_equivalence_laws,
    s3s4_relations_oracle,
    s4s4_almost_oracle,
    wall_triple_boundary_oracle,
)

HUGE = 10**40 + 3


def test_invariant_coercion_and_validation():
    a = S3S4Invariant(30, 1)
    assert a.sigma == BP8.element(2)
    b = S3S4Invariant(BP8.element(2), 1)
    assert a == b
    with pytest.raises(ValueError, match="sigma must lie"):
        S3S4Invariant(CyclicGroup(27).element(1), 1)


def test_non_integer_fields_are_rejected_at_construction():
    with pytest.raises(TypeError, match="^sigma must be an int or an element of Z_28, got float$"):
        S3S4Invariant(1.5, 1)
    with pytest.raises(TypeError, match="^sigma must be an int or an element of Z_28, got str$"):
        S3S4Invariant("3", 1)
    with pytest.raises(TypeError, match="^v must be an int, got float$"):
        S3S4Invariant(3, 1.5)
    with pytest.raises(TypeError, match="^v must be an int, got str$"):
        S3S4Invariant(3, "1")
    with pytest.raises(TypeError, match="^u must be an int, got float$"):
        S4S4Manifold(7.0, 1, 0)
    with pytest.raises(TypeError, match="^v must be an int, got float$"):
        S4S4Manifold(7, 1.0, 0)
    with pytest.raises(TypeError, match="^phi must be an int, got float$"):
        S4S4Manifold(7, 1, 0.5)
    with pytest.raises(TypeError, match="^u must be an int, got str$"):
        S4S4Manifold("7", 1, 0)
    with pytest.raises(TypeError, match="^v must be an int, got float$"):
        s3s4_inertia_group(0.5)
    with pytest.raises(TypeError, match="^u must be an int, got float$"):
        plumbing_boundary_class(0.5, 2)
    with pytest.raises(TypeError, match="^v must be an int, got str$"):
        plumbing_boundary_class(1, "2")
    with pytest.raises(TypeError, match="^u must be an int, got float$"):
        wall_triple_of_plumbing(0.5, 2)
    with pytest.raises(TypeError, match="^v must be an int, got str$"):
        wall_triple_of_plumbing(1, "2")
    # Booleans are ints and stay accepted.
    assert wall_triple_of_plumbing(True, False) == wall_triple_of_plumbing(1, 0)
    assert plumbing_boundary_class(True, False) == plumbing_boundary_class(1, 0)
    assert s3s4_inertia_group(True) == s3s4_inertia_group(1)
    assert S3S4Invariant(True, False).sigma == BP8.element(1)
    assert S4S4Manifold(True, 0, True).phi == 1


def test_s3s4_tables_match_the_library_rules():
    vs = [*range(-3 * 28, 3 * 28 + 1), HUGE, -HUGE, 28 * HUGE, -(28 * HUGE) - 5]
    for v in vs:
        assert s3s4_inertia_group(v) == subgroup_generated(t(8), 2 * v), v
        assert classify._S3S4_STABILIZERS[v % BP8.order] == stabilizer(3, 4, v), v


def test_s3s4_sigma_is_the_shared_element():
    for s in [*range(-60, 60), HUGE, -HUGE, 28 * HUGE]:
        sigma = S3S4Invariant(s, 1).sigma
        assert sigma == CyclicElement(BP8, s), s
        assert hash(sigma) == hash(CyclicElement(BP8, s)), s


_V = st.one_of(st.integers(-100, 100), st.integers())


@settings(max_examples=400, deadline=None)
@given(st.integers(), _V, st.integers(), st.sampled_from(["same", "negated", "other"]), _V)
def test_s3s4_predicates_match_enumerated_subgroups(sigma0, v0, sigma1, relation, other):
    v1 = {"same": v0, "negated": -v0, "other": other}[relation]
    a, b = S3S4Invariant(sigma0, v0), S3S4Invariant(sigma1, v1)
    assert (s3s4_structure_equal(a, b), s3s4_diffeomorphic(a, b)) == s3s4_relations_oracle(
        sigma0, v0, sigma1, v1
    )


def test_structure_equality_examples():
    # For v = 1 the stabiliser is <32> = <4>, of order 7.
    assert s3s4_structure_equal(S3S4Invariant(0, 1), S3S4Invariant(4, 1))
    assert s3s4_structure_equal(S3S4Invariant(0, 1), S3S4Invariant(24, 1))
    assert not s3s4_structure_equal(S3S4Invariant(0, 1), S3S4Invariant(1, 1))
    assert not s3s4_structure_equal(S3S4Invariant(0, 1), S3S4Invariant(0, 2))
    # v = 7 kills the stabiliser entirely.
    assert not s3s4_structure_equal(S3S4Invariant(0, 7), S3S4Invariant(4, 7))
    assert s3s4_structure_equal(S3S4Invariant(0, 7), S3S4Invariant(28, 7))
    # v = 0: stabiliser is trivial, only sigma matters.
    assert not s3s4_structure_equal(S3S4Invariant(0, 0), S3S4Invariant(4, 0))


def test_diffeomorphism_examples():
    # Inertia of N_1 is <2>, order 14: even sigma differences vanish.
    assert s3s4_diffeomorphic(S3S4Invariant(0, 1), S3S4Invariant(2, 1))
    assert not s3s4_diffeomorphic(S3S4Invariant(0, 1), S3S4Invariant(1, 1))
    # Opposite bundle parameter is allowed.
    assert s3s4_diffeomorphic(S3S4Invariant(0, 1), S3S4Invariant(0, -1))
    # Inertia of N_7 is <14>, order 2.
    assert s3s4_diffeomorphic(S3S4Invariant(0, 7), S3S4Invariant(14, 7))
    assert not s3s4_diffeomorphic(S3S4Invariant(0, 7), S3S4Invariant(7, 7))
    assert not s3s4_diffeomorphic(S3S4Invariant(0, 1), S3S4Invariant(0, 2))


def test_structure_equal_implies_diffeomorphic():
    values = range(0, 28, 3)
    for v in (-3, 0, 1, 2, 7, 14):
        for s0 in values:
            for s1 in values:
                a, b = S3S4Invariant(s0, v), S3S4Invariant(s1, v)
                if s3s4_structure_equal(a, b):
                    assert s3s4_diffeomorphic(a, b), (s0, s1, v)


def test_inertia_group_orders():
    assert s3s4_inertia_group(1).order == 14
    assert s3s4_inertia_group(7).order == 2
    assert s3s4_inertia_group(14).order == 1
    assert s3s4_inertia_group(0).order == 1
    for v in range(-100, 101):
        group = s3s4_inertia_group(v)
        assert group == subgroup_generated(28, 2 * v)
        assert group.order == 14 // gcd(14, v), v


def test_diffeo_class_counts():
    # With v fixed, the number of diffeomorphism classes among the 28
    # choices of sigma is the index of the inertia group.
    for v in (0, 1, 2, 7, 14, 21):
        manifolds = [S3S4Invariant(s, v) for s in range(28)]
        classes = []
        for m in manifolds:
            if not any(s3s4_diffeomorphic(m, seen) for seen in classes):
                classes.append(m)
        assert len(classes) == gcd(28, 2 * v)  # 28 itself when v = 0


def test_s3s4_equivalence_laws():
    check_s3s4_equivalence_laws(v_span=8)


def test_wall_triple_fields():
    triple = wall_triple_of_plumbing(2, -3)
    assert triple == WallTriple(48, -72)


def test_plumbing_boundary_values():
    assert plumbing_boundary_class(1, 1).value == 24  # -4 mod 28
    assert plumbing_boundary_class(1, -1).value == 4
    assert plumbing_boundary_class(0, 5).is_zero
    assert plumbing_boundary_class(7, 3).is_zero
    assert plumbing_boundary_class(2, 1).value == 20


def test_boundary_standard_iff_7_divides_uv():
    # The boundary class is -del(u, v); the Wall triple checks it, and a
    # closed manifold exists exactly when del(u, v) vanishes.
    for u in range(-60, 61):
        for v in range(-60, 61):
            expected = (u * v) % 7 == 0
            assert plumbing_boundary_class(u, v).is_zero == expected, (u, v)
            boundary = plumbing_boundary_class(u, v)
            assert boundary.value == (-4 * u * v) % 28
            assert boundary.value == wall_triple_boundary_oracle(u, v), (u, v)
            assert boundary == -del_map(4, 4, u, v), (u, v)
            try:
                S4S4Manifold(u, v, 0)
                built = True
            except ValueError:
                built = False
            assert built == del_map(4, 4, u, v).is_zero, (u, v)


def test_closed_manifold_requires_standard_boundary():
    S4S4Manifold(7, 1, 0)
    S4S4Manifold(0, 3, 1)
    with pytest.raises(ValueError) as info:
        S4S4Manifold(1, 1, 0)
    assert str(info.value) == (
        "no closed manifold for (u, v) = (1, 1): the plumbing boundary is an "
        "exotic sphere unless 7 divides u*v"
    )
    with pytest.raises(ValueError, match="exotic sphere"):
        S4S4Manifold(2, 3, 1)


def test_twist_is_reduced_mod_2():
    assert S4S4Manifold(7, 2, 5).phi == 1
    assert S4S4Manifold(7, 2, -4).phi == 0


def test_s4s4_almost_diffeomorphic():
    a = S4S4Manifold(7, 2, 0)
    assert s4s4_almost_diffeomorphic(a, S4S4Manifold(2, 7, 1))
    assert s4s4_almost_diffeomorphic(a, S4S4Manifold(-7, -2, 0))
    assert s4s4_almost_diffeomorphic(a, S4S4Manifold(-2, -7, 1))
    assert not s4s4_almost_diffeomorphic(a, S4S4Manifold(7, -2, 0))
    assert not s4s4_almost_diffeomorphic(a, S4S4Manifold(14, 1, 0))


_SEVENS = st.integers(-6, 6).map(lambda k: 7 * k)
_FACTOR = st.one_of(_SEVENS, st.integers(-50, 50))


@st.composite
def _s4s4_pair(draw):
    # u or v a multiple of 7, so that the closed manifold exists; the
    # second manifold is a signed or swapped image of the first, or new.
    u, v = draw(_SEVENS), draw(_FACTOR)
    if draw(st.booleans()):
        u, v = v, u
    images = [(u, v), (v, u), (-u, -v), (-v, -u), (u, -v), (-u, v), (v, -u), (-v, u)]
    fresh = (draw(_SEVENS), draw(_FACTOR))
    u1, v1 = draw(st.sampled_from([*images, fresh]))
    phi0, phi1 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return S4S4Manifold(u, v, phi0), S4S4Manifold(u1, v1, phi1)


@settings(max_examples=400, deadline=None)
@given(_s4s4_pair())
def test_s4s4_relations_match_the_unordered_pair_oracle(pair):
    a, b = pair
    expected = s4s4_almost_oracle(a.u, a.v, b.u, b.v)
    assert s4s4_almost_diffeomorphic(a, b) == expected
    assert s4s4_diffeomorphic(a, b) == (expected and a.phi == b.phi)


def test_s4s4_diffeomorphic_needs_matching_twist():
    a = S4S4Manifold(7, 2, 0)
    assert s4s4_diffeomorphic(a, S4S4Manifold(2, 7, 0))
    assert not s4s4_diffeomorphic(a, S4S4Manifold(2, 7, 1))
    assert s4s4_diffeomorphic(a, S4S4Manifold(-2, -7, 2))


def test_s4s4_relations_are_equivalences():
    pool = []
    for u in range(-7, 8):
        for v in range(-7, 8):
            if (u * v) % 7 == 0:
                pool.append(S4S4Manifold(u, v, 0))
                pool.append(S4S4Manifold(u, v, 1))

    def key_almost(m):
        return frozenset(
            {(m.u, m.v), (m.v, m.u), (-m.u, -m.v), (-m.v, -m.u)}
        )

    for a in pool:
        for b in pool:
            assert s4s4_almost_diffeomorphic(a, b) == (key_almost(a) == key_almost(b))
            assert s4s4_diffeomorphic(a, b) == (
                key_almost(a) == key_almost(b) and a.phi == b.phi
            )


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-200, max_value=200), st.integers(0, 27), st.integers(0, 27))
def test_structure_equality_is_stabiliser_membership(v, sigma0, sigma1):
    a, b = S3S4Invariant(sigma0, v), S3S4Invariant(sigma1, v)
    difference = (sigma0 - sigma1) % BP8.order
    assert s3s4_structure_equal(a, b) == stabilizer(3, 4, v).contains(BP8.element(difference))
    assert not s3s4_structure_equal(a, S3S4Invariant(sigma0, v + 1))
