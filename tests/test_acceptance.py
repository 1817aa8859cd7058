"""Acceptance gate: the shipped guarantees, re-checked in one place.

Every test prints exactly one ``ACCEPTANCE nn (name): PASS`` or ``FAIL``
line (run pytest with ``-s`` to see them stream; failures surface the
line in the captured output).  All quantities are exact integers or
rationals, so each check is an equality, never a tolerance.
"""

import time
from math import gcd

from spherestruct import (
    KnownGroup,
    bernoulli,
    bp_order,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    plumbing_boundary_class,
    residual_group,
    s3s4_inertia_group,
    t,
)

from helpers import (
    bernoulli_oracle,
    check_cyclic_against_bruteforce,
    check_s3s4_equivalence_laws,
    check_theta_diff_box,
    t_oracle,
    von_staudt_clausen_denominator,
)


def _gate(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def test_acceptance_01_t_constants():
    def body():
        assert t(4) == 2
        assert t(8) == 28
        assert t(12) == 992
        assert t(16) == 8128
        assert t(16) == 64 * 127

    _gate(1, "t-constants", body)


def test_acceptance_02_bp_orders():
    def body():
        assert bp_order(8) == KnownGroup.finite(28)
        assert bp_order(12) == KnownGroup.finite(992)
        assert bp_order(16) == KnownGroup.finite(8128)
        for m in range(5, 26, 2):
            assert bp_order(m).is_trivial, m

    _gate(2, "bp-orders", body)


def test_acceptance_03_residual_orders():
    def body():
        assert residual_group(4, 4).order == 7
        assert residual_group(4, 8).order == 31
        assert residual_group(4, 12).order == 127
        assert residual_group(8, 8).order == 127

    _gate(3, "residual-orders", body)


def test_acceptance_04_s3s4_fibres():
    def body():
        for d in range(-100, 101):
            expected = 28 if d % 7 == 0 else 4
            assert eta_fiber_size(3, 4, d) == KnownGroup.finite(expected), d
        for y in range(-60, 61):
            expected = 28 if y % 7 == 0 else 4
            assert forgetful_fiber(3, 4, 2 * y) == KnownGroup.finite(expected), y

    _gate(4, "s3s4-fibres", body)


def test_acceptance_05_s4s4_obstruction():
    def body():
        for u in range(-50, 51):
            for v in range(-50, 51):
                assert del_map(4, 4, u, v).is_zero == ((u * v) % 7 == 0), (u, v)
        for d in range(-100, 101):
            assert eta_fiber_size(4, 4, d) == KnownGroup.finite(2), d

    _gate(5, "s4s4-obstruction", body)


def test_acceptance_06_plumbing_boundary():
    def body():
        for u in range(-50, 51):
            for v in range(-50, 51):
                assert plumbing_boundary_class(u, v).is_zero == ((u * v) % 7 == 0), (u, v)
                assert plumbing_boundary_class(u, v).value == (-4 * u * v) % 28, (u, v)

    _gate(6, "plumbing-boundary", body)


def test_acceptance_07_inertia_groups():
    def body():
        for v in range(-100, 101):
            assert s3s4_inertia_group(v).order == 14 // gcd(14, v), v

    _gate(7, "inertia-groups", body)


def test_acceptance_08_group_structure():
    def body():
        for p in range(2, 19):
            for q in range(2, 19):
                n = p + q
                if n < 5 or n > 20:
                    continue
                # normalise: odd-total pairs are written (odd, even)
                np_, nq_ = (q, p) if (n % 2 == 1 and q % 2 == 1) else (p, q)
                blocked = (np_ % 4 == 3 and nq_ % 4 == 0) or (
                    np_ % 4 == 0 and nq_ % 4 == 0
                )
                assert group_structure_possible(p, q).possible == (not blocked), (p, q)
        for p, q in ((4, 4), (4, 8), (4, 12), (8, 8)):
            verdict = group_structure_possible(p, q)
            assert not verdict.possible, (p, q)
            assert "not a subgroup" in verdict.reason, (p, q)

    _gate(8, "group-structure", body)


def test_acceptance_09_residual_odd_and_fast():
    def body():
        start = time.perf_counter()
        for j in range(1, 101):
            for k in range(1, 101):
                group = residual_group(4 * j, 4 * k)
                assert group.order % 2 == 1, (j, k)
                assert group.order > 1, (j, k)
        assert time.perf_counter() - start < 5.0

    _gate(9, "residual-odd-and-fast", body)


def test_acceptance_10_property_oracles():
    def body():
        for k in range(1, 41):
            value = bernoulli(k)
            assert value == bernoulli_oracle(k), k
            assert value.denominator == von_staudt_clausen_denominator(k), k
        for i in range(1, 41):
            assert t(i) == t_oracle(i), i
        for n in range(1, 49):
            for g in range(n + 1):
                check_cyclic_against_bruteforce(n, g, exhaustive_membership=True)
        for n in range(49, 1001, 7):
            for g in (0, 1, 2, 3, n // 2, n - 1, 28, 992):
                check_cyclic_against_bruteforce(n, g, exhaustive_membership=False)
        for g in range(0, 1001, 11):
            check_cyclic_against_bruteforce(1000, g, exhaustive_membership=False)
        check_s3s4_equivalence_laws(v_span=8)
        check_theta_diff_box(
            [(4, 4), (4, 8), (8, 4), (3, 4), (4, 3), (2, 3), (5, 7), (4, 5), (8, 8)],
            span=3,
        )

    _gate(10, "property-oracles", body)
