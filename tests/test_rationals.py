import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestruct import bernoulli, levine, num_b_over_4k

from helpers import (
    bernoulli_oracle,
    tangent_numbers_in_place,
    von_staudt_clausen_denominator,
)


@pytest.mark.parametrize(
    "k, expected",
    [
        (1, Fraction(1, 6)),
        (2, Fraction(1, 30)),
        (3, Fraction(1, 42)),
        (4, Fraction(1, 30)),
        (5, Fraction(5, 66)),
        (6, Fraction(691, 2730)),
        (7, Fraction(7, 6)),
        (8, Fraction(3617, 510)),
    ],
)
def test_bernoulli_small_values(k, expected):
    assert bernoulli(k) == expected


def test_bernoulli_rejects_bad_index():
    with pytest.raises(ValueError):
        bernoulli(0)
    with pytest.raises(ValueError):
        bernoulli(-3)
    with pytest.raises(ValueError):
        num_b_over_4k(0)


def test_bernoulli_agrees_with_recurrence_oracle():
    for k in range(1, 41):
        assert bernoulli(k) == bernoulli_oracle(k), k


def test_bernoulli_positive_and_lowest_terms():
    for k in range(1, 41):
        b = bernoulli(k)
        assert b > 0
        # Fraction keeps lowest terms; make the invariant explicit anyway.
        from math import gcd

        assert gcd(b.numerator, b.denominator) == 1
        assert b.denominator > 0


def test_von_staudt_clausen():
    for k in range(1, 41):
        d = bernoulli(k).denominator
        assert d == von_staudt_clausen_denominator(k), k
        assert d % 6 == 0


def test_num_b_over_4k_values():
    assert num_b_over_4k(1) == 1
    assert num_b_over_4k(2) == 1
    assert num_b_over_4k(3) == 1
    assert num_b_over_4k(6) == 691
    # frozen from the recurrence oracle
    assert num_b_over_4k(25) == 19802288209643185928499101


def test_num_b_over_4k_always_odd():
    for k in range(1, 41):
        value = num_b_over_4k(k)
        assert value >= 1
        assert value % 2 == 1, k
        assert value == (bernoulli_oracle(k) / (4 * k)).numerator


def test_bernoulli_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(1, 301):
        expected = abs(sympy.bernoulli(2 * k))
        expected = Fraction(int(expected.p), int(expected.q))
        assert bernoulli(k) == expected, k
        assert num_b_over_4k(k) == (expected / (4 * k)).numerator, k


def _cold() -> None:
    """Drop the tangent table and the Bernoulli cache, as in a fresh process."""
    levine._TANGENT = ([1], [1])
    bernoulli.cache_clear()


def _check_from_cold(indices) -> None:
    _cold()
    for k in indices:
        assert bernoulli(k) == bernoulli_oracle(k), k
        assert num_b_over_4k(k) == (bernoulli_oracle(k) / (4 * k)).numerator, k


def test_results_do_not_depend_on_call_order():
    _check_from_cold([80, *range(1, 81)])
    _check_from_cold(range(1, 81))
    shuffled = list(range(1, 81))
    random.Random(2).shuffle(shuffled)
    _check_from_cold(shuffled)


def test_results_on_each_side_of_a_table_rebuild():
    _cold()
    # The table grows to exactly the largest index asked for so far.
    largest = 1
    for k in (10, 11, 20, 21, 9, 40, 41, 80, 3, 200):
        largest = max(largest, k)
        assert bernoulli(k) == bernoulli_oracle(k), k
        assert len(levine._TANGENT[0]) == largest, k
        assert num_b_over_4k(k) == (bernoulli_oracle(k) / (4 * k)).numerator, k


def test_tangent_numbers_match_the_in_place_triangle():
    reference = tangent_numbers_in_place(300)
    _cold()
    assert levine._tangent(300) == reference[-1]
    assert levine._TANGENT[0] == reference
    _cold()
    assert [levine._tangent(k) for k in range(1, 301)] == reference


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=10))
def test_any_request_order_builds_the_table_of_one_cold_request(indices):
    _cold()
    for k in indices:
        num_b_over_4k(k)
    grown = levine._TANGENT
    _cold()
    num_b_over_4k(max(indices))
    assert grown == levine._TANGENT
    assert len(grown[0]) == len(grown[1]) == max(indices)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
def test_any_call_order_matches_oracle(indices):
    _check_from_cold(indices)


def test_indices_above_the_cap_are_rejected():
    cap = levine.MAX_BERNOULLI_INDEX
    for fn in (bernoulli, num_b_over_4k):
        with pytest.raises(ValueError, match=f"k <= {cap}"):
            fn(cap + 1)
    assert cap >= 300  # the sympy comparison above and the benchmark stay inside


def test_table_rebuild_never_grows_past_the_cap(monkeypatch):
    # With a cap of 30 the table stops at index 30.
    monkeypatch.setattr(levine, "MAX_BERNOULLI_INDEX", 30)
    _cold()
    for k in (20, 21, 30):
        assert bernoulli(k) == bernoulli_oracle(k), k
        assert len(levine._TANGENT[0]) == k, k
    with pytest.raises(ValueError):
        bernoulli(31)
    with pytest.raises(ValueError):
        num_b_over_4k(31)
    assert len(levine._TANGENT[0]) == 30
    _cold()
