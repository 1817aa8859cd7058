"""Exact rational arithmetic and Bernoulli numbers.

Integers throughout the package are plain Python ``int`` (arbitrary
precision) and rationals are ``fractions.Fraction``, which is always kept
in lowest terms with a positive denominator.  Nothing in this package
touches floating point.

Bernoulli numbers use the topologist's indexing: ``bernoulli(k)`` is the
absolute value of the classical B_{2k}, so

    bernoulli(1) = 1/6,  bernoulli(2) = 1/30,  bernoulli(3) = 1/42, ...

They are derived from the tangent numbers T_k (the Taylor coefficients
tan x = sum T_k x^(2k-1) / (2k-1)!, so T_1, T_2, T_3, ... = 1, 2, 16, ...)
through

    |B_{2k}| = 2k T_k / (4^k (4^k - 1)).

The tangent numbers are integers and come from the all-integer in-place
recurrence of Brent and Harvey, "Fast computation of Bernoulli, tangent
and secant numbers" (2011): filling T_1..T_n costs O(n^2) integer
operations, for every index up to n at once.  The table is built on the
first request, not at import, and is rebuilt to twice its length (at
least the index asked for, at most the cap below) whenever a larger index
is asked for, so a sweep up to n stays O(n^2).

Indices are capped at ``MAX_BERNOULLI_INDEX`` = 827, so t_i is computed
for i <= 3308.  The cap is where the values stop being printable: Python
refuses to convert an int of more than 4300 decimal digits to a string
(its default ``sys.get_int_max_str_digits()``), and t_3308 has 4281
digits while t_3312 has 4308.  The cap also bounds the work, whose bit
cost grows about eightfold per doubling of the index (on a 2-core Xeon a
cold ``bernoulli(827)`` takes about 0.4 s).  A larger index raises
``ValueError`` at once instead of failing after the work is done.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = ["MAX_BERNOULLI_INDEX", "bernoulli", "num_b_over_4k"]

# Largest index bernoulli and num_b_over_4k accept, so t_i needs i <= 3308.
# It is the largest k for which t_{4k} has at most 4300 decimal digits,
# Python's default limit for int-to-str conversion: t_3308 has 4281 digits,
# t_3312 has 4308.  The products 8 t_a t_b with a + b <= 3308 that the
# structure set prints stay below the limit too (at most 4284 digits).
MAX_BERNOULLI_INDEX = 827

# _TANGENT[k - 1] is the tangent number T_k.  Only ever replaced whole, by
# a single assignment, so a reader sees either the old table or the new.
_TANGENT: list[int] = []


def _tangent_numbers(n: int) -> list[int]:
    # Brent-Harvey: start from T_k = (k - 1)!, then sweep the triangle in
    # place; after pass k the entries up to index k hold final values.
    table = [1] * n
    for j in range(1, n):
        table[j] = j * table[j - 1]
    for k in range(1, n):
        for j in range(k, n):
            table[j] = (j - k) * table[j - 1] + (j - k + 2) * table[j]
    return table


def _tangent(k: int) -> int:
    global _TANGENT
    table = _TANGENT
    if k > len(table):
        # Never past the cap, or one doubling could cost eight capped builds.
        table = _tangent_numbers(min(max(k, 2 * len(table)), MAX_BERNOULLI_INDEX))
        _TANGENT = table
    return table[k - 1]


def _check_index(name: str, k: int) -> None:
    if k < 1:
        raise ValueError(f"{name}(k) requires k >= 1, got {k}")
    if k > MAX_BERNOULLI_INDEX:
        raise ValueError(
            f"{name}(k) requires k <= {MAX_BERNOULLI_INDEX} "
            f"(MAX_BERNOULLI_INDEX), got {k}"
        )


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the topologist's indexing, i.e. |B_{2k}|.

    Exact for 1 <= k <= MAX_BERNOULLI_INDEX, computed as
    2k T_k / (4^k (4^k - 1)) from the tangent numbers; all indices up to k
    together cost O(k^2) integer operations.  Results are cached.
    """
    _check_index("bernoulli", k)
    return Fraction(2 * k * _tangent(k), 4**k * (4**k - 1))


def num_b_over_4k(k: int) -> int:
    """Numerator of bernoulli(k)/4k in lowest terms (a positive integer).

    bernoulli(k)/4k = T_k / (2 * 4^k (4^k - 1)), so no rational is formed.
    """
    _check_index("num_b_over_4k", k)
    tangent = _tangent(k)
    return tangent // gcd(tangent, 2 * 4**k * (4**k - 1))
