"""The integer core of the Levine order formula: tangent numbers and t_{4k}.

The Levine order t_{4k} = a_k 2^(2k-2) (2^(2k-1) - 1) num(B_{2k} / 4k),
with a_k = 2 for odd k and 1 for even k (t_4 = 2), needs only the
numerator of |B_{2k}| / 4k, which is an integer read off the tangent
numbers T_k (the Taylor coefficients tan x = sum T_k x^(2k-1) / (2k-1)!,
so T_1, T_2, T_3, ... = 1, 2, 16, ...): since
|B_{2k}| = 2k T_k / (4^k (4^k - 1)),

    |B_{2k}| / 4k = T_k / (2 * 4^k (4^k - 1)),

so no rational is formed and this module needs no ``fractions``; the
rational ``bernoulli`` sits above it, in ``rationals``.

The tangent numbers come from the all-integer recurrence of Brent and
Harvey, "Fast computation of Bernoulli, tangent and secant numbers"
(2011), grown one column at a time: column j of their triangle starts
from j! and, after pass i, equals (j - i) times column j - 1 after pass i
plus (j - i + 2) times itself after pass i - 1; after pass j it is
T_{j+1}.  Keeping the last column after every pass is enough to add the
next one, so a request for index k computes only the columns the table
lacks, and any order of requests up to n costs one build of T_1..T_n,
O(n^2) integer operations.

Indices are capped at ``MAX_BERNOULLI_INDEX`` = 827, so t_i is computed
for i <= 3308.  The cap is where the values stop being printable: Python
refuses to convert an int of more than 4300 decimal digits to a string
(its default ``sys.get_int_max_str_digits()``), and t_3308 has 4281
digits while t_3312 has 4308.  The cap also bounds the work, whose bit
cost grows about eightfold per doubling of the index.  A larger index
raises ``ValueError`` at once instead of failing after the work is done,
with the message form of the package's one cap rule, ``cyclic._past_cap``;
an index below 1 is refused by the package's one range rule,
``cyclic._checked_index``, with the message form every index door shares.
``_check_index`` applies both for the Bernoulli doors, here and in
``rationals``.  ``_t_multiple_of_4``, the cached Levine order t_{4k} of
``bp``, sits by its one input, the unchecked core of ``num_b_over_4k``
(it checks its own cap, so k is checked once), and ``tables`` needs
nothing above it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _HOMES
from .cyclic import _checked_index, _past_cap

__all__ = _HOMES["levine"]

# Largest index bernoulli and num_b_over_4k accept, so t_i needs i <= 3308.
# It is the largest k for which t_{4k} has at most 4300 decimal digits,
# Python's default limit for int-to-str conversion: t_3308 has 4281 digits,
# t_3312 has 4308.  The products 8 t_a t_b with a + b <= 3308 that the
# structure set prints stay below the limit too (at most 4284 digits).
MAX_BERNOULLI_INDEX = 827

# (T_1..T_n, the column of T_n after each pass 0..n-1 of the triangle).
# Only ever replaced whole, by a single assignment, so a reader sees either
# the old pair or the new.  It starts from T_1 = 1, whose column is 0! = 1.
_TANGENT: tuple[list[int], list[int]] = ([1], [1])


def _tangent(k: int) -> int:
    global _TANGENT
    values, column = _TANGENT
    if k > len(values):
        values = values.copy()
        for j in range(len(values), k):
            # Column j after pass 0 is j! = j * (j - 1)!; the last pass,
            # i = j, adds nothing from column j - 1 and doubles the rest.
            x = j * column[0]
            new = [x]
            for i in range(1, j):
                x = (j - i) * column[i] + (j - i + 2) * x
                new.append(x)
            x *= 2
            new.append(x)
            values.append(x)
            column = new
        _TANGENT = values, column
    return values[k - 1]


def _check_index(name: str, k: int) -> None:
    if type(k) is not int or k < 1:
        k = _checked_index(name, "k", k, 1)
    if k > MAX_BERNOULLI_INDEX:
        raise _past_cap(name, "k", k, MAX_BERNOULLI_INDEX, " (MAX_BERNOULLI_INDEX)")


def num_b_over_4k(k: int) -> int:
    """Numerator of bernoulli(k)/4k in lowest terms (a positive integer).

    bernoulli(k)/4k = T_k / (2 * 4^k (4^k - 1)), so no rational is formed.
    """
    _check_index("num_b_over_4k", k)
    return _num_b_over_4k(k)


def _num_b_over_4k(k: int) -> int:
    # num_b_over_4k for a checked k.
    tangent = _tangent(k)
    power = 4**k
    return tangent // gcd(tangent, 2 * power * (power - 1))


@lru_cache(maxsize=None)
def _t_multiple_of_4(i: int) -> int:
    # t for a positive multiple of 4; the cap is checked here.  It holds
    # for multiples of 4 only: t(i) is 0 past it for every other i.
    k = i // 4
    if k > MAX_BERNOULLI_INDEX:
        note = f" for multiples of 4 (the Bernoulli index cap is {MAX_BERNOULLI_INDEX})"
        raise _past_cap("t", "i", i, 4 * MAX_BERNOULLI_INDEX, note)
    if k == 1:
        return 2
    a_k = 2 if k % 2 == 1 else 1
    return a_k * 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * _num_b_over_4k(k)
