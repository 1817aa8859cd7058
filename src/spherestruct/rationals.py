"""Exact rational Bernoulli numbers.

Integers throughout the package are plain Python ``int`` (arbitrary
precision) and rationals are ``fractions.Fraction``, which is always kept
in lowest terms with a positive denominator.  Nothing in this package
touches floating point.

Bernoulli numbers use the topologist's indexing: ``bernoulli(k)`` is the
absolute value of the classical B_{2k}, so

    bernoulli(1) = 1/6,  bernoulli(2) = 1/30,  bernoulli(3) = 1/42, ...

They are derived from the tangent numbers T_k of ``levine`` through

    |B_{2k}| = 2k T_k / (4^k (4^k - 1)),

with the index rule and cap (``MAX_BERNOULLI_INDEX``) that ``levine``
applies to ``num_b_over_4k``.  This module is the only one that forms a
rational, and so the only one that imports ``fractions``, which pulls in
``decimal`` and ``numbers``: t_i, bP_m and everything above them need
only the integer core in ``levine``, so a caller that never asks for a
Bernoulli number never loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _HOMES
from .levine import _check_index, _tangent

__all__ = _HOMES["rationals"]


@lru_cache(maxsize=None, typed=True)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the topologist's indexing, i.e. |B_{2k}|.

    Exact for 1 <= k <= MAX_BERNOULLI_INDEX, computed as
    2k T_k / (4^k (4^k - 1)) from the tangent numbers; all indices up to k
    together cost O(k^2) integer operations.  Results are cached in a
    typed cache, so a float index never hits the entry of a bool or int
    it equals and is always rejected.
    """
    _check_index("bernoulli", k)
    return Fraction(2 * k * _tangent(k), 4**k * (4**k - 1))
