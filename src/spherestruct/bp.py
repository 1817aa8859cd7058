"""Orders of the groups bP_m of spheres bounding parallelisable manifolds.

For k >= 2 the group bP_{4k} is cyclic of order given by the Levine order
formula

    t_{4k} = a_k * 2^(2k-2) * (2^(2k-1) - 1) * Num(B_k / 4k),

where a_k is 2 for odd k and 1 for even k, B_k is the k-th Bernoulli
number in the topologist's indexing, and Num(.) takes the numerator in
lowest terms.  t_4 is 2 by definition: it is the order of the cokernel of
the smooth-to-topological comparison on degree-4 normal invariants, where
bP_4 itself is trivial.  (The formula evaluated at k = 1 happens to give
2 as well.)  For i not divisible by 4 we set t_i = 0.

First values: t_4 = 2, t_8 = 28, t_12 = 992, t_16 = 8128 (= 64 * 127; the
value 8182 seen in some printed tables is a misprint), t_20 = 261632.

The residual group of a pair (p, q) is the subgroup of bP_{p+q} generated
by 8 * t_p * t_q.  It is the cokernel of the smooth normal-invariant map
of S^p x S^q, hence the obstruction to the image of the forgetful map to
the topological structure set being a subgroup.  Its order is always odd:
the 2-adic valuation of 8 * t_{4j} * t_{4k} is at least that of t_{4(j+k)}.

For a pair (4j, 4k), with c = 8 * t_{4j} * t_{4k} and n = t_{4(j+k)}, the
split (g, Z_r) has g = gcd(c, n) and r = n / g.  It is cached once per
pair by ``residual_split``.  ``residual_group`` hands out its Z_r, and
``structset`` reads g and r for every stabiliser of the (4j-1, 4k) shape:
the subgroup <d * c> of Z_n has canonical generator g * gcd(d, r).  So a
stabiliser call and a residual call of one pair warm each other.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .cyclic import CyclicGroup, cyclic_group
from .rationals import MAX_BERNOULLI_INDEX, num_b_over_4k
from .tables import GroupTable, KnownGroup, bp_from_table

__all__ = [
    "t",
    "bp_order",
    "check_pair",
    "pairing_coefficient",
    "residual_group",
    "residual_of_checked_pair",
    "residual_split",
    "image_f_residual",
]


def t(i: int) -> int:
    """The constant t_i: |bP_{4k}| for i = 4k >= 8, 2 for i = 4, else 0.

    Multiples of 4 are capped at i <= 4 * MAX_BERNOULLI_INDEX, because
    t_{4k} needs the Bernoulli number of index k.  Their values are
    cached, so repeated calls cost a dictionary lookup; other arguments
    are answered before the cache, which therefore holds at most
    MAX_BERNOULLI_INDEX entries.
    """
    if i < 1:
        raise ValueError(f"t(i) requires i >= 1, got {i}")
    return _t_multiple_of_4(i) if i % 4 == 0 else 0


@lru_cache(maxsize=None)
def _t_multiple_of_4(i: int) -> int:
    k = i // 4
    if k > MAX_BERNOULLI_INDEX:
        raise ValueError(
            f"t(i) requires i <= {4 * MAX_BERNOULLI_INDEX} for multiples of 4 "
            f"(the Bernoulli index cap is {MAX_BERNOULLI_INDEX}), got {i}"
        )
    if k == 1:
        return 2
    a_k = 2 if k % 2 == 1 else 1
    return a_k * 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * num_b_over_4k(k)


def bp_order(m: int, table: GroupTable | None = None) -> KnownGroup:
    """Order of bP_m as a KnownGroup.

    Odd m and m = 4 give the trivial group, m = 4k >= 8 is computed by the
    Levine order formula, and m = 2 mod 4 is a table lookup (typically
    unknown unless forced or overridden).  Formula values are shared and
    cached; the table is consulted on every call.
    """
    if m < 4:
        raise ValueError(f"bp_order(m) requires m >= 4, got {m}")
    if m % 2 == 1 or m == 4:
        return KnownGroup.trivial()
    if m % 4 == 0:
        return KnownGroup.finite(t(m))
    return bp_from_table(m, table)


def check_pair(p: int, q: int) -> None:
    """Reject dimensions (p, q) that do not describe S^p x S^q with
    p, q >= 2 and p + q >= 5, the range the surgery sequence covers."""
    if p < 2 or q < 2 or p + q < 5:
        raise ValueError(
            f"sphere factors need p, q >= 2 with p + q >= 5, got ({p}, {q})"
        )


def pairing_coefficient(a: int, b: int) -> int:
    """8 * t_a * t_b: the L-group pairing of the comparison images, which
    generates the residual group and the stabilisers.

    Zero when a or b is not a multiple of 4, answered without computing
    the other factor, so that one is not held to the cap of ``t``; an
    argument below 1 raises as in ``t``.  Other values are cached."""
    if a % 4 or b % 4:
        if min(a, b) < 1:
            t(min(a, b))  # raises the ValueError of t
        return 0
    return _pairing_coefficient(a, b)


# Bounded: its arguments are multiples of 4 up to the cap of t, and a
# product at the cap has up to 4284 digits, about 1.8 kB.
@lru_cache(maxsize=1024)
def _pairing_coefficient(a: int, b: int) -> int:
    return 8 * t(a) * t(b)


def residual_group(p: int, q: int) -> CyclicGroup:
    """The subgroup of bP_{p+q} generated by 8 * t_p * t_q, as a cyclic group.

    Trivial unless both p and q are divisible by 4.  Always computable:
    a nontrivial answer needs p + q = 4(j + k) with j + k >= 2, where the
    order formula applies.  The result is a shared, cached value.
    """
    check_pair(p, q)
    return residual_of_checked_pair(p, q)


_TRIVIAL = cyclic_group(1)


def residual_of_checked_pair(p: int, q: int) -> CyclicGroup:
    """``residual_group`` for a pair the caller has already passed through
    ``check_pair``."""
    if p % 4 or q % 4:
        return _TRIVIAL
    return residual_split(p, q)[1]


# Bounded: its arguments are multiples of 4 up to the cap of t, and an
# entry at the cap holds two numbers of up to 4281 digits.
@lru_cache(maxsize=4096)
def residual_split(p: int, q: int) -> tuple[int, CyclicGroup]:
    """The split (g, Z_r) of a pair (p, q) of positive multiples of 4:
    g = gcd(8 t_p t_q, t_{p+q}) and r = t_{p+q} / g."""
    # The product comes from the uncached formula and Z_r is built here,
    # so a cold call fills this cache alone; Z_r is shared through it.
    generator = _pairing_coefficient.__wrapped__(p, q)
    ambient = t(p + q)
    g = gcd(generator, ambient)
    return g, CyclicGroup(ambient // g)


def image_f_residual(p: int, q: int) -> CyclicGroup:
    """The residual group of S^{4j} x S^{4k}; the forgetful image in the
    topological structure set is a subgroup exactly when this group is
    trivial.  Other shapes are rejected."""
    if p % 4 != 0 or q % 4 != 0 or p < 4 or q < 4:
        raise ValueError(
            f"image_f_is_subgroup expects dimensions (4j, 4k), got ({p}, {q})"
        )
    return residual_of_checked_pair(p, q)
