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
record (c, g, Z_r, <c>) has g = gcd(c, n), r = n / g, and the residual
subgroup <c> = <g> of Z_n, of order r, as the shared
``cyclic._subgroup(n, g)`` value.  ``_residual_split`` caches one record
per unordered pair, because all four are symmetric in p and q: (4k, 4j)
reuses the record of (4j, 4k), with no second gcd.  It is the only home
of these numbers: ``pairing_coefficient`` and ``ltheory._theta_diff``
read c, ``structset`` reads the record for every stabiliser of the
(4j-1, 4k) shape (the subgroup <d * c> of Z_n has canonical generator
g * gcd(d, r), so it is <c> itself for every d coprime to r) and Z_r
for its presentations, and ``consequences`` reads Z_r for its
group-structure verdicts and hands it out through ``image_f_residual``.
So any first call of a pair warms the others, in either order.

The shape of a pair decides which of these numbers an answer needs, and
``_SHAPES`` is its one home: ``_SHAPES[p & 3][q & 3]`` is ``_STABILIZER``
for {4j-1, 4k} (stabilisers vary with d, so there is no group
structure), ``_RESIDUAL`` for (4j, 4k) (a residual group, so the
forgetful image is not a subgroup when it is nontrivial) and ``_FREE``
for every other pair (the action is free).  The table is symmetric, so
it names the shape of a pair in either order; every shape test in the
package is one subscript of it, and ``structset.present``, whose result
shows the order, is the only function that repeats the swap of
``structset.normalize_dims``.

Each argument is checked once, where it enters.  Public functions check
their arguments and keep their messages; the ``_``-prefixed cores
(``_t_multiple_of_4`` from ``levine`` and the record
``_residual_split``) assume checked ones, and the package's own callers
that have already checked a pair call the cores: the residual group is
Z_r off the record for a pair (4j, 4k) and ``_TRIVIAL`` for every other
shape.  ``bp_order`` is the checked door to ``GroupTable.bp_order``;
both, and ``t``, check their index by the package's one range rule,
``cyclic._checked_index``, which every index door shares with its
message form.  A core's cache must never see an unchecked argument,
because it keys (4.0, 4) and (4, 4) alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _HOMES
from .cyclic import (
    CyclicGroup,
    CyclicSubgroup,
    _checked_index,
    _exact_int,
    _group,
    _shown,
    _subgroup,
    cyclic_group,
)
from .levine import _t_multiple_of_4
from .tables import _BUILTIN, GroupTable, KnownGroup, _checked_table

__all__ = _HOMES["bp"]


def t(i: int) -> int:
    """The constant t_i: |bP_{4k}| for i = 4k >= 8, 2 for i = 4, else 0.

    Multiples of 4 are capped at i <= 4 * MAX_BERNOULLI_INDEX, because
    t_{4k} needs the Bernoulli number of index k.  Their values are
    cached, so repeated calls cost a dictionary lookup; other arguments
    are answered before the cache, which therefore holds at most
    MAX_BERNOULLI_INDEX entries.
    """
    if type(i) is not int or i < 1:
        i = _checked_index("t", "i", i, 1)
    return _t_multiple_of_4(i) if i % 4 == 0 else 0


def bp_order(m: int, table: GroupTable | None = None) -> KnownGroup:
    """Order of bP_m as a KnownGroup.

    Odd m and m = 4 give the trivial group, m = 4k >= 8 is computed by the
    Levine order formula, and m = 2 mod 4 is a table lookup (typically
    unknown unless forced or overridden).  Formula values are shared and
    cached; the table is consulted on every call.
    """
    if type(m) is not int or m < 4:
        m = _checked_index("bp_order", "m", m, 4)
    return (_BUILTIN if table is None else _checked_table(table)).bp_order(m)


def check_pair(p: int, q: int) -> None:
    """Reject dimensions (p, q) that do not describe S^p x S^q with
    p, q >= 2 and p + q >= 5, the range the surgery sequence covers."""
    if type(p) is not int or type(q) is not int:
        p, q = _exact_int("p", p), _exact_int("q", q)
    if p < 2 or q < 2 or p + q < 5:
        raise ValueError(
            "sphere factors need p, q >= 2 with p + q >= 5, "
            f"got ({_shown(p)}, {_shown(q)})"
        )


# The shape of a pair (p, q), in either order: _SHAPES[p & 3][q & 3].
_FREE, _STABILIZER, _RESIDUAL = "free", "stabilizer", "residual"
_SHAPES = (
    (_RESIDUAL, _FREE, _FREE, _STABILIZER),
    (_FREE, _FREE, _FREE, _FREE),
    (_FREE, _FREE, _FREE, _FREE),
    (_STABILIZER, _FREE, _FREE, _FREE),
)


def pairing_coefficient(a: int, b: int) -> int:
    """8 * t_a * t_b: the L-group product of the comparison images, which
    generates the residual group and the stabilisers.

    Zero when a or b is not a multiple of 4, answered without computing
    the other factor, so that one is not held to the cap of ``t``.  A
    non-int argument raises ``TypeError`` first, then an argument below 1
    raises as in ``t`` (before the cap of the other), and past the cap
    the error names the first of a, b and a + b beyond it.
    Otherwise it is read from the record of the pair, which also needs
    t_{a+b}."""
    if type(a) is not int or type(b) is not int:
        a, b = _exact_int("a", a), _exact_int("b", b)
    if min(a, b) < 1:
        t(min(a, b))
    return _residual_split(a, b)[0] if _SHAPES[a & 3][b & 3] is _RESIDUAL else 0


_TRIVIAL = cyclic_group(1)


def residual_group(p: int, q: int) -> CyclicGroup:
    """The subgroup of bP_{p+q} generated by 8 * t_p * t_q, as a cyclic group.

    Trivial unless both p and q are divisible by 4.  Always computable:
    a nontrivial answer needs p + q = 4(j + k) with j + k >= 2, where the
    order formula applies.  The result is a shared, cached value.
    """
    check_pair(p, q)
    return _residual_split(p, q)[2] if _SHAPES[p & 3][q & 3] is _RESIDUAL else _TRIVIAL


# Bounded: its arguments are multiples of 4 up to the cap of t, and a
# record at the cap holds four numbers of up to 4284 digits.  A mirrored
# key (p > q) shares the record of (q, p), so the bound of 8192 keys still
# holds 4096 records when every pair is asked in both orders.
@lru_cache(maxsize=8192)
def _residual_split(
    p: int, q: int
) -> tuple[int, int, CyclicGroup, CyclicSubgroup]:
    """The record (c, g, Z_r, <c>) of a pair (p, q) of positive multiples
    of 4: c = 8 t_p t_q, g = gcd(c, t_{p+q}), r = t_{p+q} / g, and <c>
    the subgroup of Z_{t_{p+q}} that c generates, stored by its canonical
    generator g.

    One record per unordered pair: all four are symmetric in p and q,
    so a miss with p > q returns the record of (q, p), the same tuple.
    It asks t of p first, so in either order a cap error names the first
    of p, q and p + q past the cap."""
    if p > q:
        _t_multiple_of_4(p)
        return _residual_split(q, p)
    c = 8 * _t_multiple_of_4(p) * _t_multiple_of_4(q)
    ambient = _t_multiple_of_4(p + q)
    g = gcd(c, ambient)
    return c, g, _group(ambient // g), _subgroup(ambient, g)
