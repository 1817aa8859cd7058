"""Shared oracles for the test suite.

Each oracle recomputes a quantity through a route independent of the
implementation under test: Bernoulli numbers through the defining
convolution recurrence instead of the triangular one, tangent numbers by
sweeping the whole triangle in place, subgroups by brute enumeration,
obstruction values by the closed formula and by the composed maps (the
L-group product ``pairing``, the topological obstruction ``theta_top``
and the comparison map ``forgetful_f``), the plumbing boundary class
from its Wall triple, the classifier relations from enumerated subgroups
and unordered pairs, and pi_n(G/O) from table orders by the surgery
sequence of S^n, written without the table's gate.  ``entered_codes``
records the Python functions a call enters, for the tests that pin a
warm call's frames, and ``package_caches`` finds every cache of the
package.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
from fractions import Fraction
from math import comb, gcd

import spherestruct
from spherestruct import (
    KnownGroup,
    NormalClassDiff,
    bernoulli,
    s3s4_diffeomorphic,
    subgroup_generated,
    t,
    theta_diff,
    wall_triple_of_plumbing,
)
from spherestruct.bp import check_pair
from spherestruct.classify import S3S4Invariant
from spherestruct.ltheory import LClass

_CLASSICAL: list[Fraction] = [Fraction(1)]


def classical_bernoulli(n: int) -> Fraction:
    """B_n in the convention B_1 = -1/2, from sum C(m+1, j) B_j = 0."""
    while len(_CLASSICAL) <= n:
        m = len(_CLASSICAL)
        total = sum(comb(m + 1, j) * _CLASSICAL[j] for j in range(m))
        _CLASSICAL.append(-total / (m + 1))
    return _CLASSICAL[n]


def bernoulli_oracle(k: int) -> Fraction:
    return abs(classical_bernoulli(2 * k))


def tangent_numbers_in_place(n: int) -> list[int]:
    """T_1..T_n by the Brent-Harvey triangle swept in place: start from
    T_k = (k - 1)!, then after pass k the entries up to index k are final."""
    table = [1] * n
    for j in range(1, n):
        table[j] = j * table[j - 1]
    for k in range(1, n):
        for j in range(k, n):
            table[j] = (j - k) * table[j - 1] + (j - k + 2) * table[j]
    return table


def t_oracle(i: int) -> int:
    """t_i assembled from scratch on top of the oracle Bernoulli numbers."""
    if i % 4 != 0:
        return 0
    k = i // 4
    if k == 1:
        return 2
    a_k = 2 if k % 2 == 1 else 1
    numerator = (bernoulli_oracle(k) / (4 * k)).numerator
    return a_k * 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * numerator


def surgery_bp_order(
    m: int, theta: dict[int, int | None], bp: dict[int, int | None]
) -> int | None:
    """|bP_m|, m >= 4, from a table's orders, or None for unknown: 1 for odd
    m and m = 4, t_m for other m = 0 mod 4, and for m = 2 mod 4 the
    ``bp`` entry, else 1 where the ``theta`` order |Theta_{m-1}| is odd
    (|bP_m| is 1 or 2 and divides it), else unknown."""
    if m % 2 == 1 or m == 4:
        return 1
    if m % 4 == 0:
        return t_oracle(m)
    if m in bp:
        return bp[m]
    below = theta.get(m - 1)
    return 1 if below is not None and below % 2 == 1 else None


def surgery_pi_go(
    n: int,
    theta: dict[int, int | None],
    bp: dict[int, int | None],
    given: dict[int, int | None],
) -> KnownGroup:
    """pi_n(G/O) from a table's orders: ``theta`` holds |Theta_n|, ``bp``
    the |bP_{4k+2}| entries and ``given`` the pi_go_torsion entries, each
    an order or None for unknown, below the cap of t.

    A given torsion is taken as it is.  Otherwise, for n >= 3,
    Kervaire-Milnor's surgery sequence of S^n gives the torsion
    |Theta_n| / |bP_{n+1}|, times 2 / |bP_n| for n = 2 mod 4, unknown
    where a factor is.  pi_n(G/O) is Z x torsion for n = 0 mod 4 and the
    torsion elsewhere.
    """
    if n in given:
        torsion = given[n]
    elif n < 3:
        torsion = None
    else:
        factors = [theta.get(n), surgery_bp_order(n + 1, theta, bp)]
        if n % 4 == 2:
            factors.append(surgery_bp_order(n, theta, bp))
        if None in factors:
            torsion = None
        else:
            quotient = Fraction(factors[0], factors[1])
            if n % 4 == 2:
                quotient *= Fraction(2, factors[2])
            assert quotient.denominator == 1, (n, factors)
            torsion = int(quotient)
    if torsion is None:
        return KnownGroup.unknown()
    if n % 4 == 0:
        return KnownGroup.z_times_finite(torsion)
    return KnownGroup.finite(torsion)


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(2, n + 1) if sieve[p]]


def von_staudt_clausen_denominator(k: int) -> int:
    """Denominator of B_{2k}: the product of primes p with (p-1) | 2k."""
    n = 2 * k
    result = 1
    for p in primes_upto(n + 1):
        if n % (p - 1) == 0:
            result *= p
    return result


def brute_subgroup(n: int, g: int) -> set[int]:
    """All elements of <g> in Z_n by walking the orbit of 0."""
    step = g % n
    seen = {0}
    x = step
    while x != 0:
        seen.add(x)
        x = (x + step) % n
    return seen


def check_cyclic_against_bruteforce(n: int, g: int, exhaustive_membership: bool) -> None:
    elements = brute_subgroup(n, g)
    sub = subgroup_generated(n, g)
    assert sub.order == len(elements), (n, g)
    expected_generator = min(elements - {0}) if len(elements) > 1 else n
    assert sub.generator_value == expected_generator, (n, g)
    if exhaustive_membership:
        candidates = range(n)
    else:
        candidates = {0, 1, g % n, (3 * g) % n, n - 1, n // 2}
    for x in candidates:
        assert sub.contains(sub.ambient.element(x)) == (x in elements), (n, g, x)


def theta_diff_closed_formula(p: int, q: int, pu: int, pv: int, pw: int) -> LClass:
    """8 t_p t_q phi_u phi_v + t_{p+q} phi_w with off-degree coordinates
    zeroed, packaged in L_{p+q}."""
    a = pu if p % 4 == 0 else 0
    b = pv if q % 4 == 0 else 0
    c = pw if (p + q) % 4 == 0 else 0
    return LClass(p + q, 8 * t(p) * t(q) * a * b + t(p + q) * c)


def pairing(p: int, q: int, x: LClass, y: LClass) -> LClass:
    """External product L_p x L_q -> L_{p+q}: 8*x*y when 4 | p and 4 | q,
    zero otherwise."""
    if x.dim != p or y.dim != q:
        raise ValueError(
            f"pairing dimension mismatch: expected ({p}, {q}), "
            f"got classes in ({x.dim}, {y.dim})"
        )
    if p % 4 == 0 and q % 4 == 0:
        return LClass(p + q, 8 * x.value * y.value)
    return LClass(p + q, 0)


def theta_top(p: int, q: int, x: LClass, y: LClass, z: LClass) -> LClass:
    """Surgery obstruction x*y + z of a topological normal invariant
    (x, y, z) of S^p x S^q."""
    check_pair(p, q)
    if z.dim != p + q:
        raise ValueError(
            f"third coordinate must live in dimension {p + q}, got {z.dim}"
        )
    return pairing(p, q, x, y) + z


def forgetful_f(u: NormalClassDiff) -> LClass:
    """Comparison map on normal invariants: multiplication by t_dim on the
    integer coordinate in dimensions divisible by 4, zero otherwise."""
    if u.dim % 4 == 0:
        return LClass(u.dim, t_oracle(u.dim) * u.phi)
    return LClass(u.dim, 0)


def check_theta_diff_box(pairs, span: int) -> None:
    values = range(-span, span + 1)
    for p, q in pairs:
        for pu in values:
            for pv in values:
                for pw in values:
                    u = NormalClassDiff(p, pu)
                    v = NormalClassDiff(q, pv)
                    w = NormalClassDiff(p + q, pw)
                    got = theta_diff(p, q, u, v, w)
                    assert got == theta_diff_closed_formula(p, q, pu, pv, pw), (
                        p, q, pu, pv, pw,
                    )
                    composed = theta_top(
                        p, q, forgetful_f(u), forgetful_f(v), forgetful_f(w)
                    )
                    assert got == composed, (p, q, pu, pv, pw)


def wall_triple_boundary_oracle(u: int, v: int) -> int:
    """Class of the boundary of the plumbing W_{u,v} in Z_{t_8}, as the
    Eells-Kuiper style quantity (signature - Salpha^2)/8 of its Wall
    triple: signature 0 and, on the hyperbolic form, Salpha^2 = 2ab for
    Salpha = (a, b)."""
    triple = wall_triple_of_plumbing(u, v)
    signature = 0
    s_alpha_squared = 2 * triple.s_alpha_x * triple.s_alpha_y
    numerator = signature - s_alpha_squared
    assert numerator % 8 == 0, (u, v)
    return (numerator // 8) % t_oracle(8)


def s3s4_canonical_key(sigma: int, v: int) -> tuple[int, int]:
    """Invariant deciding the diffeomorphism relation: |v| together with
    sigma modulo gcd(28, 2|v|)."""
    modulus = gcd(28, 2 * abs(v))  # 28 when v = 0
    return abs(v), sigma % modulus


def check_s3s4_equivalence_laws(v_span: int) -> None:
    grid = [
        S3S4Invariant(sigma, v)
        for v in range(-v_span, v_span + 1)
        for sigma in range(28)
    ]
    keys = [s3s4_canonical_key(m.sigma.value, m.v) for m in grid]
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            assert s3s4_diffeomorphic(a, b) == (keys[i] == keys[j]), (
                a.sigma.value, a.v, b.sigma.value, b.v,
            )


def s3s4_relations_oracle(sigma0: int, v0: int, sigma1: int, v1: int) -> tuple[bool, bool]:
    """(structure equal, diffeomorphic) for Sigma_0 # N_{v0} and
    Sigma_1 # N_{v1}: the sigma difference is looked up among the
    enumerated elements of the stabiliser <8 t_4 t_4 v> and of the
    inertia group <2v> in Z_{t_8}."""
    n = t_oracle(8)
    difference = (sigma0 - sigma1) % n
    same = v0 == v1 and difference in brute_subgroup(n, 8 * t_oracle(4) ** 2 * v0)
    diffeomorphic = abs(v0) == abs(v1) and difference in brute_subgroup(n, 2 * v0)
    return same, diffeomorphic


def s4s4_almost_oracle(u0: int, v0: int, u1: int, v1: int) -> bool:
    """Whether (u1, v1) equals (u0, v0) as an unordered pair up to a
    common sign, by set membership."""
    mine = {(u0, v0), (v0, u0)}
    return (u1, v1) in mine or (-u1, -v1) in mine


def entered_codes(call, warm=True):
    # Code objects of the Python functions a call enters, in order, the
    # call's own lambda first; warm unless told otherwise.  The collector
    # is paused, so that a collection in the window cannot add a
    # finalised generator's frame.
    if warm:
        call()
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return codes


def entered(call):
    # Names of the Python functions a warm call enters, in order.
    return [code.co_name for code in entered_codes(call)[1:]]  # without the lambda


def package_caches() -> list:
    # Every cache of the package, each once, found by its cache_clear in
    # every module, so that a core added later is found too.
    modules = [
        importlib.import_module(f"spherestruct.{info.name}")
        for info in pkgutil.iter_modules(spherestruct.__path__)
    ]
    return list({
        id(obj): obj
        for module in modules
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }.values())


def core_caches() -> list:
    # The caches of the private cores: every cache but the typed ones at a
    # door, bernoulli's and the value classes' call (``cyclic._shared``),
    # which count a refused call as a miss.
    return [cache for cache in package_caches() if not cache.cache_parameters()["typed"]]
