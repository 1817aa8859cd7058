"""Presentations of the smooth structure set of a product of two spheres.

For p, q >= 2 with p + q >= 5 the smooth structure set of S^p x S^q sits
in an exact sequence of pointed sets

    0 -> Theta_{p+q} -> S^Diff(S^p x S^q)
                     -> pi_p(G/O) x pi_q(G/O) -> 8 t_p t_q . bP_{p+q} -> 0

where Theta_{p+q} (homotopy spheres, acting by connected sum) acts
transitively on the fibres of the normal-invariant map in the middle, and
the right-hand map sends a pair of invariants with integer coordinates
(phi_u, phi_v) to 8 t_p t_q phi_u phi_v in bP_{p+q}.  The residual group
on the right is the obstruction to the image of the middle map being a
subgroup.

Convention: when p + q is odd the even factor is listed second; inputs
are normalised to that order and the original order is echoed back.

The Theta-action is free except when the normalised shape is
(4j-1, 4k).  There the stabiliser of a structure whose even-factor
invariant has integer coordinate d is the subgroup of bP_{4(j+k)}
generated by 8 d t_{4j} t_{4k}, so fibre sizes vary with d:
|fibre| = |Theta_{p+q}| / |stabiliser(d)|.  With r the order of the
residual group of (4j, 4k), the stabiliser has canonical generator
g * gcd(d, r) and order r / gcd(d, r), so it depends on d only through
gcd(d, r): trivial for d = 0, and for every d coprime to r (d = 1
among them) the whole residual subgroup <8 t_{4j} t_{4k}> of order r.
This change with d is why the smooth set admits no group structure in
this shape (below).  The ambient order t_{4(j+k)} comes from t's cache,
as in ``del_map``, and the rest from the record (c, g, Z_r, <c>) of
(4j, 4k) that ``bp`` caches once per unordered pair, so (4k, 4j) reads
the same record.  The generic stabiliser is the record's <c> itself, so
a warm call for d coprime to r reads the record and nothing else.

The topological structure set, by contrast, is a group isomorphic to
L_p x L_q, and the smooth set never is one when the shape is (4j-1, 4k)
(stabilisers vary) or (4j, 4k) (the image of the forgetful map to the
topological set is not a subgroup whenever the residual group is
nontrivial, which holds in every shipped dimension).

As in ``bp``, public functions check their arguments (one
``bp.check_pair`` for the dimensions; a ``table`` is None or a
``GroupTable``) and then read ``bp``'s cores and the record of a pair,
never ``t``, ``residual_group``, ``pairing_coefficient`` or ``bp_order``;
``present`` reads its three orders off its table.  The order rule lives in
``normalize_dims``; only ``present``, whose result shows the order, and
``stabilizer`` repeat its swap inline, so that a warm ``stabilizer``
enters only itself and ``check_pair``.  The verdicts of
``group_structure_possible`` and ``forgetful_fiber`` are symmetric in
p and q (the record is one per unordered pair), so they test the shape
on the pair as given: {4j-1, 4k} is p + q = 3 mod 4 with a factor
divisible by 4.  ``stabilizer`` is the home of the stabiliser formula,
which ``eta_fiber_size`` and ``forgetful_fiber`` read through its public
door (so ``eta_fiber_size`` checks its pair twice).  Tests pin each
inline copy to its home.

``present`` builds its result as a draft: it stores the ten fields into
a ``_Draft``, a method-less class with the same ``__slots__``, and then
retypes it once to ``StructureSetPresentation``.  Ten plain slot stores
and one retype cost a fifth or less of a call of ``__init__``, which
passes the fields to the guarded ``__setstate__``.  The retyped value is
an ordinary frozen instance.  Keyword construction, which takes the
place of ``dataclasses.replace`` (values are not dataclasses), goes
through the hand-written ``__init__``, and a test pins that both routes
build the same value.
"""

from __future__ import annotations

from math import gcd

from . import bp, tables
from .cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    _cyclic_group,
    _exact_int,
    _reject_non_int,
    _subgroup,
    _value,
)
from .ltheory import LGroupKind, l_group
from .tables import GroupTable, KnownGroup, _finite, _reject_non_table

__all__ = [
    "StructureSetPresentation",
    "TopStructureSet",
    "GroupStructureVerdict",
    "ACTION_FREE",
    "ACTION_STABILIZER",
    "normalize_dims",
    "present",
    "del_map",
    "stabilizer",
    "eta_fiber_size",
    "top_structure_set",
    "group_structure_possible",
    "forgetful_fiber",
]

ACTION_FREE = "free_everywhere"
ACTION_STABILIZER = "stabilizers_vary_with_d"


def normalize_dims(p: int, q: int) -> tuple[int, int]:
    """Validate (p, q) and apply the convention that the even factor is
    listed second when p + q is odd."""
    bp.check_pair(p, q)
    if p % 2 == 0 and q % 2 == 1:  # p + q odd, and the odd factor second
        return q, p
    return p, q


@_value
class StructureSetPresentation:
    """Everything the exact sequence above says about one product."""

    __slots__ = (
        "p", "q", "input_p", "input_q", "theta_group", "bp_next",
        "normal_invariants", "residual", "action_case", "stabilizer_coefficient",
    )
    p: int
    q: int
    input_p: int
    input_q: int
    theta_group: KnownGroup
    bp_next: KnownGroup  # the stabilisers' ambient Z_{t_{p+q+1}} when they vary
    normal_invariants: tuple[KnownGroup, KnownGroup]
    residual: CyclicGroup
    action_case: str
    stabilizer_coefficient: int | None  # 8 t_{p+1} t_q in the stabiliser case

    def __init__(
        self,
        p: int,
        q: int,
        input_p: int,
        input_q: int,
        theta_group: KnownGroup,
        bp_next: KnownGroup,
        normal_invariants: tuple[KnownGroup, KnownGroup],
        residual: CyclicGroup,
        action_case: str,
        stabilizer_coefficient: int | None,
    ) -> None:
        self.__setstate__((
            p, q, input_p, input_q, theta_group, bp_next,
            normal_invariants, residual, action_case, stabilizer_coefficient,
        ))

    def sequence_text(self) -> str:
        n = self.p + self.q
        theta = _named_order(f"Theta_{n}", self.theta_group)
        left = f"pi_{self.p}(G/O)"
        right = f"pi_{self.q}(G/O)"
        residual = str(self.residual)
        return (
            f"0 -> {theta} -> S^Diff(S^{self.p} x S^{self.q}) -> "
            f"{left} x {right} -> {residual} -> 0"
        )

    def as_dict(self) -> dict:
        n = self.p + self.q
        payload = {
            "p": self.p,
            "q": self.q,
            "input_p": self.input_p,
            "input_q": self.input_q,
            "theta": self.theta_group.as_json(),
            "bp_next": self.bp_next.as_json(),
            "normal_invariants": [g.as_json() for g in self.normal_invariants],
            "residual_order": self.residual.order,
            "residual_generator_coefficient": bp._pairing_coefficient(self.p, self.q),
            "bp_dim": n,
            "action": self.action_case,
            "sequence": self.sequence_text(),
        }
        if self.theta_group.is_unknown:
            payload["fiber_group_order"] = "unknown"
        elif self.action_case == ACTION_FREE:
            payload["fiber_group_order"] = self.theta_group.order
        else:
            payload["fiber_group_order"] = "depends on d"
            payload["stabilizer_generator_coefficient"] = self.stabilizer_coefficient
            payload["stabilizer_ambient_order"] = self.bp_next.order
        return payload

    def lines(self) -> list[str]:
        """The presentation as the text lines ``structure-set`` prints."""
        n = self.p + self.q
        head = f"S^Diff(S^{self.p} x S^{self.q})"
        if (self.input_p, self.input_q) != (self.p, self.q):
            head += f"   [normalised from ({self.input_p}, {self.input_q})]"
        lines = [head, f"sequence: {self.sequence_text()}"]
        for dim, group in zip((self.p, self.q), self.normal_invariants):
            lines.append(f"pi_{dim}(G/O): {group.describe()}")
        residual = f"residual 8*t_{self.p}*t_{self.q} . bP_{n}"
        if self.residual.order == 1:
            lines.append(f"{residual}: trivial")
        else:
            lines.append(
                f"{residual}: {self.residual} "
                "(image of the forgetful map is not a subgroup)"
            )
        if self.action_case == ACTION_FREE:
            lines.append(f"Theta_{n} acts freely; every fibre has |Theta_{n}| elements")
        else:
            lines.append(
                f"Theta_{n} stabilisers vary: stab(d) = "
                f"<{self.stabilizer_coefficient}*d> in Z_{self.bp_next.order}"
            )
        lines.append(f"bP_{n + 1}: {self.bp_next.describe()}")
        return lines


class _Draft:
    # The unfrozen twin that ``present`` fills: the same slots in the same
    # order, so CPython lets the finished draft be retyped to the frozen
    # class, after which it is an ordinary StructureSetPresentation.
    __slots__ = StructureSetPresentation.__slots__


def _named_order(name: str, group: KnownGroup) -> str:
    if group.is_unknown:
        return f"{name}(order unknown)"
    if group.is_trivial:
        return "0"
    return f"{name}(order {group.order})"


def present(
    p: int, q: int, table: GroupTable | None = None
) -> StructureSetPresentation:
    """Populate the presentation of S^Diff(S^p x S^q) from the order
    formulas and the reference table."""
    bp.check_pair(p, q)
    # The swap of normalize_dims, inlined.
    if p % 2 == 0 and q % 2 == 1:
        np_, nq = q, p
    else:
        np_, nq = p, q
    n = np_ + nq
    if table is not None and not isinstance(table, GroupTable):
        _reject_non_table(table)
    table = table or tables._BUILTIN
    # Built as a draft and retyped once: ten plain slot stores and the
    # retype cost about a fifth of a call of __init__.
    x = _Draft()
    x.p = np_
    x.q = nq
    x.input_p = p
    x.input_q = q
    x.theta_group = table.theta_order(n)
    x.bp_next = table.bp_order(n + 1)
    x.normal_invariants = (table.pi_go(np_), table.pi_go(nq))
    x.residual = bp._TRIVIAL
    x.action_case = ACTION_FREE
    x.stabilizer_coefficient = None
    if np_ % 4 == 3 and nq % 4 == 0:  # (4j-1, 4k)
        x.action_case = ACTION_STABILIZER
        x.stabilizer_coefficient = bp._residual_split(np_ + 1, nq)[0]
    elif np_ % 4 == 0 and nq % 4 == 0:  # (4j, 4k)
        x.residual = bp._residual_split(np_, nq)[2]
    x.__class__ = StructureSetPresentation
    return x


def del_map(p: int, q: int, phi_u: int, phi_v: int) -> CyclicElement:
    """Value 8 t_p t_q phi_u phi_v of the right-hand map in bP_{p+q}.

    When p + q is not divisible by 4 the target is represented by the
    trivial group (the map is identically zero there).
    """
    bp.check_pair(p, q)
    n = p + q
    group = _cyclic_group(bp._t_multiple_of_4(n) if n % 4 == 0 else 1)
    if type(phi_u) is not int:
        phi_u = _exact_int("phi_u", phi_u)
    if type(phi_v) is not int:
        phi_v = _exact_int("phi_v", phi_v)
    return CyclicElement(group, bp._pairing_coefficient(p, q) * phi_u * phi_v)


def stabilizer(p: int, q: int, d: int) -> CyclicSubgroup:
    """Stabiliser in bP_{p+q+1} of a structure with even-factor integer
    coordinate d.

    In the (4j-1, 4k) shape this is the subgroup generated by
    8 d t_{4j} t_{4k}; every other shape has a free action and gets the
    trivial subgroup (with ambient bP_{p+q+1} when its order follows from
    the formulas, the trivial group otherwise).
    """
    if not isinstance(d, int):
        _reject_non_int("d", d)
    bp.check_pair(p, q)
    # The swap of normalize_dims, inlined: a warm call enters two frames.
    # The ambient Z_n, n = t_m, is read from t's cache before the record,
    # so past the cap it raises the error naming m, as ``t(m)`` would.
    # With (c, g, Z_r, <c>) the record of (p + 1, q), c = 8 t_{p+1} t_q and
    # g = gcd(c, n), the generator d * c of Z_n reduces to g * h with
    # h = gcd(d, r): for h = 1, the generic d, it is the record's <c>.
    if p % 2 == 0 and q % 2 == 1:
        p, q = q, p
    m = p + q + 1
    n = bp._t_multiple_of_4(m) if m % 4 == 0 else 1
    if p % 4 == 3 and q % 4 == 0:
        _, g, residual, generic = bp._residual_split(p + 1, q)
        h = gcd(d, residual.order)
        return generic if h == 1 else _subgroup(n, g * h)
    return _subgroup(n, n)  # the trivial subgroup <0> = <n> of Z_n


def eta_fiber_size(
    p: int, q: int, d: int, table: GroupTable | None = None
) -> KnownGroup:
    """Size of the normal-invariant-map fibre through a structure with
    even-factor coordinate d: |Theta_{p+q}| / |stabiliser(d)|.

    Unknown when the order of Theta_{p+q} is outside the table.  The
    stabiliser is a subgroup of bP_{p+q+1}, whose order divides every
    known |Theta_{p+q}| (``GroupTable`` checks that chain when it is
    built), so the quotient is exact.
    """
    if not isinstance(d, int):
        _reject_non_int("d", d)
    bp.check_pair(p, q)
    if table is not None and not isinstance(table, GroupTable):
        _reject_non_table(table)
    theta_group = (table or tables._BUILTIN).theta_order(p + q)
    if theta_group.is_unknown:
        return KnownGroup.unknown()
    return _finite(theta_group.order // stabilizer(p, q, d).order)


@_value
class TopStructureSet:
    """The topological structure set: a group, isomorphic to L_p x L_q."""

    __slots__ = ("p_factor", "q_factor")
    p_factor: LGroupKind
    q_factor: LGroupKind

    def __init__(self, p_factor: LGroupKind, q_factor: LGroupKind) -> None:
        self.__setstate__((p_factor, q_factor))

    @property
    def is_singleton(self) -> bool:
        return self.p_factor.symbol == "0" and self.q_factor.symbol == "0"

    def __str__(self) -> str:
        return f"{self.p_factor} x {self.q_factor}"


def top_structure_set(p: int, q: int) -> TopStructureSet:
    """S^Top(S^p x S^q) as the group L_p x L_q (factor order as given)."""
    bp.check_pair(p, q)
    return TopStructureSet(l_group(p), l_group(q))


@_value
class GroupStructureVerdict:
    """Whether the smooth structure set can carry a compatible group
    structure; ``reason`` names the obstruction when it cannot."""

    __slots__ = ("possible", "reason")
    possible: bool
    reason: str | None

    def __init__(self, possible: bool, reason: str | None = None) -> None:
        self.__setstate__((possible, reason))

    def __bool__(self) -> bool:
        return self.possible


# The three verdicts, shared like every other result.
_VARYING_STABILIZERS = GroupStructureVerdict(False, "non-constant stabilizers")
_NOT_A_SUBGROUP = GroupStructureVerdict(False, "image not a subgroup")
_POSSIBLE = GroupStructureVerdict(True, None)


def group_structure_possible(p: int, q: int) -> GroupStructureVerdict:
    """Group-structure verdict by shape, in either order: {4j-1, 4k} fails
    with varying stabilisers, {4j, 4k} fails when the residual group is
    nontrivial, everything else succeeds."""
    bp.check_pair(p, q)
    if (p + q) % 4 == 3 and (p % 4 == 0 or q % 4 == 0):  # {4j-1, 4k}
        return _VARYING_STABILIZERS
    if p % 4 == 0 and q % 4 == 0 and bp._residual_split(p, q)[2].order > 1:
        return _NOT_A_SUBGROUP
    return _POSSIBLE


def forgetful_fiber(p: int, q: int, top_invariant: int) -> KnownGroup:
    """Size of the forgetful-map fibre over a topological structure of
    S^3 x S^4 (or S^4 x S^3) with normal invariant ``top_invariant`` in Z.

    The comparison map multiplies the degree-4 coordinate by t_4 = 2 (read
    from t's cache), so smooth structures hit exactly the even invariants
    and odd inputs are rejected.  Over t_4 * y the fibre is the
    normal-invariant fibre over d = y, of size |Theta_7| / |stabiliser(y)|.
    """
    if not isinstance(top_invariant, int):
        _reject_non_int("top_invariant", top_invariant)
    bp.check_pair(p, q)
    if (p, q) not in ((3, 4), (4, 3)):
        raise ValueError(
            f"forgetful_fiber currently handles only S^3 x S^4, got ({p}, {q})"
        )
    t_4 = bp._t_multiple_of_4(4)
    if top_invariant % t_4 != 0:
        raise ValueError(
            f"topological normal invariant {top_invariant} is odd, hence not "
            "in the image of the smooth structure set (even invariants only)"
        )
    return eta_fiber_size(p, q, top_invariant // t_4)
