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

The Theta-action is free except in the shape {4j-1, 4k}.  There the
stabiliser of a structure whose even-factor invariant has integer
coordinate d is the subgroup of bP_{4(j+k)} generated by
8 d t_{4j} t_{4k}, so fibre sizes vary with d:
|fibre| = |Theta_{p+q}| / |stabiliser(d)|.  With r the order of the
residual group of (4j, 4k), the stabiliser has canonical generator
g * gcd(d, r) and order r / gcd(d, r), so it depends on d only through
gcd(d, r): trivial for d = 0, and for every d coprime to r (d = 1
among them) the whole residual subgroup <8 t_{4j} t_{4k}> of order r.
This change with d is why the smooth set admits no group structure in
this shape (see ``consequences``).  The ambient order t_{4(j+k)} comes
from t's cache, as in ``del_map``, and the rest from the record
(c, g, Z_r, <c>) of (4j, 4k) that ``bp`` caches once per unordered
pair, so (4k, 4j) reads the same record.  The generic stabiliser is
the record's <c> itself, so a warm call for d coprime to r reads the
record and nothing else.

As in ``bp``, public functions check their arguments (one
``bp.check_pair``, or its test inlined, for the dimensions; a ``table``
is None or a ``GroupTable``) and then read ``bp``'s cores and the record
of a pair, never ``t``, ``residual_group``, ``pairing_coefficient`` or
``bp_order``; ``present`` reads its three orders off its table.  The one
exception is ``StructureSetPresentation.as_dict``, which reads c through
``pairing_coefficient``: the constructor checks the type of each field,
not its range, so a value built by keyword may hold p = 0.
Every shape test reads ``bp``'s table of the three shapes,
``_SHAPES[p & 3][q & 3]``, which is symmetric: it names the shape of
the pair in either order.  The order rule lives in ``normalize_dims``,
and only ``present``, whose result shows the order, repeats its swap
inline.  Every other answer is symmetric in p and q (the record is one
per unordered pair), so ``stabilizer`` reads the pair as given, and a
warm call enters only itself and ``check_pair``.  ``stabilizer`` is
the home of the stabiliser formula, which ``eta_fiber_size`` reads
through its public door on a miss of its cache.  Tests pin each inline
copy to its home.

``del_map`` and ``eta_fiber_size`` are checked doors over bounded
``lru_cache`` cores (1024 entries each), as ``cyclic_group`` is over
``_cyclic_group`` and ``ltheory.theta_diff`` over ``_theta_diff``: a
core's cache must never see an unchecked argument.  Each door runs every
check first, with the inline pair test of ``ltheory.theta_diff``, turns
a bool invariant into its int, and calls its core with plain ints, so a
warm call is one cache read and hands out a shared frozen value
(``del_map(4, 4, 1, 2) is del_map(4, 4, 1, 2)``).  ``_del_map`` also
serves ``classify.plumbing_boundary_class``.
``_eta_fiber_size`` caches only the built-in table's answers (``table``
None), because that table never changes; an explicit table, override or
built-in, is read on every call by the same body, uncached, so no
table's answer is ever stored.  A first call pays for the cache's miss
and insert on top of the work; ``_del_map`` reads the target group and
c off the record.  ``stabilizer`` and ``present`` are not cached: most
of their calls in a sweep are first calls.

``present`` builds its result as a draft (see ``cyclic._value``), and
``_del_map`` builds its element through ``cyclic._element``.  Keyword
construction, which takes the place of ``dataclasses.replace`` (values
are not dataclasses), goes through the hand-written ``__init__``, and
tests pin that both routes build the same value.  The constructor
refuses a field of the wrong type when the value is built, not when it
is first read: p, q, input_p, input_q and a stabiliser coefficient other
than None by the integer rule, a ``theta_group`` or ``bp_next`` that is
not a ``KnownGroup``, ``normal_invariants`` other than a tuple of two,
a ``residual`` that is not a ``CyclicGroup`` (each a ``TypeError``),
and an ``action_case`` other than ``ACTION_FREE`` and
``ACTION_STABILIZER`` (a ``ValueError``).  The draft skips these checks.

``TopStructureSet`` and ``GroupStructureVerdict`` are the values of
``consequences``, the layer above, which builds them.  They stay here
so that each keeps its ``__module__``, repr and pickle bytes.  Each
refuses a field of the wrong type when it is built: a factor that is not
an ``LGroupKind``, a ``possible`` that is not a bool, or a ``reason``
that is neither a str nor None.  Like the presentation, each renders
itself: ``as_dict`` is its JSON payload and ``lines`` the text the
``top-set`` or ``group-structure`` subcommand prints, so the CLI adds
only the query echo and the notes.  The top set reads its dimensions
from its factors, whose order is the order it was given.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _HOMES, bp, tables
from .bp import _RESIDUAL, _SHAPES, _STABILIZER
from .cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    _checked_class,
    _cyclic_group,
    _draft,
    _element,
    _exact_int,
    _shown_repr,
    _subgroup,
    _value,
)
from .ltheory import LGroupKind
from .tables import _UNKNOWN, GroupTable, KnownGroup, _checked_table, _finite

__all__ = _HOMES["structset"]

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
        dims = [
            value if type(value) is int else _exact_int(name, value)
            for name, value in (("p", p), ("q", q), ("input_p", input_p), ("input_q", input_q))
        ]
        _checked_class("theta_group", theta_group, KnownGroup)
        _checked_class("bp_next", bp_next, KnownGroup)
        pair = normal_invariants
        if not (type(pair) is tuple and len(pair) == 2 and {*map(type, pair)} == {KnownGroup}):
            shown = type(pair).__name__
            if type(pair) is tuple:
                shown = f"({', '.join(type(group).__name__ for group in pair)})"
            raise TypeError(f"normal_invariants must be a tuple of two KnownGroup, got {shown}")
        _checked_class("residual", residual, CyclicGroup)
        if action_case != ACTION_FREE and action_case != ACTION_STABILIZER:
            raise ValueError(
                f"action_case must be {ACTION_FREE!r} or {ACTION_STABILIZER!r}, "
                f"got {_shown_repr(action_case)}"
            )
        coefficient = stabilizer_coefficient
        if coefficient is not None and type(coefficient) is not int:
            coefficient = _exact_int("stabilizer_coefficient", coefficient)
        self.__setstate__((
            *dims, theta_group, bp_next, normal_invariants, residual, action_case, coefficient,
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
            "residual_generator_coefficient": bp.pairing_coefficient(self.p, self.q),
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


_Draft = _draft(StructureSetPresentation)


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
    table = tables._BUILTIN if table is None else _checked_table(table)
    x = _Draft()
    x.p = np_
    x.q = nq
    x.input_p = p
    x.input_q = q
    x.theta_group = table.theta_order(n)
    x.bp_next = table.bp_order(n + 1)
    x.normal_invariants = (table.pi_go(np_), table.pi_go(nq))
    shape = _SHAPES[np_ & 3][nq & 3]
    x.residual = bp._residual_split(np_, nq)[2] if shape is _RESIDUAL else bp._TRIVIAL
    x.action_case = ACTION_FREE
    x.stabilizer_coefficient = None
    if shape is _STABILIZER:  # (4j-1, 4k), the odd factor first
        x.action_case = ACTION_STABILIZER
        x.stabilizer_coefficient = bp._residual_split(np_ + 1, nq)[0]
    x.__class__ = StructureSetPresentation
    return x


def del_map(p: int, q: int, phi_u: int, phi_v: int) -> CyclicElement:
    """Value 8 t_p t_q phi_u phi_v of the right-hand map in bP_{p+q}.

    When p + q is not divisible by 4 the target is represented by the
    trivial group (the map is identically zero there).  The answer is a
    shared value, cached per argument tuple.
    """
    # The test of check_pair, inlined as in ``ltheory.theta_diff``:
    # anything it would reject, a bool too, goes to it for its error.
    if not (type(p) is int and type(q) is int and p >= 2 and q >= 2 and p + q >= 5):
        bp.check_pair(p, q)
    if type(phi_u) is not int or type(phi_v) is not int:
        phi_u, phi_v = _exact_int("phi_u", phi_u), _exact_int("phi_v", phi_v)
    return _del_map(p, q, phi_u, phi_v)


# The core of del_map and classify.plumbing_boundary_class, for the ints
# their doors have checked; bounded because the invariants are arbitrary.
@lru_cache(maxsize=1024)
def _del_map(p: int, q: int, phi_u: int, phi_v: int) -> CyclicElement:
    # 8 t_p t_q is 0 off the (4j, 4k) shape, and there the record of
    # (p, q) holds it as c, and the target Z_n, n = t_{p+q}, as the
    # ambient of <c>.
    if _SHAPES[p & 3][q & 3] is not _RESIDUAL:
        n = p + q
        return _element(_cyclic_group(bp._t_multiple_of_4(n) if n % 4 == 0 else 1), 0)
    try:
        c, _, _, residual = bp._residual_split(p, q)
    except ValueError:  # past the cap, named by p + q as t(p + q) would
        bp._t_multiple_of_4(p + q)
        raise
    group = residual.ambient
    return _element(group, c * phi_u * phi_v % group.order)


def stabilizer(p: int, q: int, d: int) -> CyclicSubgroup:
    """Stabiliser in bP_{p+q+1} of a structure with even-factor integer
    coordinate d.

    In the {4j-1, 4k} shape, in either order, this is the subgroup
    generated by 8 d t_{4j} t_{4k}; every other shape has a free action
    and gets the trivial subgroup (with ambient bP_{p+q+1} when its order
    follows from the formulas, the trivial group otherwise).
    """
    if type(d) is not int:
        d = _exact_int("d", d)
    bp.check_pair(p, q)
    # The answer does not depend on the order of the pair, so a warm call
    # enters two frames.  The ambient Z_n, n = t_m, is read from t's cache
    # before the record, so past the cap it raises the error naming m, as
    # ``t(m)`` would.  The record (c, g, Z_r, <c>) is that of the pair
    # with its odd factor raised by one, so c = 8 t_{4j} t_{4k} and
    # g = gcd(c, n); the generator d * c of Z_n reduces to g * h with
    # h = gcd(d, r): for h = 1, the generic d, it is the record's <c>.
    m = p + q + 1
    n = bp._t_multiple_of_4(m) if m % 4 == 0 else 1
    if _SHAPES[p & 3][q & 3] is _STABILIZER:
        _, g, residual, generic = bp._residual_split(p + (p & 1), q + (q & 1))
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
    built), so the quotient is exact.  With the built-in table (``table``
    None) the answer is cached per (p, q, d); an explicit table is read
    on every call.
    """
    if type(d) is not int:
        d = _exact_int("d", d)
    # The test of check_pair, inlined as in del_map.
    if not (type(p) is int and type(q) is int and p >= 2 and q >= 2 and p + q >= 5):
        bp.check_pair(p, q)
    if table is None:
        return _eta_fiber_size(p, q, d)
    return _fiber(p, q, d, _checked_table(table))


def _fiber(p: int, q: int, d: int, table: GroupTable = tables._BUILTIN) -> KnownGroup:
    # eta_fiber_size for checked arguments.  The stabiliser is read through
    # its public door, the formula's one home.
    theta_group = table.theta_order(p + q)
    if theta_group.kind == "unknown":
        return _UNKNOWN
    return _finite(theta_group.order // stabilizer(p, q, d).order)


# The core of eta_fiber_size for the built-in table, which never changes.
# An explicit table, override or built-in, takes ``_fiber`` uncached, so
# no table's answer is ever stored.  Bounded because d is arbitrary.
_eta_fiber_size = lru_cache(maxsize=1024)(_fiber)


@_value
class TopStructureSet:
    """The topological structure set: a group, isomorphic to L_p x L_q."""

    __slots__ = ("p_factor", "q_factor")
    p_factor: LGroupKind
    q_factor: LGroupKind

    def __init__(self, p_factor: LGroupKind, q_factor: LGroupKind) -> None:
        _checked_class("p_factor", p_factor, LGroupKind, "an LGroupKind")
        _checked_class("q_factor", q_factor, LGroupKind, "an LGroupKind")
        self.__setstate__((p_factor, q_factor))

    @property
    def is_singleton(self) -> bool:
        return self.p_factor.symbol == "0" and self.q_factor.symbol == "0"

    def __str__(self) -> str:
        return f"{self.p_factor} x {self.q_factor}"

    def as_dict(self) -> dict:
        factors = [self.p_factor.symbol, self.q_factor.symbol]
        return {"factors": factors, "is_group": True, "singleton": self.is_singleton}

    def lines(self) -> list[str]:
        """The set as the text lines ``top-set`` prints."""
        head = f"S^Top(S^{self.p_factor.dim} x S^{self.q_factor.dim}) = {self} (a group)"
        if self.is_singleton:
            return [head, "the topological structure set is a single point"]
        return [head]


@_value
class GroupStructureVerdict:
    """Whether the smooth structure set can carry a compatible group
    structure; ``reason`` names the obstruction when it cannot."""

    __slots__ = ("possible", "reason")
    possible: bool
    reason: str | None

    def __init__(self, possible: bool, reason: str | None = None) -> None:
        _checked_class("possible", possible, bool)
        if reason is not None:
            _checked_class("reason", reason, str, "a str or None")
        if possible == (reason is not None):  # a reason names the obstruction
            raise ValueError(f"reason {_shown_repr(reason)} contradicts possible={possible}")
        self.__setstate__((possible, reason))

    def __bool__(self) -> bool:
        return self.possible

    def as_dict(self) -> dict:
        return {"possible": self.possible, "reason": self.reason}

    def lines(self) -> list[str]:
        """The verdict as the text line ``group-structure`` prints."""
        if self.possible:
            return ["group structure possible: yes"]
        return [f"group structure possible: no ({self.reason})"]
