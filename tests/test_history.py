"""Answers do not depend on call history.

A ``hypothesis.stateful`` machine interleaves public calls, with the
built-in table, README's example override table, an override of
|Theta_7| and the built-in table passed explicitly, with rules that
clear the package's caches (every one that ``helpers.package_caches``
finds) and that sweep enough distinct arguments through a bounded cache
to evict its entries.  Every answer (its ``repr``, or the type and text
of its error) is recorded, and a checking rule recomputes each recorded
call after ``cache_clear()`` on every cache of the package: a cached
answer that depends on what was asked before, such as an override
table's answer stored under a key that does not name the table, shows as
a mismatch.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from spherestruct import (
    KnownGroup,
    NormalClassDiff,
    S3S4Invariant,
    S4S4Manifold,
    bp_order,
    builtin_table,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    image_f_residual,
    parse_table,
    plumbing_boundary_class,
    present,
    residual_group,
    stabilizer,
    subgroup_generated,
    theta_diff,
)
from spherestruct.cyclic import _shared

from helpers import package_caches

# The example override of README's "Reference table overrides" section:
# it sets |Theta_21|, which the built-in table leaves unknown, so an
# answer for p + q = 21 differs between the two tables.
_README_OVERRIDE = """{
  "theta":        {"21": "16256", "22": "unknown"},
  "pi_go_torsion": {"9": "8", "4": "Z"},
  "bp":           {"18": "2"}
}"""

_TABLES = {
    "none": None,
    "readme": parse_table(_README_OVERRIDE),
    # |Theta_7| = 56 makes the derived pi_7(G/O) Z/2 where the built-in
    # table derives the trivial group, so a pi_go answer shared across
    # tables shows in present(7, 8) and present(8, 7).
    "theta-7": parse_table('{"theta": {"7": "56"}}'),
    "builtin": builtin_table(),
}

_CACHES = package_caches()


def _clear_all() -> None:
    for cache in _CACHES:
        cache.cache_clear()


def _coordinate(dim: int, phi: int | float) -> object:
    # A float coordinate is passed as it is, which theta_diff refuses.
    return phi if type(phi) is float else NormalClassDiff(dim, phi)


def _obstruction(p, q, pu, pv, pw, shift):
    # theta_diff with w in dimension p + q + shift; a dimension that is
    # not an int (a float p) is given to u, v and w as 4.
    dims = (p, q, p + q + shift) if type(p + q) is int else (4, 4, 4)
    u, v, w = map(_coordinate, dims, (pu, pv, pw))
    return theta_diff(p, q, u, v, w)


_DOORS = {
    "present": lambda p, q, table: present(p, q, _TABLES[table]),
    "stabilizer": stabilizer,
    "residual_group": residual_group,
    "bp_order": lambda m, table: bp_order(m, _TABLES[table]),
    "del_map": del_map,
    "plumbing_boundary_class": plumbing_boundary_class,
    "eta_fiber_size": lambda p, q, d, table: eta_fiber_size(p, q, d, _TABLES[table]),
    "theta_diff": _obstruction,
    "group_structure_possible": group_structure_possible,
    "image_f_residual": image_f_residual,
    "forgetful_fiber": forgetful_fiber,
    "S3S4Invariant": S3S4Invariant,
    "S4S4Manifold": S4S4Manifold,
    "NormalClassDiff": NormalClassDiff,
}

# Pairs of every shape, both orders, rejected ones, and p + q = 21 and 22,
# where the two tables differ; few values, so that keys repeat.  An int
# argument is sometimes a bool, keyed as the int it equals, or a float,
# which is rejected.
_PAIRS = [
    (3, 4), (4, 3), (4, 4), (2, 2), (1, 4), (7, 8), (8, 7), (8, 8),
    (10, 11), (4, 17), (17, 4), (11, 11), (3, 8), (11, 12), (5, 6),
]
_pairs = st.sampled_from(_PAIRS)
# theta_diff's pairs add (6, 2) and (4, 12), each with the p + q of a
# pair above but another obstruction, pairs past the cap of t, each
# refused at once, a float p and a bool q.
_theta_pairs = st.sampled_from(
    _PAIRS + [(6, 2), (4, 12), (3312, 4), (4, 3312), (3, 3313), (4.0, 4), (4, True)]
)
_ints = st.one_of(st.integers(-4, 4), st.booleans(), st.just(2.0))
_tables = st.sampled_from(sorted(_TABLES))
# A call with a table names it last.
_TABLED = st.one_of(
    st.builds(lambda pair, table: ("present", *pair, table), _pairs, _tables),
    st.tuples(st.just("bp_order"), st.integers(1, 25), _tables),
    st.builds(
        lambda pair, d, table: ("eta_fiber_size", *pair, d, table),
        _pairs, _ints, _tables,
    ),
)
_CALLS = st.one_of(
    _TABLED,
    st.builds(lambda pair, d: ("stabilizer", *pair, d), _pairs, _ints),
    st.builds(lambda pair: ("residual_group", *pair), _pairs),
    st.builds(lambda pair, u, v: ("del_map", *pair, u, v), _pairs, _ints, _ints),
    st.tuples(st.just("plumbing_boundary_class"), _ints, _ints),
    st.builds(
        lambda pair, u, v, w, shift: ("theta_diff", *pair, u, v, w, shift),
        _theta_pairs, _ints, _ints, _ints, st.sampled_from((0, 0, 0, 1)),
    ),
    st.builds(lambda pair: ("group_structure_possible", *pair), _pairs),
    st.builds(lambda pair: ("image_f_residual", *pair), _pairs),
    st.builds(lambda pair, d: ("forgetful_fiber", *pair, d), _pairs, _ints),
    st.tuples(st.just("S3S4Invariant"), _ints, _ints),
    # 7 divides u*v for u = 7 or a 0, so that some manifolds exist.
    st.tuples(st.just("S4S4Manifold"), st.one_of(_ints, st.just(7)), _ints, _ints),
    st.tuples(st.just("NormalClassDiff"), _ints, _ints),
)

# Sweeps of more distinct arguments than a bounded cache holds: each
# sweep's length, then its call.  The cores hold 1024 entries, and the
# class call of the caller-built values (cyclic._shared) more.
_PAST_SHARED = _shared.cache_parameters()["maxsize"] + 100
_SWEEPS = {
    "del_map": (1100, lambda k: del_map(4, 4, k, 1)),
    "theta_diff": (1100, lambda k: _obstruction(4, 4, k, 1, 1, 0)),
    "eta_fiber_size": (1100, lambda k: eta_fiber_size(3, 4, k)),
    "finite": (1100, lambda k: KnownGroup.finite(k + 1)),
    "subgroup_generated": (1100, lambda k: subgroup_generated(k + 1, 2)),
    "NormalClassDiff": (_PAST_SHARED, lambda k: NormalClassDiff(4, k)),
}


def _outcome(call: tuple) -> str:
    name, *args = call
    try:
        return repr(_DOORS[name](*args))
    except (TypeError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


class CallHistory(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        _clear_all()
        self.seen: list[tuple[tuple, str]] = []

    @rule(calls=st.lists(_CALLS, min_size=1, max_size=10))
    def ask(self, calls):
        for call in calls:
            self.seen.append((call, _outcome(call)))

    @rule(call=_TABLED, tables=st.permutations(sorted(_TABLES)))
    def ask_under_each_table(self, call, tables):
        for table in tables:
            self.ask([(*call[:-1], table)])

    @rule()
    def clear_every_cache(self):
        _clear_all()

    @rule(index=st.integers(0, len(_CACHES) - 1))
    def clear_one_cache(self, index):
        _CACHES[index].cache_clear()

    @rule(sweep=st.sampled_from(sorted(_SWEEPS)), start=st.integers(1, 5000))
    def evict(self, sweep, start):
        length, call = _SWEEPS[sweep]
        for k in range(start, start + length):
            call(k)

    @rule()
    def compare_with_cleared_caches(self):
        for call, answer in self.seen:
            _clear_all()
            assert _outcome(call) == answer, call
        self.seen.clear()

    def teardown(self):
        self.compare_with_cleared_caches()
        _clear_all()


CallHistory.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_answers_do_not_depend_on_call_history = CallHistory.TestCase


def test_the_machine_clears_the_cache_of_shared_values():
    # helpers.package_caches finds the class call of the caller-built
    # values, so the machine clears and evicts it like every core.
    assert any(cache is _shared for cache in _CACHES)
