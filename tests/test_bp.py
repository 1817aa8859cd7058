import time
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestruct import (
    GroupTable,
    KnownGroup,
    LClass,
    LGroupKind,
    MAX_BERNOULLI_INDEX,
    NormalClassDiff,
    S3S4Invariant,
    S4S4Manifold,
    StructureSetPresentation,
    bernoulli,
    bp_order,
    builtin_table,
    cyclic_group,
    del_map,
    eta_fiber_size,
    forgetful_fiber,
    group_structure_possible,
    image_f_residual,
    l_group,
    num_b_over_4k,
    parse_table,
    pi_go,
    plumbing_boundary_class,
    present,
    residual_group,
    s3s4_inertia_group,
    stabilizer,
    subgroup_generated,
    t,
    theta_diff,
    theta_order,
    top_structure_set,
    wall_triple_of_plumbing,
    WallTriple,
)
from spherestruct import bp, structset
from spherestruct.bp import (
    _residual_split,
    _t_multiple_of_4,
    check_pair,
    pairing_coefficient,
)
from spherestruct.cyclic import (
    CyclicElement,
    CyclicGroup,
    CyclicSubgroup,
    _cyclic_group,
    _shared,
    _subgroup,
)
from spherestruct.structset import normalize_dims
from spherestruct.tables import _finite, _z_times_finite

from helpers import brute_subgroup, core_caches, entered, entered_codes, t_oracle


def test_t_small_values():
    assert t(4) == 2
    assert t(8) == 28
    assert t(12) == 992
    assert t(16) == 8128
    assert t(20) == 261632
    assert t(24) == 1448424448


def test_t_16_factorisation():
    assert t(16) == 64 * 127


def test_t_off_degree_and_errors():
    for i in (1, 2, 3, 5, 6, 7, 9, 10, 11, 42):
        assert t(i) == 0
    with pytest.raises(ValueError):
        t(0)
    with pytest.raises(ValueError):
        t(-4)


def test_t_cache_keeps_errors_and_values():
    assert t(32) == t_oracle(32)
    assert t(32) == t_oracle(32)
    for i in (0, -4, 0):  # a raised error is never cached as a value
        with pytest.raises(ValueError):
            t(i)
    assert _t_multiple_of_4.cache_info().hits >= 1


def test_t_cache_holds_only_multiples_of_four():
    t(8)
    before = _t_multiple_of_4.cache_info().currsize
    for i in range(1, 20000, 4):  # 5000 off-degree arguments
        assert t(i) == 0
    after = _t_multiple_of_4.cache_info().currsize
    assert after == before
    assert after <= MAX_BERNOULLI_INDEX


def test_t_against_independent_assembly():
    for i in range(1, 81):
        assert t(i) == t_oracle(i), i


def test_bp_order_multiples_of_four():
    assert bp_order(8) == KnownGroup.finite(28)
    assert bp_order(12) == KnownGroup.finite(992)
    assert bp_order(16) == KnownGroup.finite(8128)
    assert bp_order(4) == KnownGroup.trivial()


def test_bp_order_odd_is_trivial():
    for m in range(5, 22, 2):
        assert bp_order(m) == KnownGroup.trivial(), m


def test_bp_order_2_mod_4():
    assert bp_order(6) == KnownGroup.trivial()
    assert bp_order(14) == KnownGroup.trivial()
    assert bp_order(10).is_unknown
    assert bp_order(18).is_unknown
    table = parse_table('{"bp": {"10": "2"}}')
    assert bp_order(10, table) == KnownGroup.finite(2)


def test_bp_order_rejects_low_dimensions():
    with pytest.raises(ValueError):
        bp_order(3)


def test_residual_fixed_orders():
    assert residual_group(4, 4).order == 7
    assert residual_group(4, 8).order == 31
    assert residual_group(8, 4).order == 31
    assert residual_group(4, 12).order == 127
    assert residual_group(8, 8).order == 127
    assert residual_group(4, 16).order == 511
    assert residual_group(8, 12).order == 73


def test_residual_trivial_off_shape():
    assert residual_group(3, 4).order == 1
    assert residual_group(2, 3).order == 1
    assert residual_group(3, 5).order == 1  # p + q = 0 mod 4 but t_p = 0
    assert residual_group(2, 6).order == 1
    assert residual_group(6, 6).order == 1  # both = 2 mod 4


def test_residual_rejects_out_of_range():
    with pytest.raises(ValueError):
        residual_group(1, 10)
    with pytest.raises(ValueError):
        residual_group(2, 2)


def test_residual_matches_bruteforce_subgroups():
    for p in range(2, 15):
        for q in range(2, 15):
            if p + q < 5 or (p + q) % 4 != 0 or p + q > 16:
                continue
            ambient = t(p + q)
            generator = 8 * t(p) * t(q)
            expected = len(brute_subgroup(ambient, generator)) if generator else 1
            assert residual_group(p, q).order == expected, (p, q)


def test_residual_order_is_odd_for_all_small_shapes():
    start = time.monotonic()
    for j in range(1, 11):
        for k in range(1, 11):
            order = residual_group(4 * j, 4 * k).order
            assert order % 2 == 1, (j, k)
            assert order > 1, (j, k)
    assert time.monotonic() - start < 5.0


def test_residual_order_formula():
    for j in range(1, 8):
        for k in range(1, 8):
            p, q = 4 * j, 4 * k
            ambient = t(p + q)
            assert residual_group(p, q).order == ambient // gcd(
                ambient, 8 * t(p) * t(q)
            )


def test_off_degree_pairs_never_need_t():
    # 8 t_p t_q = 0 when p or q is not a multiple of 4, whatever the other
    # factor is, so a factor past the cap of t is no error there.
    cap = 4 * MAX_BERNOULLI_INDEX
    for p, q in ((5, 4000), (4000, 5), (6, 3400), (3, cap + 4), (2, 100000)):
        assert pairing_coefficient(p, q) == 0, (p, q)
        assert residual_group(p, q).order == 1, (p, q)
    payload = present(5, 4000).as_dict()
    assert payload["residual_order"] == 1
    assert payload["residual_generator_coefficient"] == 0


def test_pairs_that_need_t_past_the_cap_still_raise():
    cap = 4 * MAX_BERNOULLI_INDEX
    for a, b in ((0, 5), (5, 0), (-3, 4), (6, -1), (0, 0), (4, -4)):
        with pytest.raises(ValueError, match=r"^t\(i\) requires i >= 1"):
            pairing_coefficient(a, b)
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got {cap + 4}$"):
        pairing_coefficient(4, cap + 4)
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 3400$"):
        residual_group(4, 3400)
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 4004$"):
        present(3, 4000)
    for p, q in ((3, 4000), (4000, 3)):  # t of the ambient 4004 is asked first
        with pytest.raises(ValueError, match=f"i <= {cap} .*, got 4004$"):
            stabilizer(p, q, 1)
    # Theta_4003 is not tabulated, so the fibre is unknown before any t;
    # a table that knows it reaches the stabiliser and its cap error.
    assert eta_fiber_size(3, 4000, 1).is_unknown
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 4004$"):
        eta_fiber_size(3, 4000, 1, parse_table('{"theta": {"4003": "5"}}'))
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 3404$"):
        del_map(4, 3400, 1, 1)  # the target Z_{t_3404} is asked first
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 3400$"):
        group_structure_possible(4, 3400)
    for p, q, message in ((4, 3400, "got 3400"), (3, 3401, "got 3404")):
        u, v, w = (NormalClassDiff(dim, 1) for dim in (p, q, p + q))
        with pytest.raises(ValueError, match=f"i <= {cap} .*, {message}$"):
            theta_diff(p, q, u, v, w)


@pytest.mark.parametrize("a, b", [(4000, 0), (0, 4000), (4000, -4), (3312, -1)])
def test_an_argument_below_1_raises_before_the_cap_of_the_other(a, b):
    # pairing_coefficient asks t of the smaller argument first, so a pair
    # with one argument past the cap and one below 1 names the one below 1.
    with pytest.raises(ValueError, match=rf"^t\(i\) requires i >= 1, got {min(a, b)}$"):
        pairing_coefficient(a, b)


# (p, q) past the cap in both orders: both factors, one factor, only the
# sum.  The readers of the record of (p, q) name the first number it asks
# t of; del_map and the stabiliser shape (p - 1, q) name t_{p+q}.
_PAST_THE_CAP = (
    ((4000, 3400), 4000, 7400),
    ((3400, 4000), 3400, 7400),
    ((3400, 4), 3400, 3404),
    ((4, 3400), 3400, 3404),
    ((3300, 12), 3312, 3312),
    ((12, 3300), 3312, 3312),
)


@pytest.mark.parametrize("pair, first, ambient", _PAST_THE_CAP)
def test_a_pair_past_the_cap_names_the_same_number_in_either_order(
    pair, first, ambient
):
    p, q = pair
    cap = 4 * MAX_BERNOULLI_INDEX
    readers = (
        residual_group,
        pairing_coefficient,
        image_f_residual,
        group_structure_possible,
        present,
    )
    for reader in readers:
        with pytest.raises(ValueError, match=f"i <= {cap} .*, got {first}$"):
            reader(p, q)
    shapes = (
        lambda: del_map(p, q, 1, 1),
        lambda: stabilizer(p - 1, q, 1),
        lambda: stabilizer(q, p - 1, 1),
        lambda: present(p - 1, q),
    )
    for call in shapes:
        with pytest.raises(ValueError, match=f"i <= {cap} .*, got {ambient}$"):
            call()


def test_pairing_coefficient_caches_multiples_of_four_only():
    _residual_split.cache_clear()
    for a in range(1, 41):
        for b in range(1, 41):
            assert pairing_coefficient(a, b) == 8 * t_oracle(a) * t_oracle(b), (a, b)
    assert _residual_split.cache_info().currsize == 100
    assert pairing_coefficient(4, 4) == 32
    assert _residual_split.cache_info().hits >= 1


def test_one_record_per_pair_whichever_call_fills_it():
    # The coefficient, the residual group and a stabiliser of the pair
    # (8, 12) all read one record, so any order of cold calls fills it once.
    calls = (
        lambda: pairing_coefficient(8, 12),
        lambda: residual_group(8, 12),
        lambda: stabilizer(7, 12, 3),
    )
    for order in permutations(calls):
        _residual_split.cache_clear()
        for call in order:
            call()
        info = _residual_split.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    c, g, residual, generic = _residual_split(8, 12)
    assert c == pairing_coefficient(8, 12) == 8 * t_oracle(8) * t_oracle(12)
    assert g == gcd(c, t_oracle(20))
    assert residual is residual_group(8, 12)
    assert residual.order == t_oracle(20) // g == 73
    assert generic is stabilizer(7, 12, 1)
    assert (generic.ambient.order, generic.generator_value) == (t_oracle(20), g)


@pytest.mark.parametrize("first, second", [((16, 24), (24, 16)), ((24, 16), (16, 24))])
def test_a_pair_and_its_mirror_share_one_record_and_one_gcd(
    monkeypatch, first, second
):
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(bp, "gcd", counting_gcd)
    _residual_split.cache_clear()
    record = _residual_split(*first)
    assert len(calls) == 1
    misses = _t_multiple_of_4.cache_info().misses
    assert _residual_split(*second) is record
    assert len(calls) == 1
    assert _t_multiple_of_4.cache_info().misses == misses
    assert _residual_split.cache_info().misses == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.booleans())
def test_either_order_of_a_pair_reads_the_same_values(j, k, mirrored_first):
    # From a cold record cache, whichever order of (4j, 4k) comes first.
    _residual_split.cache_clear()
    pairs = [(4 * j, 4 * k), (4 * k, 4 * j)]
    if mirrored_first:
        pairs.reverse()
    (p, q), (q2, p2) = pairs
    group = residual_group(p, q)
    coefficient = pairing_coefficient(p, q)
    assert residual_group(q2, p2) is group
    assert pairing_coefficient(q2, p2) == coefficient
    assert group.order == _residual_oracle(p, q)
    assert coefficient == 8 * t_oracle(p) * t_oracle(q)




def test_a_cold_shared_value_is_built_raw_in_its_cache_core():
    # A pair's first call builds its Z_r, <c>, Z_n and KnownGroups in the
    # cache cores, as drafts: no constructor and no guarded writer runs.
    calls = [
        lambda: _residual_split(8, 12),
        lambda: bp_order(24),
        lambda: pi_go(8),
        lambda: cyclic_group(10**40 + 1),
    ]
    writers = {
        method.__code__
        for cls in (KnownGroup, CyclicGroup)
        for method in (cls.__init__, cls.__setstate__)
    }
    for cache in (_residual_split, _subgroup, _cyclic_group, _finite, _z_times_finite):
        cache.cache_clear()
    for call in calls:
        assert writers.isdisjoint(entered_codes(call, warm=False))
    # The raw values equal the ones the constructors build.
    assert [call() for call in calls] == [
        (222208, 3584, CyclicGroup(73), CyclicSubgroup(CyclicGroup(t(20)), 3584)),
        KnownGroup.finite(t(24)),
        KnownGroup.z_times_finite(2),
        CyclicGroup(10**40 + 1),
    ]


def test_the_shape_table_names_the_three_shapes_in_either_order():
    # The residues of p and q mod 4 decide the shape, so these 16 pairs of
    # residues are every case: {4j-1, 4k} has stabilisers that vary with
    # d, (4j, 4k) a residual group, and every other pair a free action.
    assert len({bp._FREE, bp._STABILIZER, bp._RESIDUAL}) == 3
    assert [len(row) for row in bp._SHAPES] == [4, 4, 4, 4]
    for a, b in product(range(4), repeat=2):
        if (a + b) % 4 == 3 and 0 in (a, b):
            shape = bp._STABILIZER
        elif a == b == 0:
            shape = bp._RESIDUAL
        else:
            shape = bp._FREE
        assert bp._SHAPES[a][b] is bp._SHAPES[b][a] is shape, (a, b)
        # The answers agree, for a pair of these residues in either order.
        for p, q in ((a + 4, b + 8), (b + 8, a + 4)):
            assert (pairing_coefficient(p, q) != 0) == (shape is bp._RESIDUAL), (p, q)
            assert (present(p, q).action_case == structset.ACTION_STABILIZER) == (
                shape is bp._STABILIZER
            ), (p, q)


def test_a_warm_residual_group_enters_two_python_functions():
    assert entered(lambda: residual_group(40, 44)) == ["residual_group", "check_pair"]


@pytest.mark.parametrize("p, q", [(23, 24), (24, 23), (22, 24)])
def test_a_warm_stabilizer_enters_two_python_functions(p, q):
    # The stabiliser shape, the same pair swapped, and a free shape: the
    # door reads the shape table in either order, and t_m and the record
    # of the pair off their caches.
    assert entered(lambda: stabilizer(p, q, 5)) == ["stabilizer", "check_pair"]


def test_a_warm_eta_fiber_size_reads_the_public_stabilizer():
    # A warm call with the built-in table is one read of the core's cache.
    # On a miss the core still reads the formula's one home through the
    # public stabilizer door.
    assert entered(lambda: eta_fiber_size(3, 4, 5)) == ["eta_fiber_size"]
    structset._eta_fiber_size.cache_clear()
    cold = entered_codes(lambda: eta_fiber_size(3, 4, 5), warm=False)
    assert stabilizer.__code__ in cold


@pytest.mark.parametrize(
    "call, path",
    [
        (lambda: del_map(4, 4, 7, -3), ["del_map"]),
        (lambda: plumbing_boundary_class(7, -3), ["plumbing_boundary_class"]),
        # Its own check_pair decides a bad pair's error before the shape
        # test; eta_fiber_size tests the pair inline and reads its cache.
        (
            lambda: forgetful_fiber(3, 4, 2),
            ["forgetful_fiber", "check_pair", "eta_fiber_size"],
        ),
    ],
    ids=["del_map(4, 4, 7, -3)", "plumbing_boundary_class(7, -3)",
         "forgetful_fiber(3, 4, 2)"],
)
def test_a_warm_cached_door_is_one_cache_read(call, path):
    assert entered(call) == path


def test_a_warm_group_structure_possible_enters_two_python_functions():
    # It tests the shape of the pair as given, reads Z_r off the record,
    # and hands out a shared verdict.
    assert entered(lambda: group_structure_possible(40, 44)) == [
        "group_structure_possible", "check_pair",
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: group_structure_possible(23, 24),
        lambda: group_structure_possible(24, 23),
        lambda: group_structure_possible(22, 25),
        lambda: forgetful_fiber(3, 4, 2),
        lambda: forgetful_fiber(4, 3, 2),
        lambda: eta_fiber_size(24, 23, 5),
        lambda: stabilizer(24, 23, 5),
    ],
    ids=[
        "group_structure_possible(23, 24)", "group_structure_possible(24, 23)",
        "group_structure_possible(22, 25)", "forgetful_fiber(3, 4, 2)",
        "forgetful_fiber(4, 3, 2)", "eta_fiber_size(24, 23, 5)",
        "stabilizer(24, 23, 5)",
    ],
)
def test_a_symmetric_answer_never_enters_normalize_dims(call):
    # The order rule lives in normalize_dims; answers that do not depend
    # on the order read the pair as given.
    assert normalize_dims.__code__ not in entered_codes(call)


@pytest.mark.parametrize("m", [10, 12], ids=["bp_order(10)", "bp_order(12)"])
def test_a_warm_bp_order_enters_no_core(m):
    # The door checks m and the table's bp_order, the one home of |bP_m|,
    # reads the table's bp family for m = 2 mod 4 and t's cache, a
    # builtin, for m = 4k.
    assert entered(lambda: bp_order(m)) == ["bp_order", "bp_order"]


_PRESENT_PATH = ["present", "check_pair", "theta_order", "bp_order", "pi_go", "pi_go"]


@pytest.mark.parametrize(
    "call, path",
    [
        (lambda: present(19, 27), _PRESENT_PATH),
        # pi_go(24) tests its torsion entry before the Z x torsion wrap
        (lambda: present(23, 24), _PRESENT_PATH + ["is_unknown"]),
        (lambda: stabilizer(23, 24, 5), ["stabilizer", "check_pair"]),
    ],
    ids=["present(19, 27)", "present(23, 24)", "stabilizer(23, 24, 5)"],
)
def test_a_warm_call_checks_its_pair_once_and_enters_no_other_door(call, path):
    # The public door checks the pair; the cores behind it trust it, so
    # neither check_pair again nor a public function of bp taking a pair
    # is entered.  present reads |bP_{p+q+1}| from bp_order, which checks
    # m, not the pair.
    doors = {
        f.__code__: f.__name__ for f in (t, residual_group, pairing_coefficient)
    }
    entered = entered_codes(call)
    assert entered.count(check_pair.__code__) == 1
    assert [doors[code] for code in entered if code in doors] == []
    assert [code.co_name for code in entered[1:]] == path
    # present fills a draft and retypes it, so __init__ is not called.
    assert StructureSetPresentation.__init__.__code__ not in entered


def test_a_warm_present_checks_its_table_once():
    # present reads |bP_{p+q+1}| from the table it has checked, not through
    # the bp_order door, which would check the table again.  The table's
    # method shares the door's name, so the two are told apart by code.
    entered = entered_codes(lambda: present(19, 27))
    assert entered.count(check_pair.__code__) == 1
    assert bp_order.__code__ not in entered


def test_pairing_coefficient_of_multiples_of_four_needs_t_of_the_sum():
    # The record of (a, b) holds the gcd with t_{a+b}, so the coefficient
    # of a pair whose sum is past the cap raises the cap error of the sum.
    cap = 4 * MAX_BERNOULLI_INDEX
    with pytest.raises(ValueError, match=f"i <= {cap} .*, got 3312$"):
        pairing_coefficient(1656, 1656)


_NON_INT_CALLS = {
    "check_pair-p": (lambda: check_pair(4.0, 4), "p must be an int, got float"),
    "check_pair-q": (lambda: check_pair(4, "4"), "q must be an int, got str"),
    "residual_group-p": (lambda: residual_group(4.0, 4), "p must be an int, got float"),
    "residual_group-q": (lambda: residual_group(4, 4.0), "q must be an int, got float"),
    "image_f-p": (lambda: image_f_residual(4.0, 4), "p must be an int, got float"),
    "image_f-q": (lambda: image_f_residual(4, 4.5), "q must be an int, got float"),
    "t": (lambda: t(8.0), "i must be an int, got float"),
    "bp_order": (lambda: bp_order(8.0), "m must be an int, got float"),
    # The table's method checks m before the cache of t_m, and before the
    # odd branch, which 7.0 % 2 == 1 would take.
    "GroupTable.bp_order": (
        lambda: builtin_table().bp_order(12.0), "m must be an int, got float"
    ),
    "GroupTable.bp_order-odd": (
        lambda: builtin_table().bp_order(7.0), "m must be an int, got float"
    ),
    "bernoulli": (lambda: bernoulli(2.0), "k must be an int, got float"),
    "num_b_over_4k": (lambda: num_b_over_4k(2.0), "k must be an int, got float"),
    "theta_order": (lambda: theta_order(7.0), "n must be an int, got float"),
    "pi_go": (lambda: pi_go(4.0), "n must be an int, got float"),
    "group_structure": (
        lambda: group_structure_possible(3.0, 4), "p must be an int, got float"
    ),
    "present-p": (lambda: present(3.0, 4), "p must be an int, got float"),
    "present-q": (lambda: present(3, 4.0), "q must be an int, got float"),
    "top_structure_set": (lambda: top_structure_set(4.0, 4), "p must be an int, got float"),
    # d is checked before the pair, whose t would be past the cap
    "stabilizer-d": (lambda: stabilizer(3, 4000, 1.5), "d must be an int, got float"),
    # checked before the cache, so no float order is stored beside the
    # cached int order 28 of bP_8
    "KnownGroup.finite": (
        lambda: KnownGroup.finite(2.5), "order must be an int, got float"
    ),
    "KnownGroup.finite-cached": (
        lambda: KnownGroup.finite(28.0), "order must be an int, got float"
    ),
    "KnownGroup.z_times_finite": (
        lambda: KnownGroup.z_times_finite(3.0),
        "torsion_order must be an int, got float",
    ),
    "forgetful_fiber": (
        lambda: forgetful_fiber(3, 4, 1.0), "top_invariant must be an int, got float"
    ),
    # A float equal to a cached bool is rejected, as in a fresh process:
    # bernoulli's cache is typed, and cyclic_group checks before its cache.
    "bernoulli-after-bool": (
        lambda: (bernoulli(True), bernoulli(1.0)), "k must be an int, got float"
    ),
    "cyclic_group-after-bool": (
        lambda: (cyclic_group(True), cyclic_group(1.0)),
        "order must be an int, got float",
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_INT_CALLS))
def test_non_integer_dimensions_and_indices_are_rejected(case):
    call, message = _NON_INT_CALLS[case]
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


# Each door that takes a table, with valid arguments and with a bad first
# argument, whose message the table check must not overtake.
_TABLE_DOORS = {
    "present": (
        lambda table: present(3, 4, table=table),
        lambda table: present(3.0, 4, table=table),
        "p must be an int, got float",
    ),
    "bp_order": (
        lambda table: bp_order(10, table=table),
        lambda table: bp_order(3, table=table),
        r"bp_order\(m\) requires m >= 4, got 3",
    ),
    "eta_fiber_size": (
        lambda table: eta_fiber_size(3, 4, 1, table=table),
        lambda table: eta_fiber_size(3, 4, 1.0, table=table),
        "d must be an int, got float",
    ),
    "theta_order": (
        lambda table: theta_order(7, table=table),
        lambda table: theta_order(7.0, table=table),
        "n must be an int, got float",
    ),
    "pi_go": (
        lambda table: pi_go(4, table=table),
        lambda table: pi_go(4.0, table=table),
        "n must be an int, got float",
    ),
    # A dimension out of range is named before the table, as in bp_order.
    "theta_order(-5)": (
        lambda table: theta_order(1, table=table),
        lambda table: theta_order(-5, table=table),
        r"theta_order\(n\) requires n >= 1, got -5",
    ),
    "pi_go(0)": (
        lambda table: pi_go(2, table=table),
        lambda table: pi_go(0, table=table),
        r"pi_go\(n\) requires n >= 2, got 0",
    ),
    "pi_go(1)": (
        lambda table: pi_go(3, table=table),
        lambda table: pi_go(1, table=table),
        r"pi_go\(n\) requires n >= 2, got 1",
    ),
}


@pytest.mark.parametrize("door", sorted(_TABLE_DOORS))
def test_a_table_is_none_or_a_group_table(door):
    call, bad_call, first_message = _TABLE_DOORS[door]
    assert call(None) == call(builtin_table())
    call(parse_table('{"bp": {"10": "2"}}'))
    # A falsy non-table does not stand for the built-in table, and a truthy
    # one is named before any use could fail with an AttributeError.
    for bad, name in ((0, "int"), ({}, "dict"), ("x", "str"), ([], "list")):
        message = f"^table must be a GroupTable, got {name}$"
        with pytest.raises(TypeError, match=message):
            call(bad)
        with pytest.raises((TypeError, ValueError), match=f"^{first_message}$"):
            bad_call(bad)


class _Table(GroupTable):
    # A subclass that says |Theta_n| = 3 whatever its families hold.
    def theta_order(self, n):
        return KnownGroup.finite(3)


@pytest.mark.parametrize("door", ["present", "eta_fiber_size", "bp_order", "theta_order", "pi_go"])
def test_a_subclass_of_group_table_is_refused_at_every_table_door(door):
    # The table was once tested by isinstance, so a subclass skipped the
    # gate: eta_fiber_size(3, 4, 1, table) answered order 0 and present
    # reported |Theta_7| = 3.
    call = _TABLE_DOORS[door][0]
    with pytest.raises(TypeError, match="^table must be a GroupTable, got _Table$"):
        call(_Table())


def test_pairing_coefficient_rejects_non_integers_before_its_cache():
    # The record of (4, 4) is cached; a float or string key must not hit it.
    assert pairing_coefficient(4, 4) == 32
    for a, b, message in (
        (4.0, 4, "a must be an int, got float"),
        ("4", 4, "a must be an int, got str"),
        (4, 4.0, "b must be an int, got float"),
    ):
        with pytest.raises(TypeError, match=f"^{message}$"):
            pairing_coefficient(a, b)


def test_boolean_dimensions_and_indices_stay_accepted():
    assert t(True) == t(1) == 0
    assert pairing_coefficient(True, 4) == 0
    assert residual_group(True + 3, 4) == residual_group(4, 4)
    assert bernoulli(True) == bernoulli(1)
    assert theta_order(True + 6) == theta_order(7)
    assert KnownGroup.finite(True) == KnownGroup.finite(1)
    assert KnownGroup.z_times_finite(True) == KnownGroup.z_times_finite(1)


_Z28 = cyclic_group(28)
_ONE = NormalClassDiff(4, 1)

# Every public door that takes an integer, by the argument's name: each
# entry calls the door with x in that argument and fixed valid others.
_INT_DOORS = {
    "bernoulli": ("k", lambda x: bernoulli(x)),
    "num_b_over_4k": ("k", lambda x: num_b_over_4k(x)),
    "t": ("i", lambda x: t(x)),
    "bp_order": ("m", lambda x: bp_order(x)),
    "GroupTable.bp_order": ("m", lambda x: builtin_table().bp_order(x)),
    "check_pair-p": ("p", lambda x: check_pair(x, 5)),
    "check_pair-q": ("q", lambda x: check_pair(5, x)),
    "pairing_coefficient-a": ("a", lambda x: pairing_coefficient(x, 4)),
    "pairing_coefficient-b": ("b", lambda x: pairing_coefficient(4, x)),
    "residual_group": ("q", lambda x: residual_group(4, x)),
    "image_f_residual-p": ("p", lambda x: image_f_residual(x, 4)),
    "image_f_residual-q": ("q", lambda x: image_f_residual(4, x)),
    "theta_order": ("n", lambda x: theta_order(x)),
    "pi_go": ("n", lambda x: pi_go(x)),
    "KnownGroup-finite": ("order", lambda x: KnownGroup("finite", x)),
    "KnownGroup-z_times_finite": ("order", lambda x: KnownGroup("z_times_finite", x)),
    "KnownGroup.finite": ("order", lambda x: KnownGroup.finite(x)),
    "KnownGroup.z_times_finite": (
        "torsion_order", lambda x: KnownGroup.z_times_finite(x)
    ),
    "CyclicGroup": ("order", lambda x: CyclicGroup(x)),
    "cyclic_group": ("order", lambda x: cyclic_group(x)),
    "CyclicGroup.element": ("value", lambda x: _Z28.element(x)),
    "CyclicElement": ("value", lambda x: CyclicElement(_Z28, x)),
    "CyclicSubgroup": ("generator_value", lambda x: CyclicSubgroup(_Z28, x)),
    "subgroup_generated-n": ("n", lambda x: subgroup_generated(x, 2)),
    "subgroup_generated-g": ("g", lambda x: subgroup_generated(28, x)),
    "l_group": ("i", lambda x: l_group(x)),
    "LGroupKind": ("dim", lambda x: LGroupKind(x, "0")),
    "LClass-dim": ("dim", lambda x: LClass(x, 3)),
    "LClass-value": ("value", lambda x: LClass(4, x)),
    "NormalClassDiff-dim": ("dim", lambda x: NormalClassDiff(x, 3)),
    "NormalClassDiff-phi": ("phi", lambda x: NormalClassDiff(4, x)),
    "theta_diff": ("q", lambda x: theta_diff(4, x, _ONE, _ONE, _ONE)),
    "normalize_dims": ("p", lambda x: normalize_dims(x, 4)),
    "present": ("q", lambda x: present(4, x)),
    "del_map-p": ("p", lambda x: del_map(x, 4, 1, 2)),
    "del_map-phi_u": ("phi_u", lambda x: del_map(4, 4, x, 2)),
    "del_map-phi_v": ("phi_v", lambda x: del_map(4, 4, 2, x)),
    "stabilizer-q": ("q", lambda x: stabilizer(3, x, 1)),
    "stabilizer-d": ("d", lambda x: stabilizer(3, 4, x)),
    "eta_fiber_size-p": ("p", lambda x: eta_fiber_size(x, 4, 1)),
    "eta_fiber_size-d": ("d", lambda x: eta_fiber_size(3, 4, x)),
    "top_structure_set": ("p", lambda x: top_structure_set(x, 4)),
    "group_structure_possible": ("q", lambda x: group_structure_possible(4, x)),
    "forgetful_fiber-p": ("p", lambda x: forgetful_fiber(x, 4, 2)),
    "forgetful_fiber-top_invariant": (
        "top_invariant", lambda x: forgetful_fiber(3, 4, x)
    ),
    "S3S4Invariant": ("v", lambda x: S3S4Invariant(5, x)),
    "s3s4_inertia_group": ("v", lambda x: s3s4_inertia_group(x)),
    "wall_triple_of_plumbing-u": ("u", lambda x: wall_triple_of_plumbing(x, 2)),
    "wall_triple_of_plumbing-v": ("v", lambda x: wall_triple_of_plumbing(2, x)),
    "WallTriple-s_alpha_x": ("s_alpha_x", lambda x: WallTriple(x, 2)),
    "WallTriple-s_alpha_y": ("s_alpha_y", lambda x: WallTriple(2, x)),
    "plumbing_boundary_class-u": ("u", lambda x: plumbing_boundary_class(x, 2)),
    "plumbing_boundary_class-v": ("v", lambda x: plumbing_boundary_class(2, x)),
    "S4S4Manifold-u": ("u", lambda x: S4S4Manifold(x, 0, 1)),
    "S4S4Manifold-v": ("v", lambda x: S4S4Manifold(0, x, 1)),
    "S4S4Manifold-phi": ("phi", lambda x: S4S4Manifold(7, 1, x)),
}

# Every lru_cache of a core in the package, a core added later too: a
# refused argument reaches none of them.  The typed door caches,
# bernoulli's and the value classes' call cache, count a refused call as
# a miss, so they are compared by their sizes.
_ALL_CACHES = tuple(core_caches())
_DOOR_CACHES = (bernoulli, _shared)


def _outcome(call):
    try:
        return call(), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("door", list(_INT_DOORS))
@pytest.mark.parametrize("flag", [True, False])
def test_every_integer_door_takes_a_bool_as_the_int_it_equals(door, flag):
    # One integer rule at every door: True and False answer as 1 and 0
    # do, an error included (its message prints the int), and a value
    # stores the int, which its repr shows.
    call = _INT_DOORS[door][1]
    result, error = _outcome(lambda: call(flag))
    expected, expected_error = _outcome(lambda: call(int(flag)))
    assert error == expected_error
    if error is None:
        assert result == expected and repr(result) == repr(expected)
        if door != "bernoulli" and call(int(flag)) is expected:  # a shared value
            assert result is expected


def test_bernoulli_keeps_its_typed_cache():
    # The one exception to a shared answer: bernoulli's cache is typed,
    # so bernoulli(True) is its own entry, equal to bernoulli(1).
    assert bernoulli(True) == bernoulli(1)
    assert bernoulli(True) is not bernoulli(1)


@pytest.mark.parametrize("door", list(_INT_DOORS))
@pytest.mark.parametrize("value", [1.0, "1"], ids=["float", "str"])
def test_every_integer_door_refuses_a_non_int_before_any_cache(door, value):
    name, call = _INT_DOORS[door]
    # A typed door cache counts the refused call as a miss, but stores
    # nothing, so its size is compared.
    before = [cache.cache_info() for cache in _ALL_CACHES]
    sizes = [cache.cache_info().currsize for cache in _DOOR_CACHES]
    with pytest.raises(TypeError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an int, got {type(value).__name__}"
    assert [cache.cache_info() for cache in _ALL_CACHES] == before
    assert [cache.cache_info().currsize for cache in _DOOR_CACHES] == sizes


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bp_order(True), "bp_order(m) requires m >= 4, got 1"),
        (lambda: pi_go(True), "pi_go(n) requires n >= 2, got 1"),
        (lambda: theta_order(False), "theta_order(n) requires n >= 1, got 0"),
        (lambda: t(False), "t(i) requires i >= 1, got 0"),
        (
            lambda: check_pair(True, 5),
            "sphere factors need p, q >= 2 with p + q >= 5, got (1, 5)",
        ),
        (
            lambda: forgetful_fiber(3, 4, True),
            "topological normal invariant 1 is odd, hence not in the image of "
            "the smooth structure set (even invariants only)",
        ),
        (
            lambda: image_f_residual(True, 4),
            "image_f_residual expects dimensions (4j, 4k), got (1, 4)",
        ),
        (lambda: bernoulli(False), "bernoulli(k) requires k >= 1, got 0"),
        (lambda: num_b_over_4k(False), "num_b_over_4k(k) requires k >= 1, got 0"),
    ],
    ids=["bp_order", "pi_go", "theta_order", "t", "check_pair", "forgetful_fiber",
         "image_f_residual", "bernoulli", "num_b_over_4k"],
)
def test_a_message_about_a_bool_prints_the_int_it_equals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, least, message",
    [
        (t, 1, "t(i) requires i >= 1, got 0"),
        (bp_order, 4, "bp_order(m) requires m >= 4, got 3"),
        (builtin_table().bp_order, 4, "bp_order(m) requires m >= 4, got 3"),
        (theta_order, 1, "theta_order(n) requires n >= 1, got 0"),
        (pi_go, 2, "pi_go(n) requires n >= 2, got 1"),
        (l_group, 0, "l_group(i) requires i >= 0, got -1"),
        (bernoulli, 1, "bernoulli(k) requires k >= 1, got 0"),
        (num_b_over_4k, 1, "num_b_over_4k(k) requires k >= 1, got 0"),
        (lambda x: LGroupKind(x, "0"), 0, "LGroupKind(dim) requires dim >= 0, got -1"),
        (lambda x: LClass(x, 1), 0, "LClass(dim) requires dim >= 0, got -1"),
        (
            lambda x: NormalClassDiff(x, 1), 0,
            "NormalClassDiff(dim) requires dim >= 0, got -1",
        ),
    ],
    ids=["t", "bp_order", "GroupTable.bp_order", "theta_order", "pi_go", "l_group",
         "bernoulli", "num_b_over_4k", "LGroupKind", "LClass", "NormalClassDiff"],
)
def test_every_range_door_refuses_one_below_its_least_before_any_cache(
    call, least, message
):
    # One range rule, one message form: "<door>(<arg>) requires <arg> >=
    # <least>, got <value>".  The typed door caches, bernoulli's and the
    # value classes' call cache, are compared by size.
    before = [cache.cache_info() for cache in _ALL_CACHES]
    sizes = [cache.cache_info().currsize for cache in _DOOR_CACHES]
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == message
    assert [cache.cache_info() for cache in _ALL_CACHES] == before
    assert [cache.cache_info().currsize for cache in _DOOR_CACHES] == sizes


@pytest.mark.parametrize("m", [0, -4, -8, 1, 2, 3])
def test_the_table_method_bp_order_refuses_what_its_door_refuses(m):
    # One rule for m: the method once answered m = 1, 2, 3 and 0, leaving
    # t_0 = -0.125 in t's cache, and failed late on -4.
    message = f"bp_order(m) requires m >= 4, got {m}"
    before = [cache.cache_info() for cache in _ALL_CACHES]
    for call in (lambda: bp_order(m), lambda: builtin_table().bp_order(m)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert [cache.cache_info() for cache in _ALL_CACHES] == before


_PAIR_ARGUMENTS = [*range(-3, 10), True, False]


def test_the_inline_pair_tests_refuse_what_check_pair_refuses():
    # del_map, eta_fiber_size and theta_diff copy check_pair's test inline
    # and hand anything it fails to check_pair for its error; a refused
    # pair reaches no cache.
    for p, q in product(_PAIR_ARGUMENTS, repeat=2):
        error = _outcome(lambda: check_pair(p, q))[1]
        dims = (4, 4, 4) if error else (p, q, p + q)
        u, v, w = (NormalClassDiff(dim, 1) for dim in dims)
        doors = {
            "del_map": lambda: del_map(p, q, 1, 2),
            "eta_fiber_size": lambda: eta_fiber_size(p, q, 1),
            "theta_diff": lambda: theta_diff(p, q, u, v, w),
        }
        for door, call in doors.items():
            before = [cache.cache_info() for cache in _ALL_CACHES]
            assert _outcome(call)[1] == error, (door, p, q)
            if error:
                after = [cache.cache_info() for cache in _ALL_CACHES]
                assert after == before, (door, p, q)


@pytest.mark.parametrize(
    "p, error, message",
    [(0, ValueError, "t(i) requires i >= 1, got 0"),
     (4.0, TypeError, "p must be an int, got float")],
)
def test_as_dict_checks_the_fields_of_a_keyword_built_presentation(p, error, message):
    # The constructor checks the type of each field, so a float p is
    # refused when the value is built; as_dict reads c through
    # pairing_coefficient, because a range error still reaches it: p = 0
    # once left t_0 = -0.125 in t's cache.
    value = present(4, 4)
    fields = {name: getattr(value, name) for name in value.__slots__}
    before = [cache.cache_info() for cache in _ALL_CACHES]
    with pytest.raises(error) as info:
        StructureSetPresentation(**{**fields, "p": p, "q": 4}).as_dict()
    assert str(info.value) == message
    assert [cache.cache_info() for cache in _ALL_CACHES] == before


def test_image_f_residual():
    # The forgetful image is a subgroup exactly when the residual is trivial.
    for p, q in ((4, 4), (4, 8), (4, 12), (8, 8)):
        assert image_f_residual(p, q).order > 1, (p, q)
    for p, q in ((3, 4), (4, 6)):  # the message names this function
        with pytest.raises(ValueError, match=r"^image_f_residual expects dimensions"):
            image_f_residual(p, q)


def _residual_oracle(p: int, q: int) -> int:
    """Order of <8 t_p t_q> in Z_{t_{p+q}}, from the oracle t alone."""
    generator = 8 * t_oracle(p) * t_oracle(q)
    if (p + q) % 4 != 0 or generator == 0:
        return 1
    ambient = t_oracle(p + q)
    return ambient // gcd(ambient, generator)


_DIMS = st.integers(min_value=2, max_value=48)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.tuples(_DIMS, _DIMS), st.integers(min_value=4, max_value=120)),
        min_size=1,
        max_size=25,
    )
)
def test_memoised_values_match_oracle_in_any_call_order(calls):
    # Start cold, as in a fresh process; every answer must match the
    # oracle whether it was computed now or shared from an earlier call.
    _residual_split.cache_clear()
    _finite.cache_clear()
    for call in calls * 2:
        if isinstance(call, tuple):
            p, q = call
            if p + q < 5:
                continue
            assert residual_group(p, q).order == _residual_oracle(p, q), call
        elif call % 4 != 2:  # 2 mod 4 is a table lookup, never cached
            expected = t_oracle(call) if call % 4 == 0 and call > 4 else 1
            assert bp_order(call) == KnownGroup.finite(expected), call


_SMALL = st.integers(min_value=1, max_value=12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), _SMALL, _SMALL, st.integers(-50, 50)),
        min_size=1,
        max_size=20,
    )
)
def test_residual_and_stabilizer_match_oracle_in_either_call_order(calls):
    # Both read the cached split of (4j, 4k); from cold caches, whichever
    # of them fills the split first, every answer must match the oracle.
    _residual_split.cache_clear()
    _subgroup.cache_clear()
    for is_stabilizer, j, k, d in calls * 2:
        p, q = 4 * j, 4 * k
        if is_stabilizer:
            ambient = t_oracle(p + q)
            generator = gcd(d * 8 * t_oracle(p) * t_oracle(q) % ambient, ambient)
            sub = stabilizer(p - 1, q, d)
            assert (sub.ambient.order, sub.generator_value) == (ambient, generator)
            r = _residual_oracle(p, q)
            assert sub.order == r // gcd(d, r)
            assert (sub is _residual_split(p, q)[3]) == (gcd(d, r) == 1)
        else:
            assert residual_group(p, q).order == _residual_oracle(p, q)


def test_a_warm_generic_stabilizer_is_the_records_subgroup_with_no_cache_probe():
    # For d coprime to r = 73 the stabiliser of (7, 12) is the residual
    # subgroup the record holds, so a warm call asks _subgroup nothing.
    stabilizer(7, 12, 1)
    before = _subgroup.cache_info()
    for d in (1, -1, 2, 72, 74, 10**30 + 1):
        assert stabilizer(7, 12, d) is _residual_split(8, 12)[3]
    assert _subgroup.cache_info() == before


def test_stabilizers_of_d_0_and_d_1_are_trivial_and_the_residual_subgroup():
    # The paper's reason for no group structure on S^{4j-1} x S^{4k}:
    # stab(0) is trivial, while stab(1) has the order of the residual group.
    for j in range(1, 11):
        for k in range(1, 11):
            assert stabilizer(4 * j - 1, 4 * k, 0).is_trivial, (j, k)
            residual = residual_group(4 * j, 4 * k)
            assert stabilizer(4 * j - 1, 4 * k, 1).order == residual.order, (j, k)


def test_shared_results_are_frozen():
    group = residual_group(4, 4)
    assert group is residual_group(4, 4)
    bp8 = bp_order(8)
    assert bp8 is bp_order(8)
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'order'$"):
        group.order = 1
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'order'$"):
        bp8.order = 1
    assert residual_group(4, 4).order == 7
    assert bp_order(8) == KnownGroup.finite(28)


def test_t_at_the_cap_stays_printable():
    # Python converts ints of at most 4300 digits to str by default.
    top = t(4 * MAX_BERNOULLI_INDEX)
    assert top < 10**4300
    assert len(str(top)) <= 4300


def test_t_is_capped_at_once():
    cap = 4 * MAX_BERNOULLI_INDEX
    assert t(cap + 1) == 0  # off multiples of 4 no Bernoulli number is needed
    for i in (cap + 4, 100000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"i <= {cap}"):
            t(i)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match=f"i <= {cap}"):
        bp_order(cap + 4)
