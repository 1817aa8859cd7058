"""One SHA-256 per family of library values, to show that a change leaves
every value (and every error) as it was.

    PYTHONPATH=src python tests/value_digest.py [--max-sum N] [--max-d D] [--json]

It covers every pair (p, q) with p, q >= 0 and p + q < N (default 130),
in both orders, and every integer coordinate d with |d| <= D (default
70), which ``forgetful_fiber`` also takes as its ``top_invariant``.
``image_f_residual`` and ``top_structure_set`` take each pair of the
grid, so their errors for every other shape and for a pair that
``check_pair`` rejects are pinned too.
``theta_diff`` takes d as the coordinates (d, 1, d) and (1, d, -d) of
(u, v, w), each pair once more with a w of the wrong dimension, and a
few pairs past the cap of ``t``, so that the order of its pair,
dimension and cap errors is pinned too.
``eta_fiber_size_override`` repeats ``eta_fiber_size`` with README's
example override table right after each built-in call, so an answer of
the built-in table that reached an override call would show.
``plumbing_boundary_class`` takes d as (d, 1) and (1, d).
``bp_order`` covers every m from 1 to 4 * D (below 4 an error), and
``theta_order`` and ``pi_go`` every n from 0 to 4 * D, so that both
range errors are pinned; each with the built-in table and with an
override table that sets bP_10 and bP_18.  ``t`` covers every i from -1
to 4 * D and the first multiple of 4 past its cap, whose error is raised
before any work.  ``group_table`` does not depend on the grid: it builds
a fixed list of tables (by hand, from ``golden_table.json``, from the
README's example override, and by keyword from the built-in table's
fields), so a change to any rule of the table gate shows here.
``classify`` does not depend on the grid either: it takes both S^3 x S^4
predicates over every pair of a box of ``S3S4Invariant``s (every sigma
in Z_28, a few v) and both S^4 x S^4 predicates over every pair of a
box of ``S4S4Manifold``s (u, v in -8..8 with 7 | uv, both twists), one
line per pair with both verdicts, and each constructor over a list of
arguments that it accepts or refuses.
Each family hashes one line per call: its arguments and either the
``repr`` of the value (``present`` hashes ``as_dict()`` as JSON) or the
type and message of the error it raised, so a pair that ``check_pair``
rejects is pinned too.  It prints ``family digest`` lines, or with
``--json`` the grid and its digests as ``tests/golden_values.json``
stores them.  To record that file again after an intended value change:

    PYTHONPATH=src python tests/value_digest.py --max-sum 40 --max-d 20 --json > tests/golden_values.json

The file is not a test module: ``test_value_digest.py`` runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from collections.abc import Callable
from pathlib import Path

from spherestruct.bp import bp_order, residual_group, t
from spherestruct.classify import (
    BP8,
    S3S4Invariant,
    S4S4Manifold,
    plumbing_boundary_class,
    s3s4_diffeomorphic,
    s3s4_structure_equal,
    s4s4_almost_diffeomorphic,
    s4s4_diffeomorphic,
)
from spherestruct.consequences import (
    forgetful_fiber,
    group_structure_possible,
    image_f_residual,
    top_structure_set,
)
from spherestruct.cyclic import CyclicElement, cyclic_group
from spherestruct.levine import MAX_BERNOULLI_INDEX
from spherestruct.ltheory import NormalClassDiff, theta_diff
from spherestruct.structset import del_map, eta_fiber_size, present, stabilizer
from spherestruct.tables import (
    GroupTable,
    KnownGroup,
    builtin_table,
    parse_table,
    pi_go,
    theta_order,
)

FAMILIES = (
    "present",
    "stabilizer",
    "eta_fiber_size",
    "residual_group",
    "del_map",
    "theta_diff",
    "group_structure_possible",
    "forgetful_fiber",
    "image_f_residual",
    "top_structure_set",
    "bp_order",
    "theta_order",
    "pi_go",
    "t",
    "group_table",
    "plumbing_boundary_class",
    "eta_fiber_size_override",
    "classify",
)

# bP_10 and bP_18 are the orders m = 2 mod 4 below 21 that the built-in
# table leaves unknown; the override gives bp_order a table answer there.
_OVERRIDE = '{"bp": {"10": "2", "18": "1"}}'


# The example override of README's "Reference table overrides" section.
_README_OVERRIDE = """{
  "theta":        {"21": "16256", "22": "unknown"},
  "pi_go_torsion": {"9": "8", "4": "Z"},
  "bp":           {"18": "2"}
}"""


def _tables() -> dict[str, Callable[[], GroupTable]]:
    # The fixed list that ``group_table`` hashes, by name.
    finite, trivial = KnownGroup.finite, KnownGroup.trivial()
    golden = Path(__file__).with_name("golden_table.json").read_text(encoding="utf-8")
    builtin = builtin_table()
    return {
        "theta-chain": lambda: GroupTable(theta={7: finite(5)}),
        "theta-int-value": lambda: GroupTable(theta={7: 28}),
        "bp-order-7": lambda: GroupTable(bp={10: finite(7)}),
        "theta-str-key": lambda: GroupTable(theta={"7": finite(28)}),
        "theta-bool-key": lambda: GroupTable(theta={True: trivial}),
        "theta-zero-key": lambda: GroupTable(theta={0: trivial}),
        "bp-key-8": lambda: GroupTable(bp={8: finite(28)}),
        "bp-key-7": lambda: GroupTable(bp={7: trivial}),
        "golden_table.json": lambda: parse_table(golden),
        "readme-override": lambda: parse_table(_README_OVERRIDE),
        "builtin-by-keyword": lambda: GroupTable(
            **{name: getattr(builtin, name) for name in GroupTable.__slots__}
        ),
    }


# Constructor arguments for the ``classify`` family: accepted ones (a
# bool, a sigma out of 0..27, a twist out of {0, 1}) and refused ones (a
# foreign type, a sigma of another group, 7 not dividing uv, also for a
# u of 100 digits, which the message shows in full).
_S3S4_ARGS = (
    (3, 1), (29, -3), (-1, 2), (True, 2), (3, True), (3, 1.0), (1.5, 1),
    ("3", 1), (None, 0), (CyclicElement(BP8, 3), 1),
    (CyclicElement(cyclic_group(7), 3), 1),
)
_S4S4_ARGS = (
    (7, 1, 0), (1, 14, 3), (0, 5, -1), (-1, -7, 2), (True, 7, True),
    (1, 1, 0), (2, 3, 1), (-5, 6, 0), (10**99 + 2, 1, 0), (-(10**99) - 2, 1, 0),
    (1.0, 7, 0), (7, 1, 0.0), (2, 3, "x"),
)


def _classify(feed: Callable[[tuple, str], None]) -> None:
    # The ``classify`` family (see the module docstring).
    for args in _S3S4_ARGS:
        feed(("S3S4Invariant", *args), _outcome(lambda: S3S4Invariant(*args)))
    for args in _S4S4_ARGS:
        feed(("S4S4Manifold", *args), _outcome(lambda: S4S4Manifold(*args)))
    s3s4 = [
        S3S4Invariant(sigma, v)
        for v in (-14, -7, -2, -1, 0, 1, 2, 3, 7, 14)
        for sigma in range(28)
    ]
    for a in s3s4:
        for b in s3s4:
            verdicts = (s3s4_structure_equal(a, b), s3s4_diffeomorphic(a, b))
            feed((a.sigma.value, a.v, b.sigma.value, b.v), repr(verdicts))
    box = range(-8, 9)
    s4s4 = [
        S4S4Manifold(u, v, phi)
        for u in box for v in box if u * v % 7 == 0 for phi in (0, 1)
    ]
    for a in s4s4:
        for b in s4s4:
            verdicts = (s4s4_almost_diffeomorphic(a, b), s4s4_diffeomorphic(a, b))
            feed((a.u, a.v, a.phi, b.u, b.v, b.phi), repr(verdicts))


def _outcome(call: Callable[[], object], show: Callable[[object], str] = repr) -> str:
    try:
        return show(call())
    except (TypeError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def _as_json(value: object) -> str:
    return json.dumps(value.as_dict(), sort_keys=True)


def digests(max_sum: int, max_d: int) -> dict[str, str]:
    """The digest of each family over the grid p + q < max_sum, |d| <= max_d."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}

    def feed(family: str, args: tuple, outcome: str) -> None:
        hashes[family].update(f"{args} {outcome}\n".encode())

    def obstruction(p: int, q: int, u: int, v: int, w: int, w_dim: int) -> object:
        return theta_diff(
            p, q, NormalClassDiff(p, u), NormalClassDiff(q, v), NormalClassDiff(w_dim, w)
        )

    readme = parse_table(_README_OVERRIDE)
    ds = range(-max_d, max_d + 1)
    for p in range(max_sum):
        for q in range(max_sum - p):
            wrong_w = _outcome(lambda: obstruction(p, q, 1, 1, 1, p + q + 1))
            feed("theta_diff", (p, q, "w_dim"), wrong_w)
            feed("present", (p, q), _outcome(lambda: present(p, q), _as_json))
            feed("residual_group", (p, q), _outcome(lambda: residual_group(p, q)))
            feed(
                "group_structure_possible",
                (p, q),
                _outcome(lambda: group_structure_possible(p, q)),
            )
            feed("image_f_residual", (p, q), _outcome(lambda: image_f_residual(p, q)))
            feed("top_structure_set", (p, q), _outcome(lambda: top_structure_set(p, q)))
            for d in ds:
                args = (p, q, d)
                feed("stabilizer", args, _outcome(lambda: stabilizer(p, q, d)))
                feed("eta_fiber_size", args, _outcome(lambda: eta_fiber_size(p, q, d)))
                feed(
                    "eta_fiber_size_override",
                    args,
                    _outcome(lambda: eta_fiber_size(p, q, d, readme)),
                )
                feed("del_map", args, _outcome(lambda: del_map(p, q, d, 1)))
                feed("del_map", args, _outcome(lambda: del_map(p, q, 1, d)))
                feed("theta_diff", args, _outcome(lambda: obstruction(p, q, d, 1, d, p + q)))
                feed("theta_diff", args, _outcome(lambda: obstruction(p, q, 1, d, -d, p + q)))
                feed("forgetful_fiber", args, _outcome(lambda: forgetful_fiber(p, q, d)))
    for d in ds:
        for args in ((d, 1), (1, d)):
            feed(
                "plumbing_boundary_class",
                args,
                _outcome(lambda: plumbing_boundary_class(*args)),
            )
    override = parse_table(_OVERRIDE)
    for m in range(1, 4 * max_d + 1):
        feed("bp_order", (m,), _outcome(lambda: bp_order(m)))
        feed("bp_order", (m, "override"), _outcome(lambda: bp_order(m, override)))
    for n in range(4 * max_d + 1):
        for name, order in (("theta_order", theta_order), ("pi_go", pi_go)):
            feed(name, (n,), _outcome(lambda: order(n)))
            feed(name, (n, "override"), _outcome(lambda: order(n, override)))
    past = 4 * MAX_BERNOULLI_INDEX + 4  # the first multiple of 4 past the cap
    for p, q in ((past, 4), (4, past), (past, past + 4), (2, past - 2)):
        feed("theta_diff", (p, q), _outcome(lambda: obstruction(p, q, 1, 1, 1, p + q)))
    for i in [*range(-1, 4 * max_d + 1), past]:
        feed("t", (i,), _outcome(lambda: t(i)))
    for name, build in _tables().items():
        feed("group_table", (name,), _outcome(build))
    _classify(lambda args, outcome: feed("classify", args, outcome))
    return {family: h.hexdigest() for family, h in hashes.items()}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-sum", type=int, default=130, help="cover p + q < N")
    parser.add_argument("--max-d", type=int, default=70, help="cover |d| <= D")
    parser.add_argument("--json", action="store_true", help="print the golden JSON")
    args = parser.parse_args(argv)
    result = digests(args.max_sum, args.max_d)
    if args.json:
        grid = {"max_sum": args.max_sum, "max_d": args.max_d, "digests": result}
        print(json.dumps(grid, indent=1))
    else:
        for family, digest in result.items():
            print(family, digest)


if __name__ == "__main__":
    main()
