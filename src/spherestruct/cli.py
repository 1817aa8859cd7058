"""Command-line front end.

Every subcommand answers one library question; ``--json`` switches the
output to a deterministic envelope with the query echoed back, the result
payload, and provenance notes saying which numbers are exact formula
output and which come from the reference table.  ``--table FILE`` (or the
SURGERY_TABLE environment variable) merges a JSON override file over the
built-in table.

Exit status: 0 on success, 1 on domain errors (a precondition violated by
otherwise well-formed arguments, a malformed table file, or an index
above the Bernoulli cap), 2 on usage errors (including a table file that
cannot be read).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bp import bp_order, image_f_residual, pairing_coefficient, residual_group, t
from .classify import (
    S3S4Invariant,
    S4S4Manifold,
    plumbing_boundary_class,
    s3s4_diffeomorphic,
    s3s4_inertia_group,
    s3s4_structure_equal,
    s4s4_almost_diffeomorphic,
    s4s4_diffeomorphic,
    wall_triple_of_plumbing,
)
from .rationals import bernoulli
from .structset import (
    eta_fiber_size,
    group_structure_possible,
    present,
    stabilizer,
    top_structure_set,
)
from .tables import GroupTable, KnownGroup, TableReadError, load_table

PROG = "spherestruct"

_NOTE_TABLE = (
    "theta, pi(G/O) and bP_{4k+2} orders: shipped reference table "
    "(override with --table or SURGERY_TABLE)"
)
_NOTE_FORMULA = "t_i and |bP_{4k}| orders: Levine order formula, exact integers"
_NOTE_BERNOULLI = (
    "Bernoulli numbers: exact rationals in the topologist's indexing (B_1 = 1/6)"
)
_NOTE_T16 = (
    "t_16 = 8128 = 64 * 127; the value 8182 appearing in some printed "
    "tables is a misprint"
)


class UsageError(Exception):
    """Argument combinations argparse alone cannot reject."""


def _order_or_unknown(group: KnownGroup) -> int | str:
    return "unknown" if group.is_unknown else group.order


def _cyclic_name(group: KnownGroup, name: str) -> str:
    if group.is_unknown:
        return f"{name} = unknown"
    if group.is_trivial:
        return f"{name} = 0 (trivial)"
    return f"{name} = Z_{group.order}"


def _operands(args) -> dict:
    # The subcommand's own arguments, by name: the envelope echoes them,
    # and most payloads repeat them.
    return {
        key: value for key, value in vars(args).items()
        if key not in ("command", "json", "table")
    }


def _cmd_bernoulli(args, table):
    value = bernoulli(args.k)
    payload = {
        **_operands(args),
        "value": str(value),
        "numerator": value.numerator,
        "denominator": value.denominator,
    }
    return payload, [f"B_{args.k} = {value}"], [_NOTE_BERNOULLI]


def _cmd_t(args, table):
    value = t(args.i)
    text = [f"t_{args.i} = {value}"]
    notes = [_NOTE_FORMULA, "t_4 = 2 by definition; t_i = 0 off multiples of 4"]
    if args.i == 16:
        text.append(_NOTE_T16)
        notes.append(_NOTE_T16)
    return {**_operands(args), "value": value}, text, notes


def _cmd_bp_order(args, table):
    group = bp_order(args.m, table)
    payload = {
        **_operands(args),
        "group": group.as_json(),
        "order": _order_or_unknown(group),
    }
    notes = [_NOTE_FORMULA]
    if args.m % 4 == 2:
        notes.append(_NOTE_TABLE)
    return payload, [_cyclic_name(group, f"bP_{args.m}")], notes


def _cmd_residual(args, table):
    group = residual_group(args.p, args.q)
    n = args.p + args.q
    payload = {
        **_operands(args),
        "order": group.order,
        "generator_coefficient": pairing_coefficient(args.p, args.q),
        "ambient_bp_dim": n,
        "ambient_bp_order": t(n) if n % 4 == 0 else None,
    }
    label = f"8*t_{args.p}*t_{args.q} . bP_{n}"
    if group.order == 1:
        text = [f"residual group {label} = 0 (trivial)"]
    else:
        text = [f"residual group {label} = {group} (order {group.order})"]
    return payload, text, [_NOTE_FORMULA]


def _cmd_structure_set(args, table):
    pres = present(args.p, args.q, table)
    return pres.as_dict(), pres.lines(), [_NOTE_FORMULA, _NOTE_TABLE]


def _cmd_fiber(args, table):
    group = eta_fiber_size(args.p, args.q, args.d, table)
    payload = {**_operands(args), "fiber_order": _order_or_unknown(group)}
    if group.is_unknown:
        text = [f"fibre over d = {args.d}: unknown size"]
    else:
        text = [f"fibre over d = {args.d}: {group.order} elements"]
    return payload, text, [_NOTE_FORMULA, _NOTE_TABLE]


def _cmd_stabilizer(args, table):
    sub = stabilizer(args.p, args.q, args.d)
    payload = {
        **_operands(args),
        "ambient_order": sub.ambient.order,
        "generator": sub.generator_value % sub.ambient.order,
        "order": sub.order,
    }
    return payload, [f"stabiliser(d = {args.d}) = {sub} (order {sub.order})"], [_NOTE_FORMULA]


def _cmd_group_structure(args, table):
    verdict = group_structure_possible(args.p, args.q)
    payload = {**_operands(args), "possible": verdict.possible, "reason": verdict.reason}
    if verdict.possible:
        text = ["group structure possible: yes"]
    else:
        text = [f"group structure possible: no ({verdict.reason})"]
    return payload, text, [_NOTE_FORMULA]


def _cmd_image_f(args, table):
    residual = image_f_residual(args.p, args.q)
    is_subgroup = residual.order == 1
    payload = {
        **_operands(args),
        "is_subgroup": is_subgroup,
        "residual_order": residual.order,
    }
    if is_subgroup:
        text = ["image of the forgetful map is a subgroup: yes"]
    else:
        text = [
            "image of the forgetful map is a subgroup: no "
            f"(residual group {residual})"
        ]
    return payload, text, [_NOTE_FORMULA]


def _cmd_top_set(args, table):
    top = top_structure_set(args.p, args.q)
    payload = {
        **_operands(args),
        "factors": [top.p_factor.symbol, top.q_factor.symbol],
        "is_group": True,
        "singleton": top.is_singleton,
    }
    text = [f"S^Top(S^{args.p} x S^{args.q}) = {top} (a group)"]
    if top.is_singleton:
        text.append("the topological structure set is a single point")
    return payload, text, ["topological structure set: L_p x L_q, 4-periodic"]


def _cmd_classify_s3s4(args, table):
    a = S3S4Invariant(args.sigma0, args.v0)
    b = S3S4Invariant(args.sigma1, args.v1)
    payload = {
        "a": {"sigma": a.sigma.value, "v": a.v},
        "b": {"sigma": b.sigma.value, "v": b.v},
        "structure_equal": s3s4_structure_equal(a, b),
        "diffeomorphic": s3s4_diffeomorphic(a, b),
        "inertia_order_a": s3s4_inertia_group(a.v).order,
        "inertia_order_b": s3s4_inertia_group(b.v).order,
    }
    text = [
        f"manifolds (sigma, v): ({a.sigma.value}, {a.v}) vs ({b.sigma.value}, {b.v})",
        f"same structure-set point: {_yesno(payload['structure_equal'])}",
        f"diffeomorphic: {_yesno(payload['diffeomorphic'])}",
        f"inertia group orders: {payload['inertia_order_a']}, {payload['inertia_order_b']}",
    ]
    return payload, text, ["classification over S^3 x S^4 (Wilkens data)"]


def _cmd_classify_s4s4(args, table):
    if args.plumbing is not None:
        if args.data:
            raise UsageError(
                "classify-s4s4 takes either --plumbing U V or six integers, not both"
            )
        u, v = args.plumbing
        triple = wall_triple_of_plumbing(u, v)
        boundary = plumbing_boundary_class(u, v)
        payload = {
            "mode": "plumbing-boundary",
            "u": u,
            "v": v,
            "s_alpha": [triple.s_alpha_x, triple.s_alpha_y],
            "boundary_class": boundary.value,
            "standard": boundary.is_zero,
        }
        text = [
            f"plumbing W_({u},{v}): Salpha = ({triple.s_alpha_x}, {triple.s_alpha_y})",
            f"boundary class in {boundary.group}: {boundary.value}",
            f"boundary is the standard sphere: {_yesno(payload['standard'])}",
        ]
        return payload, text, [
            f"boundary class: (signature - Salpha^2)/8 mod {boundary.group.order}"
        ]
    if len(args.data) != 6:
        raise UsageError(
            "classify-s4s4 needs U0 V0 PHI0 U1 V1 PHI1 (or --plumbing U V)"
        )
    u0, v0, phi0, u1, v1, phi1 = args.data
    a = S4S4Manifold(u0, v0, phi0)
    b = S4S4Manifold(u1, v1, phi1)
    payload = {
        "a": {"u": a.u, "v": a.v, "phi": a.phi},
        "b": {"u": b.u, "v": b.v, "phi": b.phi},
        "almost_diffeomorphic": s4s4_almost_diffeomorphic(a, b),
        "diffeomorphic": s4s4_diffeomorphic(a, b),
    }
    text = [
        f"manifolds N_(u,v,phi): ({a.u}, {a.v}, {a.phi}) vs ({b.u}, {b.v}, {b.phi})",
        f"almost diffeomorphic: {_yesno(payload['almost_diffeomorphic'])}",
        f"diffeomorphic: {_yesno(payload['diffeomorphic'])}",
    ]
    return payload, text, ["classification over S^4 x S^4 (Wall data)"]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _ints(*names: str) -> tuple:
    return tuple((name, {}) for name in names)


_PQ = _ints("p", "q")
_PQD = _PQ + (("--d", {"required": True, "help": "even-factor coordinate"}),)

# Subcommand name -> (handler, help text, integer arguments), in help order.
# Each argument is (name or flag, extra add_argument keywords).
_COMMANDS = {
    "bernoulli": (_cmd_bernoulli, "Bernoulli number B_k", _ints("k")),
    "t": (_cmd_t, "the constant t_i", _ints("i")),
    "bp-order": (_cmd_bp_order, "order of bP_m", _ints("m")),
    "residual": (_cmd_residual, "residual group 8 t_p t_q . bP_{p+q}", _PQ),
    "structure-set": (_cmd_structure_set, "present S^Diff(S^p x S^q)", _PQ),
    "group-structure": (
        _cmd_group_structure, "can the smooth structure set be a group?", _PQ
    ),
    "image-f": (_cmd_image_f, "is the forgetful image a subgroup? (4j, 4k only)", _PQ),
    "top-set": (_cmd_top_set, "the topological structure set L_p x L_q", _PQ),
    "fiber": (_cmd_fiber, "normal-invariant fibre size", _PQD),
    "stabilizer": (_cmd_stabilizer, "stabiliser subgroup", _PQD),
    "classify-s3s4": (
        _cmd_classify_s3s4,
        "compare two manifolds over S^3 x S^4",
        _ints("sigma0", "v0", "sigma1", "v1"),
    ),
    "classify-s4s4": (
        _cmd_classify_s4s4,
        "compare two manifolds over S^4 x S^4",
        (
            ("data", {"nargs": "*", "metavar": "U0 V0 PHI0 U1 V1 PHI1",
                      "help": "two (u, v, phi) triples"}),
            ("--plumbing", {"nargs": 2, "metavar": ("U", "V"),
                            "help": "boundary of the plumbing W_{u,v} instead"}),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", metavar="FILE", help="JSON table override file")
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact structure-set calculator for products of spheres",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments:
            sp.add_argument(flag, type=int, **options)
    return parser


def _load_table(args) -> GroupTable | None:
    path = args.table or os.environ.get("SURGERY_TABLE")
    if not path:
        return None
    try:
        return load_table(path)
    except TableReadError as exc:
        raise UsageError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        table = _load_table(args)
        payload, text, provenance = _COMMANDS[args.command][0](args, table)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        import json  # only the envelope needs it; keeps the import light

        query = {"command": args.command, **_operands(args)}
        envelope = {"query": query, "result": payload, "provenance": provenance}
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        for line in text:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
