"""Command-line front end.

Every subcommand answers one library question; ``--json`` switches the
output to a deterministic envelope with the query echoed back, the result
payload, and provenance notes saying which numbers are exact formula
output, which come from the reference table and which the table derives
from its theta orders.  ``--table FILE`` (or the
SURGERY_TABLE environment variable) merges a JSON override file over the
built-in table.

Integer arguments have the one reader of the table file's keys and
orders (``tables._decimal``): an optional ``-`` and then ASCII digits, so
``+16``, ``1_6``, `` 16 `` and non-ASCII digits are usage errors, and an
error shows a long number by its digit count (``cyclic._shown``).

Handlers read the library through the package namespace (``lib.t``,
``lib.present``), whose first read of a public name imports its home
module and the layers below it, so a query loads only the module that
answers it: ``t 16`` loads ``tables``, ``cyclic``, ``levine`` and
``bp``, never ``classify`` and its tables, and only ``bernoulli`` loads
``rationals`` and ``fractions``.  ``spherestruct._HOMES`` alone names
the home of a public name; from home modules ``cli`` imports only the
shared private rules it lists nowhere.

Handlers decide no fact: each is a library call plus a render, with the
query echo and the notes as its own.  A value that renders itself (the
presentation, the two consequence values of ``structset``, a subgroup's
``as_dict``) gives the payload and the text; otherwise the handler
labels what the library answered.  ``image-f`` takes its answer from
``group_structure_possible``, whose verdict on the (4j, 4k) shape is
whether the forgetful image is a subgroup, and ``image_f_residual``
refuses the other shapes and names the residual group.  An ``ast`` test
in ``tests/test_cli.py`` keeps arithmetic and comparisons on anything
but the arguments, and literal bools, out of the handlers.

Exit status: 0 on success, 1 on domain errors (a precondition violated by
otherwise well-formed arguments, a malformed table file, or an index
above the Bernoulli cap), 2 on usage errors (including a malformed
integer argument and a table file that cannot be read).  A reader that
closes stdout early ends the output with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import spherestruct as lib

from .cyclic import _shown, _shown_repr
from .tables import _decimal

PROG = "spherestruct"

_NOTE_TABLE = (
    "theta and pi_2(G/O) orders: shipped reference table; other pi(G/O) and bP_{4k+2} "
    "orders: derived from theta unless given (override with --table or SURGERY_TABLE)"
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


def _order_or_unknown(group: lib.KnownGroup) -> int | str:
    return "unknown" if group.is_unknown else group.order


def _cyclic_name(group: lib.KnownGroup, name: str) -> str:
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
    value = lib.bernoulli(args.k)
    payload = {
        **_operands(args),
        "value": str(value),
        "numerator": value.numerator,
        "denominator": value.denominator,
    }
    return payload, [f"B_{args.k} = {value}"], [_NOTE_BERNOULLI]


def _cmd_t(args, table):
    value = lib.t(args.i)
    text = [f"t_{args.i} = {value}"]
    notes = [_NOTE_FORMULA, "t_4 = 2 by definition; t_i = 0 off multiples of 4"]
    if args.i == 16:
        text.append(_NOTE_T16)
        notes.append(_NOTE_T16)
    return {**_operands(args), "value": value}, text, notes


def _cmd_bp_order(args, table):
    group = lib.bp_order(args.m, table)
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
    group = lib.residual_group(args.p, args.q)
    n = args.p + args.q
    payload = {
        **_operands(args),
        "order": group.order,
        "generator_coefficient": lib.pairing_coefficient(args.p, args.q),
        "ambient_bp_dim": n,
        "ambient_bp_order": lib.t(n) or None,  # t_n = 0 off multiples of 4
    }
    label = f"8*t_{args.p}*t_{args.q} . bP_{n}"
    if group.is_trivial:
        text = [f"residual group {label} = 0 (trivial)"]
    else:
        text = [f"residual group {label} = {group} (order {group.order})"]
    return payload, text, [_NOTE_FORMULA]


def _cmd_structure_set(args, table):
    pres = lib.present(args.p, args.q, table)
    return pres.as_dict(), pres.lines(), [_NOTE_FORMULA, _NOTE_TABLE]


def _cmd_fiber(args, table):
    group = lib.eta_fiber_size(args.p, args.q, args.d, table)
    payload = {**_operands(args), "fiber_order": _order_or_unknown(group)}
    if group.is_unknown:
        text = [f"fibre over d = {args.d}: unknown size"]
    else:
        text = [f"fibre over d = {args.d}: {group.order} elements"]
    return payload, text, [_NOTE_FORMULA, _NOTE_TABLE]


def _cmd_stabilizer(args, table):
    sub = lib.stabilizer(args.p, args.q, args.d)
    text = [f"stabiliser(d = {args.d}) = {sub} (order {sub.order})"]
    return {**_operands(args), **sub.as_dict()}, text, [_NOTE_FORMULA]


def _cmd_group_structure(args, table):
    verdict = lib.group_structure_possible(args.p, args.q)
    return {**_operands(args), **verdict.as_dict()}, verdict.lines(), [_NOTE_FORMULA]


def _cmd_image_f(args, table):
    # image_f_residual refuses a pair off the (4j, 4k) shape.  On it the
    # group-structure verdict is the answer: possible exactly when the
    # forgetful image is a subgroup.
    residual = lib.image_f_residual(args.p, args.q)
    is_subgroup = lib.group_structure_possible(args.p, args.q).possible
    payload = {**_operands(args), "is_subgroup": is_subgroup, "residual_order": residual.order}
    answer = "yes" if is_subgroup else f"no (residual group {residual})"
    return payload, [f"image of the forgetful map is a subgroup: {answer}"], [_NOTE_FORMULA]


def _cmd_top_set(args, table):
    top = lib.top_structure_set(args.p, args.q)
    notes = ["topological structure set: L_p x L_q, 4-periodic"]
    return {**_operands(args), **top.as_dict()}, top.lines(), notes


def _cmd_classify_s3s4(args, table):
    a = lib.S3S4Invariant(args.sigma0, args.v0)
    b = lib.S3S4Invariant(args.sigma1, args.v1)
    payload = {
        "a": {"sigma": a.sigma.value, "v": a.v},
        "b": {"sigma": b.sigma.value, "v": b.v},
        "structure_equal": lib.s3s4_structure_equal(a, b),
        "diffeomorphic": lib.s3s4_diffeomorphic(a, b),
        "inertia_order_a": lib.s3s4_inertia_group(a.v).order,
        "inertia_order_b": lib.s3s4_inertia_group(b.v).order,
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
        triple = lib.wall_triple_of_plumbing(u, v)
        boundary = lib.plumbing_boundary_class(u, v)
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
    a = lib.S4S4Manifold(u0, v0, phi0)
    b = lib.S4S4Manifold(u1, v1, phi1)
    payload = {
        "a": {"u": a.u, "v": a.v, "phi": a.phi},
        "b": {"u": b.u, "v": b.v, "phi": b.phi},
        "almost_diffeomorphic": lib.s4s4_almost_diffeomorphic(a, b),
        "diffeomorphic": lib.s4s4_diffeomorphic(a, b),
    }
    text = [
        f"manifolds N_(u,v,phi): ({a.u}, {a.v}, {a.phi}) vs ({b.u}, {b.v}, {b.phi})",
        f"almost diffeomorphic: {_yesno(payload['almost_diffeomorphic'])}",
        f"diffeomorphic: {_yesno(payload['diffeomorphic'])}",
    ]
    return payload, text, ["classification over S^4 x S^4 (Wall data)"]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _integer(text: str) -> int:
    # The type of every integer argument: the package's one reader,
    # ``tables._decimal``, and a long number shown by its digit count.
    try:
        value = _decimal(text, "argument")
    except lib.TableError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown_repr(text)}")
    return value


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


class _Parser(argparse.ArgumentParser):
    # argparse drops an OSError of its own writes, so that --help or
    # --version into a closed stdout would exit 0 with nothing delivered.
    # This parser, and the subparsers it makes, deliver stdout's text as
    # an answer is delivered, so that the error reaches ``main``.

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            print(message, end="", flush=True)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", metavar="FILE", help="JSON table override file")
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")

    parser = _Parser(
        prog=PROG,
        description="exact structure-set calculator for products of spheres",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {lib.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments:
            sp.add_argument(flag, type=_integer, **options)
    return parser


def _load_table(args) -> lib.GroupTable | None:
    path = args.table or os.environ.get("SURGERY_TABLE")
    if not path:
        return None
    try:
        return lib.load_table(path)
    except lib.TableReadError as exc:
        raise UsageError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:  # --help or --version into a closed stdout
        return _undelivered()

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
        text = [json.dumps(envelope, sort_keys=True, indent=2)]
    try:
        for line in text:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        return _undelivered()
    return 0


def _undelivered() -> int:
    # The reader closed stdout: the output ends here, undelivered.  Point
    # stdout at os.devnull, so that the interpreter's flush at exit finds
    # nothing to report.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


if __name__ == "__main__":
    sys.exit(main())
