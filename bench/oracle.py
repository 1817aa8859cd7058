"""Independent checks of every op result.

Nothing here imports the package.  Bernoulli numbers come from
``sympy.bernoulli``, t_i from the Levine order formula on top of them,
subgroups of Z_n by enumerating multiples, and the classifiers from
their closed forms (inertia order 14 / gcd(14, v), boundary class
-4uv mod 28, the fibre rule |Theta| / |stabiliser|).

Orders that come from the shipped reference table are checked only
where the literature fixes them (|Theta_n| for n <= 20), so extending
the table does not break the oracle.  ``check_op`` and ``check_query``
return None when the result is right and a message when it is wrong.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

# |Theta_n| for n <= 20 (Kervaire-Milnor).
THETA = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 28, 8: 2, 9: 8, 10: 6,
         11: 992, 12: 1, 13: 3, 14: 2, 15: 16256, 16: 2, 17: 16, 18: 16,
         19: 523264, 20: 24}
L_SYMBOLS = ("Z", "0", "Z/2", "0")


@lru_cache(maxsize=None)
def bernoulli(k: int) -> tuple[int, int]:
    """|B_2k| as (numerator, denominator), from sympy."""
    import sympy

    value = abs(sympy.bernoulli(2 * k))
    return int(value.p), int(value.q)


@lru_cache(maxsize=None)
def t(i: int) -> int:
    if i % 4:
        return 0
    k = i // 4
    if k == 1:
        return 2
    num, den = bernoulli(k)
    numerator = num // gcd(num, den * 4 * k)
    return (2 if k % 2 else 1) * 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * numerator


def subgroup(n: int, g: int) -> list[int]:
    """[n, canonical generator, order] of <g> in Z_n, by enumeration."""
    members = {(j * g) % n for j in range(n)}
    generator = min((x for x in members if x), default=n)
    return [n, generator % n, len(members)]


def residual_order(p: int, q: int) -> int:
    coefficient = 8 * t(p) * t(q)
    if (p + q) % 4 or coefficient == 0:
        return 1
    return t(p + q) // gcd(t(p + q), coefficient)


def normalise(p: int, q: int) -> tuple[int, int]:
    return (q, p) if (p + q) % 2 and q % 2 else (p, q)


def stabilizer(p: int, q: int, d: int) -> list[int]:
    p, q = normalise(p, q)
    m = p + q + 1
    ambient = t(m) if m % 4 == 0 else 1
    if p % 4 == 3 and q % 4 == 0:
        coefficient = 8 * d * t(p + 1) * t(q)
        g = gcd(coefficient % ambient, ambient)
        return [ambient, g % ambient, ambient // g]
    return [ambient, 0, 1]


def known(order):
    return {"kind": "finite", "order": order}


def theta_json(n: int):
    return known(THETA[n]) if n in THETA else None


def fiber_order(p: int, q: int, d: int) -> int | None:
    """|Theta_{p+q}| / |stabiliser(d)|, where |Theta_{p+q}| is known."""
    n = p + q
    return THETA[n] // stabilizer(p, q, d)[2] if n in THETA else None


def bp_order(m: int):
    if m % 2 or m == 4:
        return known(1)
    if m % 4 == 0:
        return known(t(m))
    return None  # table entry


def s3s4(fn: str, s0: int, v0: int, s1: int, v1: int) -> list:
    if fn == "s3s4_structure_equal":
        same = v0 == v1 and (s0 - s1) % gcd(32 * v0, 28) == 0
    else:
        same = abs(v0) == abs(v1) and (s0 - s1) % gcd(2 * v0, 28) == 0
    return [same, 14 // gcd(14, v0)]


def s4s4(fn: str, u0, v0, phi0, u1, v1, phi1) -> bool:
    almost = any({(u0, v0), (v0, u0)} & {(e * u1, e * v1)} for e in (1, -1))
    return almost and (fn == "s4s4_almost_diffeomorphic" or phi0 % 2 == phi1 % 2)


def theta_diff(p, q, u, v, w) -> list[int]:
    n = p + q
    value = t(n) * w if n % 4 == 0 else 0
    if p % 4 == 0 and q % 4 == 0:
        value += 8 * t(p) * u * t(q) * v
    symbol = L_SYMBOLS[n % 4]
    return [n, 0 if symbol == "0" else value % 2 if symbol == "Z/2" else value]


def present(p: int, q: int, got: dict) -> str | None:
    np_, nq = normalise(p, q)
    n = np_ + nq
    stab_shape = np_ % 4 == 3 and nq % 4 == 0
    expect = {
        "p": np_, "q": nq, "input_p": p, "input_q": q, "bp_dim": n,
        "residual_order": residual_order(np_, nq),
        "residual_generator_coefficient": 8 * t(np_) * t(nq),
        "action": "stabilizers_vary_with_d" if stab_shape else "free_everywhere",
        "bp_next": bp_order(n + 1),
        "theta": theta_json(n),
    }
    theta = got.get("theta", {})
    if theta.get("kind") == "unknown":
        expect["fiber_group_order"] = "unknown"
    elif not stab_shape:
        expect["fiber_group_order"] = theta.get("order")
    else:
        expect["fiber_group_order"] = "depends on d"
        expect["stabilizer_generator_coefficient"] = 8 * t(np_ + 1) * t(nq)
        expect["stabilizer_ambient_order"] = t(n + 1)
    for key, value in expect.items():
        if value is not None and got.get(key) != value:
            return f"present({p}, {q}).{key} = {got.get(key)!r}, expected {value!r}"
    return None


def expected(op: list):
    """Expected canonical result, or None when only a table fixes it."""
    kind, args = op[0], op[1:]
    if kind == "bernoulli":
        return list(bernoulli(args[0]))
    if kind == "t":
        return t(args[0])
    if kind == "bp_order":
        return bp_order(args[0])
    if kind == "residual_group":
        return residual_order(*args)
    if kind in ("stabilizer",):
        return stabilizer(*args)
    if kind == "subgroup_generated":
        return subgroup(*args)
    if kind == "plumbing_boundary_class":
        return [28, (-4 * args[0] * args[1]) % 28]
    if kind == "del_map":
        p, q, u, v = args
        n = p + q
        if n % 4:
            return [1, 0]
        return [t(n), (8 * t(p) * t(q) * u * v) % t(n)]
    if kind.startswith("s3s4"):
        return s3s4(kind, *args)
    if kind.startswith("s4s4"):
        return s4s4(kind, *args)
    if kind == "theta_diff":
        return theta_diff(*args)
    if kind == "eta_fiber_size":
        order = fiber_order(*args)
        return None if order is None else known(order)
    if kind == "theta_order":
        return theta_json(args[0])
    if kind == "load_table":
        return [known(2), known(2)]
    if kind == "main":
        return args[0]["expect"]
    raise KeyError(kind)


def check_op(op: list, got) -> str | None:
    if isinstance(got, dict) and "error" in got:
        return f"{op}: raised {got['error']}"
    kind = op[0]
    if kind == "present":
        return present(op[1], op[2], got)
    want = expected(op)
    if want is not None and got != want:
        return f"{op}: got {got!r}, expected {want!r}"
    return None


# --- CLI envelopes --------------------------------------------------------

def _override_bp(m: int, table: bool):
    return known(2) if table and m in (10, 18) else None


def query_payload(cmd: str, args: list[str], table: bool) -> dict:
    """Expected fields of a --json result payload (a subset of its keys)."""
    ints = [int(a) for a in args if a.lstrip("-").isdigit()]
    if cmd == "bernoulli":
        num, den = bernoulli(ints[0])
        return {"k": ints[0], "numerator": num, "denominator": den,
                "value": f"{num}/{den}" if den != 1 else str(num)}
    if cmd == "t":
        return {"i": ints[0], "value": t(ints[0])}
    if cmd == "bp-order":
        m = ints[0]
        want = bp_order(m) or _override_bp(m, table)
        return {"m": m, "group": want} if want else {"m": m}
    p, q = ints[0], ints[1]
    if cmd == "residual":
        n = p + q
        return {"order": residual_order(p, q), "generator_coefficient": 8 * t(p) * t(q),
                "ambient_bp_dim": n, "ambient_bp_order": t(n) if n % 4 == 0 else None}
    if cmd == "stabilizer":
        ambient, generator, order = stabilizer(p, q, ints[2])
        return {"ambient_order": ambient, "generator": generator, "order": order}
    if cmd == "fiber":
        order = fiber_order(p, q, ints[2])
        return {} if order is None else {"fiber_order": order}
    if cmd == "group-structure":
        np_, nq = normalise(p, q)
        if np_ % 4 == 3 and nq % 4 == 0:
            return {"possible": False, "reason": "non-constant stabilizers"}
        if np_ % 4 == 0 and nq % 4 == 0 and residual_order(np_, nq) > 1:
            return {"possible": False, "reason": "image not a subgroup"}
        return {"possible": True, "reason": None}
    if cmd == "image-f":
        order = residual_order(p, q)
        return {"is_subgroup": order == 1, "residual_order": order}
    if cmd == "top-set":
        factors = [L_SYMBOLS[p % 4], L_SYMBOLS[q % 4]]
        return {"factors": factors, "singleton": factors == ["0", "0"]}
    if cmd == "classify-s3s4":
        s0, v0, s1, v1 = ints
        equal, inertia_a = s3s4("s3s4_structure_equal", s0, v0, s1, v1)
        diffeo, _ = s3s4("s3s4_diffeomorphic", s0, v0, s1, v1)
        return {"structure_equal": equal, "diffeomorphic": diffeo,
                "inertia_order_a": inertia_a, "inertia_order_b": 14 // gcd(14, v1)}
    if cmd == "classify-s4s4":
        if "--plumbing" in args:
            u, v = ints
            boundary = (-4 * u * v) % 28
            return {"s_alpha": [24 * u, 24 * v], "boundary_class": boundary,
                    "standard": boundary == 0}
        return {"almost_diffeomorphic": s4s4("s4s4_almost_diffeomorphic", *ints),
                "diffeomorphic": s4s4("s4s4_diffeomorphic", *ints)}
    raise KeyError(cmd)


def check_query(query: dict, code: int, stdout: str) -> str | None:
    """Exit status always; the payload too for --json queries."""
    if code != query["expect"]:
        return f"{query['argv']}: exit {code}, expected {query['expect']}"
    if code != 0:
        return None
    if not stdout.strip():
        return f"{query['argv']}: empty output"
    if not query["json"]:
        return None
    import json

    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"{query['argv']}: bad envelope ({exc})"
    argv = [a for a in query["argv"] if a not in ("--json", "--table")]
    argv = [a for a in argv if not a.endswith(".json")]
    if argv[0] == "structure-set":
        wrong = present(int(argv[1]), int(argv[2]), result)
        return wrong and f"{query['argv']}: {wrong}"
    want = query_payload(argv[0], argv[1:], query["table"])
    for key, value in want.items():
        if result.get(key) != value:
            return f"{query['argv']}: {key} = {result.get(key)!r}, expected {value!r}"
    return None
