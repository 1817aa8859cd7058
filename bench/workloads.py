"""Seeded op lists for the three benchmark workloads.

An op is a JSON list ``[kind, *args]``; ``ops.py`` runs it against the
package and ``oracle.py`` checks its result.  A CLI query is a dict with
the argv, the expected exit status and the flags it carries.  Everything
here is a pure function of (workload, seed), so the same seed
always gives the same inputs, and the package never sees the seed.

Kind counts are fixed shares of each list and only the arguments and the
order come from the seed, so the cost of a list barely depends on the
seed.  That keeps run-to-run spread small.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-mix", "deep-sweep", "classify-grid")

# Path of the override table the CLI queries pass with --table, relative
# to the checkout root (the working directory of every child process).
TABLE_PATH = ".bench_work/table.json"

# A valid override: bP_10 and bP_18 are Z_2 (no Kervaire-invariant-one
# manifold in dimensions 10 and 18) and both divide |Theta_9| = 8 and
# |Theta_17| = 16, so the file loads without consistency warnings.
TABLE_OVERRIDE = {"bp": {"10": "2", "18": "2"}, "pi_go_torsion": {"8": "2"}}

# Sizes per workload: (full, smoke).  Smoke sizes keep the tests fast.
DEEP_OPS = (5000, 400)
DEEP_MAX_K = (80, 24)
GRID_OPS = (4000, 400)
GRID_PASSES = (5, 2)
CLI_QUERIES = (2000, 40)
CLI_BLOCK = 20  # queries per block; the CLI driver sends a block twice in a row


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _counts(total: int, shares: list[tuple[str, int]]) -> list[str]:
    """Kinds repeated by integer percentage, topped up with the first kind."""
    kinds = [kind for kind, pct in shares for _ in range(total * pct // 100)]
    kinds += [shares[0][0]] * (total - len(kinds))
    return kinds


def bernoulli_indices(smoke: bool = False) -> list[int]:
    """Indices a deep-sweep list touches: every k up to 5K/8, where the
    t_i, residual and stabilizer calls reach, then every fourth k up to K.
    Thinning the top keeps a round near one second, so a run gets many
    rounds to take each op's fastest time from."""
    max_k = DEEP_MAX_K[smoke]
    dense = 5 * max_k // 8
    return list(range(1, dense + 1)) + list(range(dense + 4 - dense % 4, max_k + 1, 4))


def deep_sweep(seed: int, smoke: bool = False) -> list[list]:
    """Cold deep-dimension library calls, one call per op.

    The list opens with one op per Bernoulli index in ``bernoulli_indices``,
    in seeded order: ``t(4k)`` for k <= K/4 and ``bernoulli(k)`` above.
    No later op needs another index, so these openers pay all the cold
    Bernoulli work, one index each, and the cold cost of every op is the
    same for every seed.  The rest of the list is shuffled.
    """
    rng = _rng("deep-sweep", seed)
    total, max_k = DEEP_OPS[smoke], DEEP_MAX_K[smoke]
    small = max_k // 2
    ks = bernoulli_indices(smoke)
    openers = [["t", 4 * k] if k <= max_k // 4 else ["bernoulli", k]
               for k in rng.sample(ks, len(ks))]
    kinds = _counts(total - len(ks), [
        ("present", 25), ("bernoulli", 10), ("t", 15), ("bp_order", 10),
        ("residual_group", 20), ("stabilizer", 20)])
    ops = []
    for kind in kinds:
        if kind == "bernoulli":
            ops.append([kind, rng.choice(ks)])
        elif kind == "t":
            ops.append([kind, 4 * rng.randint(1, small)])
        elif kind == "bp_order":
            ops.append([kind, rng.randint(4, 4 * small)])
        elif kind == "residual_group":
            lim = min(25, 5 * max_k // 16)
            ops.append([kind, 4 * rng.randint(1, lim), 4 * rng.randint(1, lim)])
        elif kind == "present":
            n = rng.randint(5, 3 * small)
            p = rng.randint(2, n - 2)
            ops.append([kind, p, n - p])
        else:
            lim = max_k // 4
            ops.append([kind, 4 * rng.randint(1, lim) - 1,
                        4 * rng.randint(1, lim), rng.randint(-60, 60)])
    rng.shuffle(ops)
    return openers + ops


def _s3s4_pair(rng: random.Random) -> list[int]:
    s0, v0 = rng.randrange(28), rng.randint(-30, 30)
    v1 = rng.choice([v0, -v0, rng.randint(-30, 30)])
    s1 = (s0 + rng.choice([0, 2 * v0, 4 * v0, rng.randrange(28)])) % 28
    return [s0, v0, s1, v1]


def _s4s4_triple(rng: random.Random) -> list[int]:
    u, v = rng.randint(-30, 30), 7 * rng.randint(-4, 4)
    if rng.random() < 0.5:
        u, v = v, u
    return [u, v, rng.randrange(2)]


def _s4s4_pair(rng: random.Random) -> list[int]:
    a = _s4s4_triple(rng)
    if rng.random() < 0.5:
        sign = rng.choice([1, -1])
        u, v = sign * a[0], sign * a[1]
        if rng.random() < 0.5:
            u, v = v, u
        b = [u, v, rng.randrange(2)]
    else:
        b = _s4s4_triple(rng)
    return a + b


THETA_DIFF_SHAPES = [(4, 4), (4, 8), (8, 4), (8, 8), (3, 4), (4, 3),
                     (2, 6), (6, 2), (4, 6), (5, 7)]


def classify_grid(seed: int, smoke: bool = False) -> list[list]:
    """Shallow classifier, structure-set and table calls; run warm, many passes."""
    rng = _rng("classify-grid", seed)
    kinds = _counts(GRID_OPS[smoke], [
        ("s3s4_structure_equal", 15), ("s3s4_diffeomorphic", 15),
        ("s4s4_almost_diffeomorphic", 10), ("s4s4_diffeomorphic", 10),
        ("plumbing_boundary_class", 10), ("eta_fiber_size", 10),
        ("del_map", 10), ("theta_diff", 10), ("subgroup_generated", 5),
        ("theta_order", 5)])
    ops = []
    for i, kind in enumerate(kinds):
        if kind.startswith("s3s4"):
            ops.append([kind, *_s3s4_pair(rng)])
        elif kind.startswith("s4s4"):
            ops.append([kind, *_s4s4_pair(rng)])
        elif kind == "plumbing_boundary_class":
            ops.append([kind, rng.randint(-50, 50), rng.randint(-50, 50)])
        elif kind == "eta_fiber_size":
            # Two in three over S^3 x S^4 (stabilisers vary), one over S^4 x S^4.
            shape = (3, 4) if i % 3 else (4, 4)
            ops.append([kind, *shape, rng.randint(-100, 100)])
        elif kind == "del_map":
            ops.append([kind, 4, 4, rng.randint(-50, 50), rng.randint(-50, 50)])
        elif kind == "theta_diff":
            p, q = rng.choice(THETA_DIFF_SHAPES)
            ops.append([kind, p, q, *(rng.randint(-5, 5) for _ in range(3))])
        elif kind == "subgroup_generated":
            ops.append([kind, rng.randint(1, 120), rng.randint(-200, 200)])
        else:
            ops.append([kind, rng.randint(1, 24)])
    rng.shuffle(ops)
    return ops


# One cheap call into every layer, repeated; run after a traced workload so
# each layer reports measured calls on every workload.
LAYER_PROBE = [
    ["bernoulli", 5], ["t", 8], ["bp_order", 12], ["subgroup_generated", 28, 8],
    ["theta_order", 7], ["load_table"], ["theta_diff", 4, 4, 1, 1, 0],
    ["stabilizer", 3, 4, 2], ["plumbing_boundary_class", 1, 2],
    ["main", {"argv": ["t", "8"], "expect": 0, "json": False, "table": False}],
]
LAYER_PROBE_REPEATS = 20

SUBCOMMANDS = ("bernoulli", "t", "bp-order", "residual", "structure-set",
               "fiber", "stabilizer", "group-structure", "image-f", "top-set",
               "classify-s3s4", "classify-s4s4")

# Well-formed queries that break a precondition (exit 1) and malformed
# ones (exit 2).  None of them depends on table contents or on a size cap.
INVALID_QUERIES = [
    (["bernoulli", "0"], 1), (["t", "0"], 1), (["bp-order", "3"], 1),
    (["residual", "1", "5"], 1), (["structure-set", "2", "2"], 1),
    (["image-f", "3", "4"], 1), (["top-set", "1", "4"], 1),
    (["classify-s4s4", "1", "1", "0", "2", "2", "0"], 1),
    (["t", "abc"], 2), (["residual", "4"], 2), (["frobnicate", "3"], 2),
    (["fiber", "3", "4"], 2), (["classify-s4s4", "1", "2", "3"], 2),
    (["classify-s4s4", "7", "1", "0", "1", "7", "0", "--plumbing", "1", "1"], 2),
]


def _pair(rng: random.Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(2, 20), rng.randint(2, 20)
        if p + q >= 5:
            return p, q


def _valid_args(cmd: str, rng: random.Random) -> list:
    if cmd == "bernoulli":
        return [rng.randint(1, 30)]
    if cmd == "t":
        return [rng.randint(1, 40)]
    if cmd == "bp-order":
        return [rng.randint(4, 40)]
    if cmd == "image-f":
        return [4 * rng.randint(1, 5), 4 * rng.randint(1, 5)]
    if cmd == "classify-s3s4":
        return _s3s4_pair(rng)
    if cmd == "classify-s4s4":
        if rng.random() < 0.5:
            return ["--plumbing", rng.randint(-10, 10), rng.randint(-10, 10)]
        return _s4s4_pair(rng)
    p, q = _pair(rng)
    if cmd in ("fiber", "stabilizer"):
        return [p, q, "--d", rng.randint(-30, 30)]
    return [p, q]


def cli_mix(seed: int, smoke: bool = False) -> list[dict]:
    """CLI queries in blocks of CLI_BLOCK = 20: 1 invalid, 2 with --table and
    5 with --json.

    Subcommands cycle through a seeded order of all twelve, so every
    prefix of the list covers them about evenly.
    """
    rng = _rng("cli-mix", seed)
    queries: list[dict] = []
    cycle: list[str] = []
    while len(queries) < CLI_QUERIES[smoke]:
        block = []
        for _ in range(CLI_BLOCK - 1):
            if not cycle:
                cycle = list(SUBCOMMANDS)
                rng.shuffle(cycle)
            cmd = cycle.pop()
            args = [str(a) for a in _valid_args(cmd, rng)]
            block.append({"argv": [cmd, *args], "expect": 0, "json": False,
                          "table": False})
        table_ops = rng.sample(range(CLI_BLOCK - 1), 2)
        # One override query per block is a bP_{4k+2} lookup the override
        # changes, so the oracle sees the file take effect.
        block[table_ops[0]]["argv"] = ["bp-order", rng.choice(["10", "18"])]
        block[table_ops[0]]["json"] = True
        for i in table_ops:
            block[i]["table"] = True
        for i in rng.sample(range(CLI_BLOCK - 1), 5):
            block[i]["json"] = True
        # Blocks alternate between domain errors (1) and usage errors (2).
        code = 1 + len(queries) // CLI_BLOCK % 2
        argv = rng.choice([a for a, c in INVALID_QUERIES if c == code])
        block.insert(rng.randrange(CLI_BLOCK),
                     {"argv": list(argv), "expect": code, "json": False, "table": False})
        queries.extend(block)
    for q in queries:
        q["cmd"] = q["argv"][0]
        if q["json"]:
            q["argv"].append("--json")
        if q["table"]:
            q["argv"] += ["--table", TABLE_PATH]
    return queries
