"""Op implementations run inside the worker, and their canonical results.

Each op function takes ``L``, a namespace holding the package's public
callables, so the traced and untraced loops run the same code: only the
objects behind ``L``'s attributes differ.  ``canonical`` turns a result
into plain JSON values after timing, for the oracle.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

# Public callables the ops use, by name.  The layer of each is its
# defining module (``fn.__module__``), read at run time.
LIBRARY_NAMES = (
    "bernoulli", "t", "bp_order", "residual_group", "present", "stabilizer",
    "eta_fiber_size", "del_map", "S3S4Invariant", "s3s4_structure_equal",
    "s3s4_diffeomorphic", "s3s4_inertia_group", "S4S4Manifold",
    "s4s4_almost_diffeomorphic", "s4s4_diffeomorphic",
    "plumbing_boundary_class", "NormalClassDiff", "theta_diff",
    "subgroup_generated", "theta_order", "load_table",
)


def _s3s4(L, fn, s0, v0, s1, v1):
    a, b = L.S3S4Invariant(s0, v0), L.S3S4Invariant(s1, v1)
    return getattr(L, fn)(a, b), L.s3s4_inertia_group(v0).order


def _s4s4(L, fn, u0, v0, phi0, u1, v1, phi1):
    return getattr(L, fn)(L.S4S4Manifold(u0, v0, phi0), L.S4S4Manifold(u1, v1, phi1))


def _theta_diff(L, p, q, u, v, w):
    return L.theta_diff(p, q, L.NormalClassDiff(p, u), L.NormalClassDiff(q, v),
                        L.NormalClassDiff(p + q, w))


def _main(L, query):
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return L.main(query["argv"])


OPS = {
    "bernoulli": lambda L, k: L.bernoulli(k),
    "t": lambda L, i: L.t(i),
    "bp_order": lambda L, m: L.bp_order(m),
    "residual_group": lambda L, p, q: L.residual_group(p, q),
    "present": lambda L, p, q: L.present(p, q),
    "stabilizer": lambda L, p, q, d: L.stabilizer(p, q, d),
    "eta_fiber_size": lambda L, p, q, d: L.eta_fiber_size(p, q, d),
    "del_map": lambda L, p, q, u, v: L.del_map(p, q, u, v),
    "s3s4_structure_equal": lambda L, *a: _s3s4(L, "s3s4_structure_equal", *a),
    "s3s4_diffeomorphic": lambda L, *a: _s3s4(L, "s3s4_diffeomorphic", *a),
    "s4s4_almost_diffeomorphic": lambda L, *a: _s4s4(L, "s4s4_almost_diffeomorphic", *a),
    "s4s4_diffeomorphic": lambda L, *a: _s4s4(L, "s4s4_diffeomorphic", *a),
    "plumbing_boundary_class": lambda L, u, v: L.plumbing_boundary_class(u, v),
    "theta_diff": _theta_diff,
    "subgroup_generated": lambda L, n, g: L.subgroup_generated(n, g),
    "theta_order": lambda L, n: L.theta_order(n),
    "load_table": lambda L: L.load_table(L.table_path),
    "main": _main,
}


def canonical(kind: str, result, pkg):
    """Plain-JSON form of an op result, read through public attributes."""
    if kind == "bernoulli":
        return [result.numerator, result.denominator]
    if kind in ("t", "main") or kind.startswith("s4s4"):
        return result
    if kind in ("bp_order", "eta_fiber_size", "theta_order"):
        return result.as_json()
    if kind == "residual_group":
        return result.order
    if kind == "present":
        return result.as_dict()
    if kind in ("stabilizer", "subgroup_generated"):
        n = result.ambient.order
        return [n, result.generator_value % n, result.order]
    if kind in ("del_map", "plumbing_boundary_class"):
        return [result.group.order, result.value]
    if kind.startswith("s3s4"):
        return list(result)
    if kind == "theta_diff":
        return [result.dim, result.value]
    if kind == "load_table":
        return [pkg.bp_order(m, result).as_json() for m in (10, 18)]
    raise KeyError(kind)
