"""Exact calculator for smooth structure sets of products of spheres.

The package computes, with integer and rational arithmetic only, the
pieces of the surgery-theoretic description of S^Diff(S^p x S^q): orders
of the groups bP_{4k} through the Levine order formula, the residual
obstruction groups 8 t_p t_q . bP_{p+q}, stabilisers and fibre sizes of
the homotopy-sphere action, and full diffeomorphism classifications over
S^3 x S^4 and S^4 x S^4.

``_HOMES`` is the one list of public names.  It maps each library
module, in layer order, lowest first, to its public names in order, and
each module's ``__all__`` is its entry (``__all__ = _HOMES["bp"]``).
The package's own ``__all__`` is ``__version__`` followed by them all.
The command-line front end ``cli`` is not re-exported.  A public name is
added, renamed or removed in its module's entry here.  A new library
module gets an entry here and a place in ``LAYERS`` in
``tests/test_api.py``, and
``tests/test_api.py::test_the_package_re_exports_each_library_module_all``
fails until the two agree.

The package loads lazily (PEP 562): ``import spherestruct`` runs no
library module.  The first read of a public name imports its home
module, which imports the layers below it, and binds the value here, so
later reads are plain attribute hits; the first read of a submodule
(``spherestruct.bp``, ``spherestruct.cli``) imports it.  ``_HOMES``
names the home of each public name without importing it.  ``from
spherestruct import *`` imports every library module but ``cli``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_HOMES = {
    "cyclic": (
        "CyclicGroup", "cyclic_group", "CyclicElement", "CyclicSubgroup",
        "subgroup_generated",
    ),
    "levine": ("MAX_BERNOULLI_INDEX", "num_b_over_4k"),
    "rationals": ("bernoulli",),
    "tables": (
        "KnownGroup", "GroupTable", "TableError", "TableReadError", "builtin_table",
        "theta_order", "pi_go", "parse_table", "load_table",
    ),
    "bp": ("t", "bp_order", "check_pair", "pairing_coefficient", "residual_group"),
    "ltheory": ("LGroupKind", "LClass", "NormalClassDiff", "l_group", "theta_diff"),
    "structset": (
        "StructureSetPresentation", "TopStructureSet", "GroupStructureVerdict",
        "ACTION_FREE", "ACTION_STABILIZER", "normalize_dims", "present", "del_map",
        "stabilizer", "eta_fiber_size",
    ),
    "consequences": (
        "top_structure_set", "group_structure_possible", "forgetful_fiber",
        "image_f_residual",
    ),
    "classify": (
        "BP8", "S3S4Invariant", "WallTriple", "S4S4Manifold", "s3s4_structure_equal",
        "s3s4_diffeomorphic", "s3s4_inertia_group", "wall_triple_of_plumbing",
        "plumbing_boundary_class", "s4s4_almost_diffeomorphic", "s4s4_diffeomorphic",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset((*_HOMES, "cli"))

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # Called only for a name not bound yet.  Importing a submodule binds
    # it here itself, as in asyncio/__init__.py.
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
