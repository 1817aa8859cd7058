"""Exact calculator for smooth structure sets of products of spheres.

The package computes, with integer and rational arithmetic only, the
pieces of the surgery-theoretic description of S^Diff(S^p x S^q): orders
of the groups bP_{4k} through the Levine order formula, the residual
obstruction groups 8 t_p t_q . bP_{p+q}, stabilisers and fibre sizes of
the homotopy-sphere action, and full diffeomorphism classifications over
S^3 x S^4 and S^4 x S^4.

A library module's ``__all__`` is its public API, and the only list of
it: the package re-exports each of them, and its own ``__all__`` is
``__version__`` followed by theirs.  The command-line front end ``cli``
is not re-exported.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .rationals import *
from .cyclic import *
from .tables import *
from .bp import *
from .ltheory import *
from .structset import *
from .classify import *

# Importing a submodule binds its name here, as in asyncio/__init__.py.
__all__ = [
    "__version__",
    *rationals.__all__,
    *cyclic.__all__,
    *tables.__all__,
    *bp.__all__,
    *ltheory.__all__,
    *structset.__all__,
    *classify.__all__,
]
