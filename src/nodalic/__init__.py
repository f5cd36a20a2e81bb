"""nodalic: exact rational computations around nodal hypersurface sections.

Four engines and a command line, all over arbitrary-precision rationals
with no floating point anywhere:

- :mod:`nodalic.linalg`: dense exact matrices and their rank, through
  an echelon certificate or one fraction-free forward elimination
  kernel that keeps its rows primitive.
- :mod:`nodalic.monodromy`: rank-one monodromy logarithms from
  vanishing cycles, the complex of their products, and the stalk
  dimensions of the middle extension with defect and filtration
  bookkeeping.
- :mod:`nodalic.points`: point sets in projective space, evaluation
  ranks, independence-of-conditions reports, and the rational grid
  node configurations.
- :mod:`nodalic.bott`: line-bundle cohomology on projective space,
  Koszul and Eagon-Northcott resolutions, and the h1 vanishing chase.
- :mod:`nodalic.cli`: JSON-first command line tying them together.

Each submodule is imported on first attribute access (PEP 562), so
``import nodalic`` loads none of them and a command loads only the
engines it uses.  The results they return are named tuples.
"""

from importlib import import_module

from .errors import InputError, PreconditionError

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "PreconditionError",
    "__version__",
    "bott",
    "cli",
    "linalg",
    "monodromy",
    "points",
]


def __getattr__(name):
    # called only for names not yet bound: of __all__, the submodules
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
