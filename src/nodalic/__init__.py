"""nodalic: exact rational computations around nodal hypersurface sections.

Four engines and a command line, all over arbitrary-precision rationals
with no floating point anywhere:

- :mod:`nodalic.linalg`: dense exact matrices; rref, rank, kernel and
  column-space bases on top of one fraction-free integer elimination
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
"""

from . import bott, cli, linalg, monodromy, points
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
