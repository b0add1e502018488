"""quadexp: exact arithmetic and recognition tools for exponential values
attached to real quadratic field data.

Layers, bottom up: _core (the exact and floating-point LLL kernels on
integer rows), numerics (fixed-point reals/complexes with certified error
bounds), quadfield (quadratic irrationals, continued fractions, units),
classforms (form class groups, pseudo-lattice representatives, conductor
matching), modular (j-invariant, ring class polynomials, field
generators), recognition (J evaluation and LLL-based algebraicity tests),
sklyanin (symbolic relation-system checking), pipeline (case runner,
range runner, symbolic suites), cli (the ``quadexp`` command line).
"""

from .errors import QuadexpError

__version__ = "0.1.0"

__all__ = ["QuadexpError", "__version__"]
