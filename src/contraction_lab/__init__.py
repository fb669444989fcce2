"""Numerical laboratory for products of decreasing positive contractions.

Build chains ``T_1 >= T_2 >= ... >= 0``, run the ordered products
``S_n = T_n ... T_1``, measure convergence to the limit fixed-space
projection in several topologies, search for uniform spectral gap
certificates by rank descent, and exercise the classic unitary-orbit
counterexample to total boundedness.

The package exports exactly the names each module lists in its own
``__all__``; ``corpus`` and ``cli`` are imported as modules.
"""

from . import chains, config, errors, gaps, nonexample, operators, products
from .chains import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gaps import *  # noqa: F401,F403
from .nonexample import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .products import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *operators.__all__,
    *chains.__all__,
    *products.__all__,
    *gaps.__all__,
    *nonexample.__all__,
    *config.__all__,
    *errors.__all__,
]
