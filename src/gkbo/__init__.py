"""Derivative-free multi-modal global optimization with interacting particles.

The main solver runs a leader-follower kinetic population: leaders drift
toward per-cluster softmax consensus points, followers track their nearest
leader under multiplicative noise, and leadership is re-negotiated every step
from rank-based weights. A clustered consensus baseline, multi-modal benchmark
objectives, and a Monte Carlo experiment harness round out the toolkit.
"""

from . import bench, ensemble, errors, objectives, pcbo, solver
from .bench import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .objectives import *  # noqa: F403
from .pcbo import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

# each module's own __all__ declares its public names
__all__ = [
    *bench.__all__,
    *ensemble.__all__,
    *errors.__all__,
    *objectives.__all__,
    *pcbo.__all__,
    *solver.__all__,
    "__version__",
]
