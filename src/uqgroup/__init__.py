"""Grouped ensemble propagation for adaptive sparse-grid collocation.

The package couples an adaptive hierarchical sparse-grid surrogate with an
ensemble PCG solver whose lanes share one sparsity pattern, and measures how
much iteration count a grouping strategy wastes when samples of unequal
difficulty share an ensemble.
"""

from . import ensemble, fem3d, grouping, harness, hier_grid, random_field
from .ensemble import *  # noqa: F401,F403
from .fem3d import *  # noqa: F401,F403
from .grouping import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .hier_grid import *  # noqa: F401,F403
from .random_field import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *ensemble.__all__,
    *fem3d.__all__,
    *grouping.__all__,
    *harness.__all__,
    *hier_grid.__all__,
    *random_field.__all__,
    "__version__",
]
