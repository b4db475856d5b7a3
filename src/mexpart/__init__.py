"""Exact combinatorics of partition mex runs and restricted overpartitions.

The package ties three views of the same counting problem together: direct
enumeration of the families, constructive bijections between them, and an
exact truncated q-series oracle, plus a harness that cross-checks all three.

The public names are those of each module's ``__all__``, re-exported here.
"""

from . import bijections, families, oracle, partitions, qseries
from .bijections import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .partitions import *  # noqa: F401,F403
from .qseries import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *bijections.__all__,
    *families.__all__,
    *oracle.__all__,
    *partitions.__all__,
    *qseries.__all__,
]
