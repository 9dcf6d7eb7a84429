"""horolab: exact combinatorial horoballs, augmented Cayley graphs, and
coarse-geometry measurements on finite instances."""

__version__ = "0.1.0"

from .errors import ConfigError, InputError, PropertyViolation, ResourceLimitError
from .graph import (
    INF,
    DistanceOracle,
    Graph,
    Path,
    distance_rows,
    enumerate_geodesics,
    is_interior_pair,
    rips_graph,
)
from .groups import (
    CayleyBall,
    GroupSpec,
    cayley_ball,
    free,
    free_abelian,
    free_product,
    heisenberg,
)
