"""The paper's primary contribution: the lightweight repartitioner.

The repartitioner (Section 3) incrementally improves an existing
partitioning — decreasing edge-cut while keeping partitions balanced —
using only *auxiliary data*: for each hosted vertex, the number of its
neighbors in each of the alpha partitions, plus the aggregate weight of
every partition.  It never consults adjacency lists or any other global
view of the graph structure.
"""

from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import MigrationCandidate, get_target_partition
from repro.core.config import RepartitionerConfig
from repro.core.gain import gain
from repro.core.migration import MigrationPlan, build_migration_plan
from repro.core.repartitioner import (
    IterationStats,
    LightweightRepartitioner,
    RepartitionResult,
)
from repro.core.triggers import ImbalanceTrigger

__all__ = [
    "AuxiliaryData",
    "RepartitionerConfig",
    "LightweightRepartitioner",
    "RepartitionResult",
    "IterationStats",
    "MigrationCandidate",
    "get_target_partition",
    "gain",
    "MigrationPlan",
    "build_migration_plan",
    "ImbalanceTrigger",
]
