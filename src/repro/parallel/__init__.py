"""Distributed substrate: partitioning, halos, functional multi-rank runs,
a shared-memory process pool, and the strong/weak scaling models
(Figures 8 and 9)."""

from .halo import LocalMesh, build_local_mesh, halo_layers_required
from .partition import PartitionQuality, partition_cells, partition_quality
from .pool import PoolShallowWater, WorkerPoolError
from .runner import DecomposedShallowWater
from .shm import SharedState
from .scaling import (
    ScalingPoint,
    halo_exchange_seconds,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "LocalMesh",
    "build_local_mesh",
    "halo_layers_required",
    "PartitionQuality",
    "partition_cells",
    "partition_quality",
    "DecomposedShallowWater",
    "PoolShallowWater",
    "WorkerPoolError",
    "SharedState",
    "ScalingPoint",
    "halo_exchange_seconds",
    "parallel_efficiency",
    "strong_scaling",
    "weak_scaling",
]
