"""Distributed substrate: partitioning, halos, functional multi-rank runs,
a shared-memory process pool, and the strong/weak scaling models
(Figures 8 and 9)."""

from .halo import LocalMesh, build_local_mesh, halo_layers_required
from .partition import PartitionQuality, partition_cells, partition_quality
from .pool import PoolShallowWater, WorkerPoolError
from .runner import DecomposedShallowWater
from .shm import SharedState

#: The scaling models price steps on the simulated hybrid node
#: (``repro.hybrid``, ``repro.machine``): loaded on first use, not by a run.
_SCALING = frozenset(
    {
        "ScalingPoint",
        "halo_exchange_seconds",
        "parallel_efficiency",
        "strong_scaling",
        "weak_scaling",
    }
)


def __getattr__(name: str):
    if name in _SCALING:
        from . import scaling

        return getattr(scaling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
