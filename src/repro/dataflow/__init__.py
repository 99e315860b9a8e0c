"""Data-flow diagram of the shallow-water model (Figure 4) and its analysis."""

from .analysis import (
    concurrency_profile,
    critical_path,
    independent_sets,
    topological_levels,
    total_work,
)
from .build import build_stage_graph, build_step_graph, stage_kernels
from .graph import HALO_NODE_PREFIX, SOURCE_PREFIX, DataFlowGraph
from .schedule import (
    Segment,
    SubstepSchedule,
    schedule_substep,
    single_consumer_vars,
    topological_order,
)

__all__ = [
    "Segment",
    "SubstepSchedule",
    "schedule_substep",
    "single_consumer_vars",
    "topological_order",
    "concurrency_profile",
    "critical_path",
    "independent_sets",
    "topological_levels",
    "total_work",
    "build_stage_graph",
    "build_step_graph",
    "stage_kernels",
    "HALO_NODE_PREFIX",
    "SOURCE_PREFIX",
    "DataFlowGraph",
]
