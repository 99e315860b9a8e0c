"""End-to-end step-time models: the engine behind Figures 6-9.

Combines the pattern catalog, the data-flow diagram, the device cost models
and the hybrid schedulers into per-time-step execution times for:

* the original serial CPU code (the Figure 7 baseline),
* the kernel-level hybrid design (Figure 2),
* the pattern-driven hybrid design (Figure 4b),

optionally with MPI decomposition (halo sizes + exchange times) for the
strong/weak scaling studies of Figures 8 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..dataflow.build import build_step_graph
from ..machine.cost import CostModel
from ..machine.interconnect import TransferModel
from ..machine.optimizations import cpu_profiles, mic_optimization_ladder
from ..machine.counts import MeshCounts
from ..machine.spec import PAPER_CLUSTER, PAPER_NODE, ClusterSpec
from ..swm.config import SWConfig
from .executor import HybridExecutor, Timeline
from .schedule import (
    cpu_only_assignment,
    kernel_level_assignment,
    node_times,
    pattern_level_assignment,
    static_split_assignment,
)

__all__ = [
    "LocalProblem",
    "decompose",
    "serial_step_time",
    "hybrid_step_time",
    "StepTimes",
    "model_step_times",
]

#: Configuration used for all performance modelling: high-order thickness
#: advection + APVM activates every pattern of Table I.
def _perf_config() -> SWConfig:
    return SWConfig(dt=1.0, thickness_adv_order=4)


@dataclass(frozen=True)
class LocalProblem:
    """Per-process share of a decomposed mesh.

    ``nCells`` etc. include the halo (the process computes owned points but
    stores/reads halo copies); ``halo_cells`` sizes the exchange messages.
    """

    owned_cells: int
    halo_cells: int
    name: str = ""

    @property
    def nCells(self) -> int:
        return self.owned_cells + self.halo_cells

    @property
    def nEdges(self) -> int:
        return 3 * self.nCells - 6 if self.halo_cells == 0 else 3 * self.nCells

    @property
    def nVertices(self) -> int:
        return 2 * self.nCells - 4 if self.halo_cells == 0 else 2 * self.nCells


def decompose(total_cells: int, n_procs: int, halo_layers: int = 2) -> LocalProblem:
    """Halo-aware local problem of one process in a P-way partition.

    A quasi-uniform spherical partition of ``m`` cells is roughly disk-shaped
    with ``~3.5 * sqrt(m)`` boundary cells per layer (hexagonal perimeter
    scaling), so the halo is ``halo_layers`` such rings.  For ``P = 1`` the
    sphere is closed and there is no halo.
    """
    owned = int(math.ceil(total_cells / n_procs))
    if n_procs == 1:
        return LocalProblem(owned_cells=owned, halo_cells=0)
    ring = 3.5 * math.sqrt(owned)
    return LocalProblem(owned_cells=owned, halo_cells=int(math.ceil(ring * halo_layers)))


def _cpu_parallel_model() -> CostModel:
    return CostModel(PAPER_NODE.cpu, cpu_profiles(PAPER_NODE.cpu.cores)["openmp"])


def _mic_model() -> CostModel:
    return CostModel(PAPER_NODE.accelerator, mic_optimization_ladder()[-1].profile)


def serial_step_time(counts, halo_time: float = 0.0) -> float:
    """Time per step of the original (single-core, pure-MPI) code.

    One full RK-4 step = the sum of all pattern instances over the four
    substages, plus the per-substage halo exchanges (two per substage, as in
    Figure 2, for multi-process runs).
    """
    dfg = build_step_graph(_perf_config())
    model = CostModel(PAPER_NODE.cpu, cpu_profiles()["serial"])
    total = 0.0
    for node in dfg.compute_nodes():
        inst = dfg.instance(node)
        total += model.instance_time(inst, inst.output_point.count(counts))
    total += halo_time * len(dfg.halo_nodes())
    return total


def hybrid_step_time(
    counts,
    mode: str = "pattern",
    halo_time: float = 0.0,
    cluster: ClusterSpec = PAPER_CLUSTER,
    return_timeline: bool = False,
) -> "float | tuple[float, Timeline]":
    """Time per step of a hybrid design on one CPU+MIC process.

    ``mode``: ``"pattern"`` (Fig. 4b), ``"kernel"`` (Fig. 2) or ``"cpu"``
    (multithreaded host only).
    """
    dfg = build_step_graph(_perf_config())
    times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
    if mode == "pattern":
        # The Fig. 4b adjustable design: EFT placement with the catalog's
        # splittable instances divided so both devices finish together.
        assignment = pattern_level_assignment(dfg, times, min_split_gain=0.0)
    elif mode == "split-all":
        # Ablation: every pattern split at one balanced fraction (a full
        # host/device domain decomposition).
        assignment = static_split_assignment(dfg, times)
    elif mode == "kernel":
        assignment = kernel_level_assignment(dfg, times, greedy=False)
    elif mode == "cpu":
        assignment = cpu_only_assignment(dfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    transfer = TransferModel(
        bandwidth_gbs=cluster.node.pcie_bw_gbs,
        latency_us=cluster.node.pcie_latency_us,
    )
    executor = HybridExecutor(
        dfg, times, counts, transfer=transfer, halo_time=halo_time
    )
    timeline = executor.run(assignment)
    timeline.validate_no_overlap()
    if return_timeline:
        return timeline.makespan, timeline
    return timeline.makespan


@dataclass(frozen=True)
class StepTimes:
    """Figure 7 row: per-step times and speedups for one mesh."""

    mesh_name: str
    n_cells: int
    serial: float
    kernel_level: float
    pattern_level: float

    @property
    def kernel_speedup(self) -> float:
        return self.serial / self.kernel_level

    @property
    def pattern_speedup(self) -> float:
        return self.serial / self.pattern_level


def model_step_times(counts: MeshCounts) -> StepTimes:
    """All three implementations of Figure 7 on one mesh."""
    return StepTimes(
        mesh_name=counts.name or f"{counts.nCells}-cell",
        n_cells=counts.nCells,
        serial=serial_step_time(counts),
        kernel_level=hybrid_step_time(counts, mode="kernel"),
        pattern_level=hybrid_step_time(counts, mode="pattern"),
    )
