"""Hybrid schedulers: kernel-level (Fig. 2) and pattern-level (Fig. 4b).

Both schedulers take the data-flow diagram plus per-node device times and
produce an :class:`~repro.hybrid.executor.Assignment`:

* :func:`kernel_level_assignment` — the Section II-C design: whole kernels
  are placed on one device each.  The placement follows the paper's
  flowchart (heavy stencil kernels on the accelerator, the light local
  kernels and everything around MPI on the host), or a greedy
  earliest-finish-time choice when ``greedy=True``.
* :func:`pattern_level_assignment` — the paper's contribution: individual
  pattern instances are placed by earliest finish time, and *splittable*
  instances (the adjustable boxes of Fig. 4b) are divided fractionally so
  both devices finish together, which is what lifts the speedup from ~6x to
  ~8.3x in Figure 7.
"""

from __future__ import annotations

from ..dataflow.analysis import earliest_finish_schedule
from ..dataflow.graph import DataFlowGraph
from ..machine.cost import CostModel
from .executor import Assignment, Placement

__all__ = [
    "node_times",
    "cpu_only_assignment",
    "kernel_level_assignment",
    "pattern_level_assignment",
    "static_split_assignment",
    "balanced_fraction",
]

#: Figure 2 placement: the two stencil-heavy kernels go to the accelerator.
_FIG2_MIC_KERNELS = frozenset({"compute_tend", "compute_solve_diagnostics"})


def node_times(
    dfg: DataFlowGraph,
    mesh_counts,
    cpu_model: CostModel,
    mic_model: CostModel,
) -> dict[str, dict[str, float]]:
    """Per-node execution time on each device."""
    times: dict[str, dict[str, float]] = {}
    for node in dfg.compute_nodes():
        inst = dfg.instance(node)
        n = inst.output_point.count(mesh_counts)
        times[node] = {
            "cpu": cpu_model.instance_time(inst, n),
            "mic": mic_model.instance_time(inst, n),
        }
    return times


def cpu_only_assignment(dfg: DataFlowGraph) -> Assignment:
    """Everything on the host (the multithreaded-CPU reference)."""
    return {node: Placement("cpu") for node in dfg.compute_nodes()}


def kernel_level_assignment(
    dfg: DataFlowGraph,
    times: dict[str, dict[str, float]] | None = None,
    greedy: bool = False,
) -> Assignment:
    """Whole-kernel placement (the Figure 2 design).

    With ``greedy=True`` kernels are assigned by earliest finish time over a
    dependency-respecting simulation; otherwise the paper's static placement
    is used.  Either way the granularity is the kernel, which is what limits
    the load balance (Section II-C: "the predictable load imbalance between
    the CPU and MIC sides will also drop the performance on the whole").
    """
    if not greedy:
        return {
            node: Placement(
                "mic" if dfg.instance(node).kernel in _FIG2_MIC_KERNELS else "cpu"
            )
            for node in dfg.compute_nodes()
        }
    if times is None:
        raise ValueError("greedy kernel placement needs per-node times")
    # Group nodes into kernel occurrences (stage prefix + kernel name).
    groups: dict[tuple[str, str], list[str]] = {}
    for node in dfg.order:
        inst = dfg.instance(node)
        stage = node.split(":", 1)[0]
        groups.setdefault((stage, inst.kernel), []).append(node)
    avail = {"cpu": 0.0, "mic": 0.0}
    finish: dict[str, float] = {}
    assignment: Assignment = {}
    for (stage, kernel), nodes in groups.items():
        # Kernel is ready when all external dependencies finished.
        node_set = set(nodes)
        ready = 0.0
        for node in nodes:
            for p in dfg.predecessors_compute(node):
                if p not in node_set:
                    ready = max(ready, finish.get(p, 0.0))
        best_dev, best_end = None, float("inf")
        for dev in ("cpu", "mic"):
            t = sum(times[n][dev] for n in nodes)
            end = max(avail[dev], ready) + t
            if end < best_end:
                best_dev, best_end = dev, end
        avail[best_dev] = best_end
        running = max(avail[best_dev] - sum(times[n][best_dev] for n in nodes), ready)
        for node in nodes:
            assignment[node] = Placement(best_dev)
            running += times[node][best_dev]
            finish[node] = running
    return assignment


def pattern_level_assignment(
    dfg: DataFlowGraph,
    times: dict[str, dict[str, float]],
    allow_splits: bool = True,
    min_split_gain: float = 0.15,
) -> Assignment:
    """Instance-granularity placement with adjustable splits (Figure 4b).

    Earliest-finish-time list scheduling over the program order
    (:func:`repro.dataflow.analysis.earliest_finish_schedule`); for
    splittable instances the cpu fraction ``f`` is chosen so both devices
    finish simultaneously:

        avail_cpu + f * t_cpu = avail_mic + (1 - f) * t_mic

    A split is only taken when it beats the best single-device finish time by
    ``min_split_gain`` (relative) — redundant transfers make tiny splits
    counterproductive, mirroring the paper's "redundant computations might be
    introduced ... without destroying the completeness of the pattern
    structure".
    """
    placed, _ = earliest_finish_schedule(
        dfg.order, dfg.predecessors_compute, times,
        splittable=lambda node: allow_splits and dfg.instance(node).splittable,
        min_split_gain=min_split_gain,
    )
    return {node: Placement(dev, cpu_fraction=f) for node, (dev, f) in placed.items()}


def balanced_fraction(
    dfg: DataFlowGraph, times: dict[str, dict[str, float]]
) -> float:
    """CPU share that equalizes total work: ``f* = T_mic / (T_cpu + T_mic)``.

    With every pattern split at ``f*``, both devices carry the same wall time
    per stage — the load-balance objective of the adjustable design.
    """
    t_cpu = sum(times[n]["cpu"] for n in dfg.compute_nodes())
    t_mic = sum(times[n]["mic"] for n in dfg.compute_nodes())
    if t_cpu + t_mic <= 0.0:
        return 0.5
    return min(0.95, max(0.05, t_mic / (t_cpu + t_mic)))


def static_split_assignment(
    dfg: DataFlowGraph,
    times: dict[str, dict[str, float]],
    fraction: float | None = None,
) -> Assignment:
    """Split *every* pattern at one global CPU fraction (Fig. 4b taken to its
    limit): the host and device each own a fixed share of the mesh, so
    consecutive patterns exchange only thin boundary bands over PCIe.

    This is the de-facto host/device domain decomposition that the paper's
    adjustable boxes implement; the fraction defaults to the work-balancing
    :func:`balanced_fraction`.
    """
    if fraction is None:
        fraction = balanced_fraction(dfg, times)
    return {
        node: Placement("split", cpu_fraction=fraction)
        for node in dfg.compute_nodes()
    }
