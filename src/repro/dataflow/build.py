"""Assembling the data-flow diagram of the whole model (Figure 4).

:func:`build_stage_graph` wires one RK substage; :func:`build_step_graph`
chains the four substages of a full RK-4 step, inserting the two halo
exchanges per substage shown in Figures 2 and 4 (one on the provisional state
feeding ``compute_tend``, one after ``compute_next_substep_state`` /
``accumulative_update``).

Variable aliasing across stages follows the implementation
(:mod:`repro.swm.timestep`): substage *k*'s ``compute_tend`` reads the
provisional state produced by substage *k-1* (or the accepted state for
*k = 1*, modelled as the ``provis_*`` source nodes); the accumulator is a
separate time level (``h_acc`` / ``u_acc``); at substage 4,
``compute_solve_diagnostics`` and ``mpas_reconstruct`` read the *accumulated*
new state, so their provisional inputs are renamed to the accumulator.
"""

from __future__ import annotations

from dataclasses import replace

from ..patterns.catalog import PatternInstance, build_catalog, instances_by_kernel
from ..swm.config import SWConfig
from .graph import DataFlowGraph

__all__ = ["stage_kernels", "build_stage_graph", "build_step_graph"]

_STATE_VARS = ("h", "u")
_ACC_VARS = ("h_acc", "u_acc")
_PROVIS_VARS = ("provis_h", "provis_u")
_DIAG_VARS = (
    "h_edge",
    "ke",
    "vorticity",
    "divergence",
    "v",
    "pv_vertex",
    "pv_cell",
    "pv_edge",
)

#: Substage-4 rename: diagnostics/reconstruction read the accepted new state.
_STAGE4_RENAME = {"provis_h": "h_acc", "provis_u": "u_acc", "u": "u_acc"}


def stage_kernels(stage: int) -> tuple[str, ...]:
    """Kernel sequence of RK substage ``stage`` (1-based), per Algorithm 1."""
    if stage not in (1, 2, 3, 4):
        raise ValueError("RK stage must be 1..4")
    if stage < 4:
        return (
            "compute_tend",
            "enforce_boundary_edge",
            "compute_next_substep_state",
            "compute_solve_diagnostics",
            "accumulative_update",
        )
    return (
        "compute_tend",
        "enforce_boundary_edge",
        "accumulative_update",
        "compute_solve_diagnostics",
        "mpas_reconstruct",
    )


def _renamed(inst: PatternInstance, rename: dict[str, str]) -> PatternInstance:
    if not rename:
        return inst
    new_in = tuple(rename.get(v, v) for v in inst.inputs)
    new_out = tuple(rename.get(v, v) for v in inst.outputs)
    if new_in == inst.inputs and new_out == inst.outputs:
        return inst
    return replace(inst, inputs=new_in, outputs=new_out)


def _append_stage(
    dfg: DataFlowGraph,
    grouped: dict[str, list[PatternInstance]],
    stage: int,
    with_halo: bool,
) -> None:
    prefix = f"s{stage}:"
    if with_halo:
        dfg.add_halo_exchange(f"pre@s{stage}", _PROVIS_VARS)
    past_accumulate = False
    for kernel in stage_kernels(stage):
        rename = _STAGE4_RENAME if (stage == 4 and past_accumulate) else {}
        for inst in grouped[kernel]:
            dfg.add_instance(prefix + inst.label, _renamed(inst, rename))
        if kernel == "accumulative_update":
            past_accumulate = True
            if with_halo and stage == 4:
                dfg.add_halo_exchange(f"post@s{stage}", _ACC_VARS)
        if kernel == "compute_next_substep_state" and with_halo:
            dfg.add_halo_exchange(f"post@s{stage}", _PROVIS_VARS)


def _build(config: SWConfig | None, stages, with_halo: bool) -> DataFlowGraph:
    grouped = instances_by_kernel(build_catalog(config))
    dfg = DataFlowGraph()
    for var in _STATE_VARS + _ACC_VARS + _PROVIS_VARS + _DIAG_VARS:
        dfg.add_source(var)
    for stage in stages:
        _append_stage(dfg, grouped, stage, with_halo)
    dfg.validate()
    return dfg


def build_stage_graph(
    config: SWConfig | None = None,
    stage: int = 1,
    with_halo: bool = True,
) -> DataFlowGraph:
    """Data-flow diagram of a single RK substage."""
    return _build(config, (stage,), with_halo)


def build_step_graph(
    config: SWConfig | None = None, with_halo: bool = True
) -> DataFlowGraph:
    """Data-flow diagram of one full RK-4 step (all four substages)."""
    return _build(config, (1, 2, 3, 4), with_halo)
