"""The ``compute_solve_diagnostics`` kernel (Algorithm 1, line 7/11).

Recomputes every diagnostic of Table I from a (provisional) state:
``h_edge``, ``ke``, ``vorticity``, ``divergence``, tangential ``v``,
``h_vertex``, ``pv_vertex``, ``pv_cell`` and ``pv_edge`` (with APVM
upwinding).  This is the most pattern-rich kernel of the model — the paper's
Figure 4 splits it across host and device, with an *adjustable* part used to
tune the load balance.
"""

from __future__ import annotations

import numpy as np

from ..engine import dispatch
from ..mesh.mesh import Mesh
from ..obs.instrument import pattern_span
from .advection import h_edge_high_order
from .config import SWConfig
from .state import Diagnostics, State

__all__ = ["compute_solve_diagnostics"]


def compute_solve_diagnostics(
    mesh: Mesh,
    state: State,
    f_vertex: np.ndarray,
    config: SWConfig,
    out: Diagnostics | None = None,
) -> Diagnostics:
    """Compute all diagnostic fields from ``state``.

    Parameters
    ----------
    mesh : Mesh
    state : State
        Provisional (RK substep) or accepted state.
    f_vertex : (nVertices,) array
        Coriolis parameter at vorticity points.
    config : SWConfig
        ``apvm_upwinding`` and ``thickness_adv_order`` are honoured here.
    out : Diagnostics, optional
        Arrays a plan writes the result into and returns (the RK substeps
        pass their plan's scratch); without a plan, or without ``out``, the
        result is in fresh arrays.
    """
    from ..engine.plan import kernel_plan

    plan = kernel_plan(mesh, config)
    if plan is not None:
        return plan.diagnostics(state, f_vertex, out=out)
    h, u = state.h, state.u
    backend = config.backend

    # Pattern D1 (with the fused C1,C2 sweep nested inside for high order).
    with pattern_span("D1", mesh, backend=backend):
        h_edge = h_edge_high_order(
            mesh, h, u, config.thickness_adv_order, config.coef_3rd_order,
            backend=backend,
        )
    with pattern_span("A2", mesh, backend=backend):
        ke = dispatch("kinetic_energy", mesh, u, backend=backend)
    with pattern_span("H1", mesh, backend=backend):
        vorticity = dispatch("vertex_curl", mesh, u, backend=backend)
    with pattern_span("A3", mesh, backend=backend):
        divergence = dispatch("cell_divergence", mesh, u, backend=backend)
    with pattern_span("B2", mesh, backend=backend):
        v = dispatch("tangential_velocity", mesh, u, backend=backend)
    with pattern_span("E1", mesh, backend=backend):
        h_vertex = dispatch("vertex_from_cells_kite", mesh, h, backend=backend)
        blown_up = bool(np.any(h_vertex <= 0.0))
        if not blown_up:
            pv_vertex = (f_vertex + vorticity) / h_vertex
    if blown_up:
        raise FloatingPointError(
            "non-positive h_vertex: the simulation has gone unstable "
            "(reduce dt or check the initial condition)"
        )
    with pattern_span("F1", mesh, backend=backend):
        pv_cell = dispatch("cell_from_vertices_kite", mesh, pv_vertex, backend=backend)
    with pattern_span("G1", mesh, backend=backend):
        pv_edge = dispatch("vertex_to_edge_mean", mesh, pv_vertex, backend=backend)

        if config.apvm_upwinding != 0.0:
            # Anticipated PV method: upwind pv_edge along the full velocity
            # vector, damping the enstrophy cascade (Ringler et al. 2010).
            grad_pv_t = dispatch(
                "edge_gradient_of_vertex", mesh, pv_vertex, backend=backend
            )
            grad_pv_n = dispatch("edge_gradient_of_cell", mesh, pv_cell, backend=backend)
            factor = config.apvm_upwinding * config.dt
            pv_edge = pv_edge - factor * (v * grad_pv_t + u * grad_pv_n)

    return Diagnostics(
        h_edge=h_edge,
        ke=ke,
        vorticity=vorticity,
        divergence=divergence,
        v=v,
        h_vertex=h_vertex,
        pv_vertex=pv_vertex,
        pv_cell=pv_cell,
        pv_edge=pv_edge,
    )
