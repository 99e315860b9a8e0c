"""The ``compute_tend`` kernel (Algorithm 1, line 3).

Evaluates the right-hand side of the vector-invariant shallow-water system

.. math::

    \\partial h / \\partial t &= -\\nabla\\cdot(h u) \\\\
    \\partial u / \\partial t &= q (h u)^\\perp
        - \\nabla\\big(K + g (h + b)\\big) \\,[+ \\nu_2 \\nabla^2 u]

discretized with the TRiSK operators.  On the C-grid this is the pattern pair
(A1, B1) of Table I plus the local combination X1; the optional del2
dissipation adds the ``divergence``/``vorticity`` gradient stencils the table
lists as extra ``tend_u`` inputs.
"""

from __future__ import annotations

import numpy as np

from ..engine import dispatch
from ..mesh.mesh import Mesh
from ..obs.instrument import pattern_span
from .config import SWConfig
from .state import Diagnostics, State

__all__ = ["compute_tend"]


def compute_tend(
    mesh: Mesh,
    state: State,
    diag: Diagnostics,
    b_cell: np.ndarray,
    config: SWConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(tend_h, tend_u)`` for the given provisional state.

    Parameters
    ----------
    state : State
        Provisional state (``provis_h`` / ``provis_u`` of Table I).
    diag : Diagnostics
        Must be consistent with ``state`` (computed by
        ``compute_solve_diagnostics`` in the previous substep).
    b_cell : (nCells,) array
        Bottom topography.
    """
    if config.plan:
        # Fused path: one compiled stage program per (mesh, config), no
        # per-op dispatch.  Placed here (not in the integrator) so serial,
        # lockstep, pool and split callers all take it.
        from ..engine.plan import compiled_plan

        return compiled_plan(mesh, config, batch=state.n_members or 0).tend(
            state, diag, b_cell
        )
    backend = config.backend
    # Pattern A1: mass tendency, gather over the edges of each cell.
    with pattern_span("A1", mesh, backend=backend):
        tend_h = -dispatch("flux_divergence", mesh, state.u, diag.h_edge, backend=backend)

    if config.advection_only:
        # TC1-style passive advection: the wind is prescribed and frozen.
        return tend_h, np.zeros_like(state.u)

    with pattern_span("B1", mesh, backend=backend):
        # Pattern B1: nonlinear Coriolis term over the TRiSK edge
        # neighbourhood (the catalog prices the whole momentum RHS as B1,
        # including the Bernoulli gradient and optional del2 terms).
        q_term = dispatch(
            "coriolis_edge_term", mesh, state.u, diag.h_edge, diag.pv_edge,
            backend=backend,
        )

        # Pattern C-type: normal gradient of the Bernoulli function.
        bernoulli = diag.ke + config.gravity * (state.h + b_cell)
        grad_b = dispatch("edge_gradient_of_cell", mesh, bernoulli, backend=backend)

        # Combine the momentum contributions.
        tend_u = q_term - grad_b

        if config.viscosity != 0.0:
            # del2 dissipation in vector-invariant form:
            #   nu * (grad(div) - k x grad(vorticity))
            grad_div = dispatch(
                "edge_gradient_of_cell", mesh, diag.divergence, backend=backend
            )
            grad_vort = dispatch(
                "edge_gradient_of_vertex", mesh, diag.vorticity, backend=backend
            )
            tend_u = tend_u + config.viscosity * (grad_div - grad_vort)

    if config.hyperviscosity != 0.0:
        # del4 = del2(del2): apply the vector Laplacian twice.  Reuses the
        # already-computed divergence/vorticity for the first application,
        # then takes div/curl of the del2 field (one extra A+H pass — the
        # same pattern pair the Table I catalog prices for this option).
        del2_u = dispatch(
            "edge_gradient_of_cell", mesh, diag.divergence, backend=backend
        ) - dispatch("edge_gradient_of_vertex", mesh, diag.vorticity, backend=backend)
        div2 = dispatch("cell_divergence", mesh, del2_u, backend=backend)
        vort2 = dispatch("vertex_curl", mesh, del2_u, backend=backend)
        del4_u = dispatch(
            "edge_gradient_of_cell", mesh, div2, backend=backend
        ) - dispatch("edge_gradient_of_vertex", mesh, vort2, backend=backend)
        tend_u = tend_u - config.hyperviscosity * del4_u

    return tend_h, tend_u
