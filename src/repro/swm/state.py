"""Prognostic state and diagnostic field containers of the shallow-water core.

Variable names follow Table I of the paper (which follows the MPAS Fortran):
``h``/``u`` are the prognostic thickness and normal velocity; ``provis_*`` are
the provisional Runge-Kutta substep states; everything in
:class:`Diagnostics` is recomputed from the (provisional) state each substep
by ``compute_solve_diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["State", "Diagnostics", "Reconstruction"]


@dataclass
class State:
    """Prognostic variables: thickness at cells, normal velocity at edges."""

    h: np.ndarray  # (nCells,)
    u: np.ndarray  # (nEdges,)

    def copy(self) -> "State":
        return State(h=self.h.copy(), u=self.u.copy())

    @classmethod
    def stack(cls, states: "list[State]") -> "State":
        """Pack N states into one ``(n, N)`` block (for
        :class:`repro.ensemble.batch.BatchedIntegrator`)."""
        if not states:
            raise ValueError("cannot stack an empty list of states")
        return cls(
            h=np.stack([s.h for s in states], axis=1),
            u=np.stack([s.u for s in states], axis=1),
        )

    def validate_shapes(self, n_cells: int, n_edges: int) -> None:
        if self.h.shape != (n_cells,):
            raise ValueError(f"h has shape {self.h.shape}, expected {(n_cells,)}")
        if self.u.shape != (n_edges,):
            raise ValueError(f"u has shape {self.u.shape}, expected {(n_edges,)}")


@dataclass
class Diagnostics:
    """Outputs of ``compute_solve_diagnostics`` (Table I variables).

    All arrays are allocated by the constructor helpers; ``None`` members mean
    the diagnostic pass has not run yet.
    """

    h_edge: np.ndarray  # (nEdges,)
    ke: np.ndarray  # (nCells,) kinetic energy
    vorticity: np.ndarray  # (nVertices,) relative vorticity
    divergence: np.ndarray  # (nCells,)
    v: np.ndarray  # (nEdges,) tangential velocity
    h_vertex: np.ndarray  # (nVertices,)
    pv_vertex: np.ndarray  # (nVertices,) potential vorticity
    pv_cell: np.ndarray  # (nCells,)
    pv_edge: np.ndarray  # (nEdges,)

    @classmethod
    def allocate(
        cls, n_cells: int, n_edges: int, n_vertices: int, alloc=np.zeros
    ) -> "Diagnostics":
        return cls(
            h_edge=alloc(n_edges),
            ke=alloc(n_cells),
            vorticity=alloc(n_vertices),
            divergence=alloc(n_cells),
            v=alloc(n_edges),
            h_vertex=alloc(n_vertices),
            pv_vertex=alloc(n_vertices),
            pv_cell=alloc(n_cells),
            pv_edge=alloc(n_edges),
        )

    def copy(self) -> "Diagnostics":
        return Diagnostics(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


@dataclass
class Reconstruction:
    """Outputs of ``mpas_reconstruct``: cell-centre velocity vectors."""

    uReconstructX: np.ndarray  # (nCells,)
    uReconstructY: np.ndarray  # (nCells,)
    uReconstructZ: np.ndarray  # (nCells,)
    uReconstructZonal: np.ndarray  # (nCells,)
    uReconstructMeridional: np.ndarray  # (nCells,)
