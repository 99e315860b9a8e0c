"""The literal-loop forms of Algorithms 2-4: the abstract reduction loops
and the flux divergence each computes on a mesh, for the tests to hold
against the vectorized forms of :mod:`repro.reduction` that Fig. 6 measures.

Algorithm 3 removes Algorithm 2's race by traversing in output (cell) order
and deciding each edge's sign with a conditional on ``CellsOnEdge``:

.. code-block:: fortran

    for icell = 1 to nCells do
        for i = 1 to nEdgesOnCell(icell) do
            iedge = EdgesOnCell(icell,i)
            if (icell == CellsOnEdge(iedge,1)) then
                Y(icell) = Y(icell) + X(iedge)
            else
                Y(icell) = Y(icell) - X(iedge)
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.reduction import build_label_matrix


def irregular_reduction_loop(
    n_cells: int, cells_on_edge: np.ndarray, x_edge: np.ndarray
) -> np.ndarray:
    """Literal Algorithm 2: accumulate edge values into cells with +/- signs."""
    y = np.zeros(n_cells, dtype=np.float64)
    n_edges = cells_on_edge.shape[0]
    for iedge in range(n_edges):
        cell1 = cells_on_edge[iedge, 0]
        cell2 = cells_on_edge[iedge, 1]
        y[cell1] += x_edge[iedge]
        y[cell2] -= x_edge[iedge]
    return y


def refactored_reduction_loop(
    n_cells: int,
    cells_on_edge: np.ndarray,
    edges_on_cell: np.ndarray,
    n_edges_on_cell: np.ndarray,
    x_edge: np.ndarray,
) -> np.ndarray:
    """Literal Algorithm 3: conditional-branch gather in cell order."""
    y = np.zeros(n_cells, dtype=np.float64)
    for icell in range(n_cells):
        acc = 0.0
        for i in range(int(n_edges_on_cell[icell])):
            iedge = edges_on_cell[icell, i]
            if icell == cells_on_edge[iedge, 0]:
                acc += x_edge[iedge]
            else:
                acc -= x_edge[iedge]
        y[icell] = acc
    return y


def branch_free_reduction_loop(
    label: np.ndarray,
    eoc_safe: np.ndarray,
    n_edges_on_cell: np.ndarray,
    x_edge: np.ndarray,
) -> np.ndarray:
    """Literal Algorithm 4 (loop form): ``Y(i) += L(i,j) * X(eoc(i,j))``."""
    n_cells = label.shape[0]
    y = np.zeros(n_cells, dtype=np.float64)
    for icell in range(n_cells):
        acc = 0.0
        for j in range(int(n_edges_on_cell[icell])):
            acc += label[icell, j] * x_edge[eoc_safe[icell, j]]
        y[icell] = acc
    return y


def _weighted(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Edge fluxes ``u * dvEdge`` (what the divergence accumulates)."""
    return u_edge * mesh.metrics.dvEdge


def divergence_scatter_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Algorithm 2, literal loop."""
    acc = irregular_reduction_loop(
        mesh.nCells, mesh.connectivity.cellsOnEdge, _weighted(mesh, u_edge)
    )
    return acc / mesh.metrics.areaCell


def divergence_gather_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Algorithm 3, literal loop with the conditional branch."""
    conn = mesh.connectivity
    acc = refactored_reduction_loop(
        mesh.nCells,
        conn.cellsOnEdge,
        conn.edgesOnCell,
        conn.nEdgesOnCell,
        _weighted(mesh, u_edge),
    )
    return acc / mesh.metrics.areaCell


def divergence_branchfree_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Algorithm 4, literal loop with the label matrix."""
    conn = mesh.connectivity
    label, eoc_safe = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
    acc = branch_free_reduction_loop(
        label, eoc_safe, conn.nEdgesOnCell, _weighted(mesh, u_edge)
    )
    return acc / mesh.metrics.areaCell
