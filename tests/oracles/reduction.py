"""The literal-loop forms of Algorithms 2-4 on a mesh: the flux divergence
computed by each abstract reduction loop of :mod:`repro.reduction`, for the
tests to hold against the vectorized forms Fig. 6 measures."""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.reduction import (
    branch_free_reduction_loop,
    build_label_matrix,
    irregular_reduction_loop,
    refactored_reduction_loop,
)


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
