"""Loop-order reference implementations of the TRiSK operators.

These are direct Python transcriptions of the MPAS Fortran loops — including
the *edge-order scatter* forms that Algorithm 2 of the paper highlights as
race-prone under multithreading.  They pin down the semantics of the
vectorized gather kernels in :mod:`repro.swm.operators` (equivalence is
asserted by the test suite).  They are deliberately unoptimized.  The one
the Fig. 6 ladder runs, :func:`cell_divergence_scatter`, stays in
:mod:`repro.swm.reference`; it is re-exported here beside the others.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh
from repro.swm.reconstruct import reconstruction_matrices
from repro.swm.reference import cell_divergence_scatter

__all__ = [
    "cell_divergence_scatter",
    "cell_divergence_loop",
    "vertex_curl_loop",
    "cell_kinetic_energy_loop",
    "tangential_velocity_loop",
    "vertex_from_cells_kite_loop",
    "cell_from_vertices_kite_loop",
    "flux_divergence_scatter",
    "coriolis_edge_term_loop",
    "cell_to_edge_mean_loop",
    "vertex_to_edge_mean_loop",
    "edge_gradient_of_cell_loop",
    "edge_gradient_of_vertex_loop",
    "velocity_reconstruction_loop",
]


def cell_divergence_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Cell-order gather divergence — the Algorithm 3 access pattern."""
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_cells, dtype=np.float64)
    for c in range(conn.n_cells):
        acc = 0.0
        for j in range(int(conn.nEdgesOnCell[c])):
            e = conn.edgesOnCell[c, j]
            acc += conn.edgeSignOnCell[c, j] * u_edge[e] * met.dvEdge[e]
        out[c] = acc / met.areaCell[c]
    return out


def vertex_curl_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Vertex-order circulation / area."""
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_vertices, dtype=np.float64)
    for v in range(conn.n_vertices):
        acc = 0.0
        for j in range(3):
            e = conn.edgesOnVertex[v, j]
            acc += conn.edgeSignOnVertex[v, j] * u_edge[e] * met.dcEdge[e]
        out[v] = acc / met.areaTriangle[v]
    return out


def cell_kinetic_energy_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_cells, dtype=np.float64)
    for c in range(conn.n_cells):
        acc = 0.0
        for j in range(int(conn.nEdgesOnCell[c])):
            e = conn.edgesOnCell[c, j]
            acc += 0.25 * met.dcEdge[e] * met.dvEdge[e] * u_edge[e] ** 2
        out[c] = acc / met.areaCell[c]
    return out


def tangential_velocity_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    tri = mesh.trisk
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        acc = 0.0
        for j in range(int(tri.nEdgesOnEdge[e])):
            acc += tri.weightsOnEdge[e, j] * u_edge[tri.edgesOnEdge[e, j]]
        out[e] = acc
    return out


def vertex_from_cells_kite_loop(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_vertices, dtype=np.float64)
    for v in range(conn.n_vertices):
        acc = 0.0
        for j in range(3):
            acc += met.kiteAreasOnVertex[v, j] * phi_cell[conn.cellsOnVertex[v, j]]
        out[v] = acc / met.areaTriangle[v]
    return out


def flux_divergence_scatter(
    mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray
) -> np.ndarray:
    """Edge-order scatter of the thickness-flux divergence (Algorithm 2).

    The ``tend_h`` access pattern of the original MPAS loop: traverse edges,
    accumulate ``h_e u_e dv_e`` into the two adjacent cells with opposite
    signs.
    """
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_cells, dtype=np.float64)
    for e in range(conn.n_edges):
        c0 = conn.cellsOnEdge[e, 0]
        c1 = conn.cellsOnEdge[e, 1]
        flux = u_edge[e] * h_edge[e] * met.dvEdge[e]
        out[c0] += flux
        out[c1] -= flux
    return out / met.areaCell


def coriolis_edge_term_loop(
    mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray, pv_edge: np.ndarray
) -> np.ndarray:
    """Edge-order loop of the nonlinear Coriolis/PV term (TRiSK form)."""
    tri = mesh.trisk
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        acc = 0.0
        for j in range(int(tri.nEdgesOnEdge[e])):
            ep = int(tri.edgesOnEdge[e, j])
            acc += (
                tri.weightsOnEdge[e, j]
                * u_edge[ep]
                * h_edge[ep]
                * 0.5
                * (pv_edge[e] + pv_edge[ep])
            )
        out[e] = acc
    return out


def cell_to_edge_mean_loop(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Edge-order loop of the two-cell average (2nd-order ``h_edge``)."""
    conn = mesh.connectivity
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        out[e] = 0.5 * (
            phi_cell[conn.cellsOnEdge[e, 0]] + phi_cell[conn.cellsOnEdge[e, 1]]
        )
    return out


def vertex_to_edge_mean_loop(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Edge-order loop of the two-endpoint average (2nd-order ``pv_edge``)."""
    conn = mesh.connectivity
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        out[e] = 0.5 * (
            phi_vertex[conn.verticesOnEdge[e, 0]] + phi_vertex[conn.verticesOnEdge[e, 1]]
        )
    return out


def edge_gradient_of_cell_loop(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Edge-order loop of the normal gradient of a cell field."""
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        out[e] = (
            phi_cell[conn.cellsOnEdge[e, 1]] - phi_cell[conn.cellsOnEdge[e, 0]]
        ) / met.dcEdge[e]
    return out


def edge_gradient_of_vertex_loop(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Edge-order loop of the tangential gradient of a vertex field."""
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(mesh.nEdges, dtype=np.float64)
    for e in range(mesh.nEdges):
        out[e] = (
            phi_vertex[conn.verticesOnEdge[e, 1]] - phi_vertex[conn.verticesOnEdge[e, 0]]
        ) / met.dvEdge[e]
    return out


def velocity_reconstruction_loop(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Cell-order loop of the A4 velocity reconstruction.

    Applies the same per-cell least-squares matrices as the production
    kernel (:func:`repro.swm.reconstruct.reconstruction_matrices`), one cell
    at a time — the Fortran-style transcription of the pattern-A gather.
    """
    conn = mesh.connectivity
    mats = reconstruction_matrices(mesh)
    out = np.zeros((conn.n_cells, 3), dtype=np.float64)
    for c in range(conn.n_cells):
        n = int(conn.nEdgesOnCell[c])
        edges = conn.edgesOnCell[c, :n]
        out[c] = mats[c, :, :n] @ u_edge[edges]
    return out


def cell_from_vertices_kite_loop(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Vertex->cell kite interpolation, written as a *scatter over vertices*.

    Like Algorithm 2 this writes cell data in vertex order — the second
    irregular-reduction shape in the model.
    """
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_cells, dtype=np.float64)
    for v in range(conn.n_vertices):
        for j in range(3):
            c = conn.cellsOnVertex[v, j]
            out[c] += met.kiteAreasOnVertex[v, j] * phi_vertex[v]
    return out / met.areaCell
