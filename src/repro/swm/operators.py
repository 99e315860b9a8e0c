"""Discrete TRiSK operators on the C-grid, in regularity-aware gather form.

Every stencil operator here is written the way Section III-D of the paper
prescribes for shared-memory parallelism: as a *gather* over the output point
type (Algorithm 3), with signs and padding folded into precomputed label
matrices (Algorithm 4).  In NumPy this is also the fast form — a fancy-index
gather plus a row reduction — whereas the original edge-order *scatter* form
(Algorithm 2) needs ``np.add.at``.  Both forms exist in the code base: the
scatter/loop references live in :mod:`repro.swm.reference` and
:mod:`repro.reduction`, and the equivalence is covered by tests.

An :class:`OperatorPlan` caches, per mesh, the padded index and label-matrix
arrays all operators share.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..mesh.mesh import Mesh

__all__ = [
    "OperatorPlan",
    "plan_for",
    "cell_divergence",
    "flux_divergence",
    "edge_gradient_of_cell",
    "edge_gradient_of_vertex",
    "vertex_curl",
    "cell_kinetic_energy",
    "cell_to_edge_mean",
    "vertex_from_cells_kite",
    "cell_from_vertices_kite",
    "vertex_to_edge_mean",
    "tangential_velocity",
    "coriolis_edge_term",
]


@dataclass(frozen=True)
class OperatorPlan:
    """Precomputed gather indices and label matrices for one mesh.

    The ``*_safe`` index arrays have fill entries clamped to 0; the matching
    label matrices carry 0 there, so padded lanes contribute nothing (the
    branch-free trick of Algorithm 4).
    """

    # cells <- edges
    eoc_safe: np.ndarray  # (nCells, maxEdges)
    sign_dv: np.ndarray  # edgeSignOnCell * dvEdge, 0-padded
    ke_weight: np.ndarray  # 0.25 * dcEdge * dvEdge, 0-padded
    inv_area_cell: np.ndarray  # (nCells,)

    # vertices <- edges
    eov: np.ndarray  # (nVertices, 3)
    sign_dc: np.ndarray  # edgeSignOnVertex * dcEdge

    # vertices <- cells
    cov: np.ndarray  # (nVertices, 3)
    kite: np.ndarray  # kiteAreasOnVertex
    inv_area_tri: np.ndarray  # (nVertices,)

    # cells <- vertices
    voc_safe: np.ndarray  # (nCells, maxEdges)
    kite_on_cell: np.ndarray  # kite area of (vertex, this cell), 0-padded

    # edges <- cells / vertices
    c0: np.ndarray
    c1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    inv_dc: np.ndarray
    inv_dv: np.ndarray

    # edges <- edges (TRiSK)
    eoe_safe: np.ndarray  # (nEdges, 2*maxEdges-2)
    woe: np.ndarray  # weightsOnEdge, 0-padded


_PLAN_KEEPALIVE: "weakref.WeakKeyDictionary[Mesh, OperatorPlan]" = (
    weakref.WeakKeyDictionary()
)


def plan_for(mesh: Mesh) -> OperatorPlan:
    """Return (building once) the operator plan of ``mesh``."""
    plan = _PLAN_KEEPALIVE.get(mesh)
    if plan is not None:
        return plan

    conn, met, tri = mesh.connectivity, mesh.metrics, mesh.trisk

    eoc = conn.edgesOnCell
    mask = (eoc >= 0).astype(np.float64)
    eoc_safe = np.where(eoc >= 0, eoc, 0)
    sign_dv = conn.edgeSignOnCell * met.dvEdge[eoc_safe] * mask
    ke_weight = 0.25 * met.dcEdge[eoc_safe] * met.dvEdge[eoc_safe] * mask

    eov = conn.edgesOnVertex
    sign_dc = conn.edgeSignOnVertex * met.dcEdge[eov]

    # kite area of (vertex v, cell c) looked up from the cell side:
    # kiteOnCell[c, j] pairs with verticesOnCell[c, j].
    voc = conn.verticesOnCell
    voc_safe = np.where(voc >= 0, voc, 0)
    vmask = (voc >= 0).astype(np.float64)
    # Each of a vertex's three kites belongs to one of its cells: select,
    # per (cell, vertex slot), the kite whose cell is this one.
    cov, kite = conn.cellsOnVertex[voc_safe], met.kiteAreasOnVertex[voc_safe]
    this_cell = np.arange(conn.n_cells)[:, None]
    kite_on_cell = np.zeros_like(sign_dv)
    for k in range(3):
        kite_on_cell = np.where(cov[..., k] == this_cell, kite[..., k], kite_on_cell)

    eoe = tri.edgesOnEdge
    eoe_safe = np.where(eoe >= 0, eoe, 0)

    plan = OperatorPlan(
        eoc_safe=eoc_safe,
        sign_dv=sign_dv,
        ke_weight=ke_weight,
        inv_area_cell=1.0 / met.areaCell,
        eov=eov,
        sign_dc=sign_dc,
        cov=conn.cellsOnVertex,
        kite=met.kiteAreasOnVertex,
        inv_area_tri=1.0 / met.areaTriangle,
        voc_safe=voc_safe,
        kite_on_cell=kite_on_cell * vmask,
        c0=conn.cellsOnEdge[:, 0],
        c1=conn.cellsOnEdge[:, 1],
        v0=conn.verticesOnEdge[:, 0],
        v1=conn.verticesOnEdge[:, 1],
        inv_dc=1.0 / met.dcEdge,
        inv_dv=1.0 / met.dvEdge,
        eoe_safe=eoe_safe,
        woe=tri.weightsOnEdge,
    )
    _PLAN_KEEPALIVE[mesh] = plan
    return plan


# --------------------------------------------------------------------------
# cells <- edges (pattern family "A": mass point from velocity points)
# --------------------------------------------------------------------------


def cell_divergence(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Divergence at cells of a normal edge field: (1/A) * sum(sign*u*dv)."""
    p = plan_for(mesh)
    return np.sum(p.sign_dv * u_edge[p.eoc_safe], axis=1) * p.inv_area_cell


def flux_divergence(mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray) -> np.ndarray:
    """Divergence of the thickness flux ``h_edge * u`` (drives ``tend_h``)."""
    p = plan_for(mesh)
    flux = u_edge * h_edge
    return np.sum(p.sign_dv * flux[p.eoc_safe], axis=1) * p.inv_area_cell


def cell_kinetic_energy(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Kinetic energy at cells: (1/A) * sum(0.25 * dc * dv * u^2)."""
    p = plan_for(mesh)
    u2 = u_edge * u_edge
    return np.sum(p.ke_weight * u2[p.eoc_safe], axis=1) * p.inv_area_cell


# --------------------------------------------------------------------------
# edges <- cells (pattern family "C": velocity point from mass points)
# --------------------------------------------------------------------------


def edge_gradient_of_cell(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Normal gradient at edges of a cell field: (phi(c1) - phi(c0)) / dc."""
    p = plan_for(mesh)
    return (phi_cell[p.c1] - phi_cell[p.c0]) * p.inv_dc


def cell_to_edge_mean(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Second-order ``h_edge``: plain average of the two adjacent cells."""
    p = plan_for(mesh)
    return 0.5 * (phi_cell[p.c0] + phi_cell[p.c1])


# --------------------------------------------------------------------------
# vertices <- edges (pattern family "D": vorticity point from velocity points)
# --------------------------------------------------------------------------


def vertex_curl(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Relative vorticity at vertices: circulation / triangle area."""
    p = plan_for(mesh)
    return np.sum(p.sign_dc * u_edge[p.eov], axis=1) * p.inv_area_tri


# --------------------------------------------------------------------------
# vertices <- cells (pattern family "E")
# --------------------------------------------------------------------------


def vertex_from_cells_kite(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Kite-area-weighted cell->vertex interpolation (e.g. ``h_vertex``)."""
    p = plan_for(mesh)
    return np.sum(p.kite * phi_cell[p.cov], axis=1) * p.inv_area_tri


# --------------------------------------------------------------------------
# cells <- vertices (pattern family "F")
# --------------------------------------------------------------------------


def cell_from_vertices_kite(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Kite-area-weighted vertex->cell interpolation (e.g. ``pv_cell``)."""
    p = plan_for(mesh)
    return np.sum(p.kite_on_cell * phi_vertex[p.voc_safe], axis=1) * p.inv_area_cell


# --------------------------------------------------------------------------
# edges <- vertices (pattern family "G")
# --------------------------------------------------------------------------


def vertex_to_edge_mean(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Average of the two edge endpoints (e.g. second-order ``pv_edge``)."""
    p = plan_for(mesh)
    return 0.5 * (phi_vertex[p.v0] + phi_vertex[p.v1])


def edge_gradient_of_vertex(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Tangential gradient at edges of a vertex field: (phi(v1)-phi(v0))/dv."""
    p = plan_for(mesh)
    return (phi_vertex[p.v1] - phi_vertex[p.v0]) * p.inv_dv


# --------------------------------------------------------------------------
# edges <- edges (pattern family "B"/"H": the wide TRiSK stencil)
# --------------------------------------------------------------------------


def tangential_velocity(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """TRiSK tangential velocity: v_e = sum_j w_{e,j} u_{eoe(e,j)}."""
    p = plan_for(mesh)
    return np.sum(p.woe * u_edge[p.eoe_safe], axis=1)


def coriolis_edge_term(
    mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray, pv_edge: np.ndarray
) -> np.ndarray:
    """Nonlinear Coriolis/PV momentum term.

    ``sum_j w_{e,j} * u_{e'} * h_edge_{e'} * 0.5 * (pv_edge_e + pv_edge_{e'})``
    with ``e' = edgesOnEdge(e, j)`` — the energy-neutral TRiSK form used by
    the MPAS shallow-water core.
    """
    p = plan_for(mesh)
    flux = u_edge * h_edge
    gathered_flux = flux[p.eoe_safe]
    gathered_pv = pv_edge[p.eoe_safe]
    avg_pv = 0.5 * (pv_edge[:, None] + gathered_pv)
    return np.sum(p.woe * gathered_flux * avg_pv, axis=1)
