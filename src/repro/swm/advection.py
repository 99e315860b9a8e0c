"""High-order thickness advection: the ``d2fdx2_cell1/2`` terms of Table I.

MPAS's ``config_thickness_adv_order = 3/4`` replaces the plain two-cell
average ``h_edge`` with a correction built from the second derivative of ``h``
along the edge direction at each of the two adjacent cells (the MPAS
``deriv_two`` machinery).  We reproduce it with a per-cell least-squares
quadratic fit over the cell and its neighbours in local tangent-plane
coordinates:

    fit   h(x, y) ~ a0 + a1 x + a2 y + a3 x^2 + a4 xy + a5 y^2
    take  d2fdx2 = second directional derivative along the edge normal
                 = 2 a3 nx^2 + 2 a4 nx ny + 2 a5 ny^2

Fourth order:  ``h_edge = mean - dc^2/12 * (d2_1 + d2_2)/2``
Third order adds the upwinded antisymmetric part weighted by
``coef_3rd_order`` and ``sign(u)``, exactly as the MPAS shallow-water core.

All weights are precomputed per mesh into a :class:`AdvectionCoefficients`
gather table; evaluating ``d2fdx2`` is then a pure pattern-C stencil
(cell output from neighbouring cells), matching the Table I classification.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..engine import dispatch
from ..geometry.sphere import tangent_basis, tangent_plane_coords
from ..mesh.mesh import Mesh
from ..obs.instrument import pattern_span

__all__ = [
    "AdvectionCoefficients",
    "advection_coefficients",
    "d2fdx2_raw",
    "d2fdx2_on_edges",
    "h_edge_high_order",
]


@dataclass(frozen=True, eq=False)
class AdvectionCoefficients:
    """Gather table for the edge-wise second derivatives.

    ``cells[e, s, k]`` lists the stencil cells for side ``s`` (0 = cell c0,
    1 = cell c1) of edge ``e``; ``weights[e, s, k]`` the matching linear
    weights such that ``d2fdx2[e, s] = sum_k weights * h[cells]``.  Padded
    entries have index 0 and weight 0.
    """

    cells: np.ndarray  # (nEdges, 2, maxStencil) int
    weights: np.ndarray  # (nEdges, 2, maxStencil) float


_CACHE: "weakref.WeakKeyDictionary[Mesh, AdvectionCoefficients]" = (
    weakref.WeakKeyDictionary()
)


def advection_coefficients(mesh: Mesh) -> AdvectionCoefficients:
    """Build (once per mesh) the ``deriv_two``-style coefficient table."""
    coeffs = _CACHE.get(mesh)
    if coeffs is not None:
        return coeffs

    conn, met = mesh.connectivity, mesh.metrics
    radius = met.radius
    max_stencil = conn.max_edges + 1

    # Per-cell quadratic-fit pseudo-inverses: rows give the 6 polynomial
    # coefficients as linear combinations of (h(c), h(neigh_1), ...).
    cell_stencils: list[np.ndarray] = []
    cell_pinvs: list[np.ndarray] = []
    # Nondimensionalize the fit per cell (coords in units of the local grid
    # spacing): the raw metre-scale design matrix mixes columns spanning ~12
    # orders of magnitude and loses half the significant digits.
    scales = np.sqrt(met.areaCell)
    for c in range(conn.n_cells):
        neigh = conn.cellsOnCell[c, : conn.nEdgesOnCell[c]]
        stencil = np.concatenate(([c], neigh))
        scale = scales[c]
        xy = tangent_plane_coords(met.xCell[c], met.xCell[stencil]) * (radius / scale)
        x, y = xy[:, 0], xy[:, 1]
        design = np.stack(
            [np.ones_like(x), x, y, x * x, x * y, y * y], axis=1
        )
        # Least squares (pentagon: 6 eq / 6 unknowns; hexagon: 7 / 6).
        # Undo the nondimensionalization on the quadratic rows so the
        # second derivatives come out in 1/m^2.
        pinv = np.linalg.pinv(design)
        pinv[3:6] /= scale * scale
        cell_stencils.append(stencil)
        cell_pinvs.append(pinv)

    cells = np.zeros((conn.n_edges, 2, max_stencil), dtype=np.int64)
    weights = np.zeros((conn.n_edges, 2, max_stencil), dtype=np.float64)
    east, north = tangent_basis(met.xCell)
    for e in range(conn.n_edges):
        for s in range(2):
            c = int(conn.cellsOnEdge[e, s])
            stencil = cell_stencils[c]
            pinv = cell_pinvs[c]
            # Edge-normal direction in cell c's tangent frame.
            n3 = met.edgeNormal[e]
            nx = float(n3 @ east[c])
            ny = float(n3 @ north[c])
            nrm = np.hypot(nx, ny)
            nx, ny = nx / nrm, ny / nrm
            # d2/dn2 of the quadratic: 2*a3*nx^2 + 2*a4*nx*ny + 2*a5*ny^2
            row = 2.0 * (nx * nx * pinv[3] + nx * ny * pinv[4] + ny * ny * pinv[5])
            k = stencil.shape[0]
            cells[e, s, :k] = stencil
            weights[e, s, :k] = row
    coeffs = AdvectionCoefficients(cells=cells, weights=weights)
    _CACHE[mesh] = coeffs
    return coeffs


def d2fdx2_raw(mesh: Mesh, h_cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fused C1,C2 sweep alone (no span): ``(d2fdx2_cell1, d2fdx2_cell2)``.

    Registered as the ``numpy`` implementation of the ``d2fdx2`` operator;
    tuple-valued, so it is marked ``no_split`` (no row cut partitions it).
    """
    coeffs = advection_coefficients(mesh)
    # One vectorized sweep evaluates both Table I instances (C1 and C2);
    # the fused span is split between them at report time.
    d2 = np.sum(coeffs.weights * h_cell[coeffs.cells], axis=2)
    return d2[:, 0], d2[:, 1]


def d2fdx2_on_edges(
    mesh: Mesh, h_cell: np.ndarray, backend: str = "numpy"
) -> tuple[np.ndarray, np.ndarray]:
    """Second derivative of ``h`` along each edge at its two cells.

    Returns ``(d2fdx2_cell1, d2fdx2_cell2)`` — the Table I variables.
    """
    with pattern_span("C1,C2", mesh, backend=backend):
        return dispatch("d2fdx2", mesh, h_cell, backend=backend)


def h_edge_high_order(
    mesh: Mesh,
    h_cell: np.ndarray,
    u_edge: np.ndarray,
    order: int,
    coef_3rd_order: float = 0.25,
    backend: str = "numpy",
) -> np.ndarray:
    """Thickness interpolated to edges at 2nd, 3rd or 4th order."""
    mean = dispatch("cell_to_edge_mean", mesh, h_cell, backend=backend)
    if order == 2:
        return mean
    d2_1, d2_2 = d2fdx2_on_edges(mesh, h_cell, backend=backend)
    dc2_12 = mesh.metrics.dcEdge**2 / 12.0
    h_edge = mean - dc2_12 * 0.5 * (d2_1 + d2_2)
    if order == 4:
        return h_edge
    if order == 3:
        # Upwinded antisymmetric correction, MPAS sign convention: positive
        # u flows from c0 to c1, so upwinding weights the c0-side derivative.
        return h_edge + coef_3rd_order * np.sign(u_edge) * dc2_12 * 0.5 * (d2_2 - d2_1)
    raise ValueError("order must be 2, 3 or 4")
