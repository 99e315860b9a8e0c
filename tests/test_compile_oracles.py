"""Cold-compile tables against the per-entity loops they replaced.

``reconstruction_matrices``, ``plan_for(...).kite_on_cell`` and
``advection_coefficients`` used to be built by Python loops over cells,
vertices and (edge, side) pairs.  They are vectorized now; the loops live
here as oracles, and the contract is **bitwise** equality — on the
icosahedral mesh, on a random SCVT (heptagons included) and on a rank-local
``LocalMesh`` (whose remapped, fallback-padded connectivity is where an
index trick would break first) — because every compiled operator, golden
file and decomposed-equals-serial guarantee downstream hangs off these
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import lloyd_relax, normalize
from repro.geometry.sphere import tangent_basis, tangent_plane_coords
from repro.mesh import Mesh
from repro.parallel import build_local_mesh, partition_cells
from repro.swm.advection import advection_coefficients
from repro.swm.operators import plan_for
from repro.swm.reconstruct import reconstruction_matrices


@pytest.fixture(scope="module", params=["icos3", "random", "local"])
def mesh(request, mesh3):
    if request.param == "icos3":
        return mesh3
    if request.param == "local":
        return build_local_mesh(mesh3, partition_cells(mesh3, 3), 1)
    rng = np.random.default_rng(23)
    points = lloyd_relax(normalize(rng.standard_normal((120, 3))), iterations=60)
    return Mesh.from_points(points.points, name="random120-23")


def _reconstruction_matrices_loop(mesh) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    mats = np.zeros((conn.n_cells, 3, conn.max_edges))
    east, north = tangent_basis(met.xCell)
    for c in range(conn.n_cells):
        n = int(conn.nEdgesOnCell[c])
        N = met.edgeNormal[conn.edgesOnCell[c, :n]]  # (n, 3)
        E = np.stack([east[c], north[c]], axis=1)  # (3, 2)
        mats[c, :, :n] = E @ np.linalg.pinv(N @ E)
    return mats


def _kite_on_cell_loop(mesh) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    lookup = {}
    for v in range(conn.n_vertices):
        for k in range(3):
            lookup[(v, int(conn.cellsOnVertex[v, k]))] = float(
                met.kiteAreasOnVertex[v, k]
            )
    kite = np.zeros(conn.verticesOnCell.shape)
    for c in range(conn.n_cells):
        for j in range(int(conn.nEdgesOnCell[c])):
            kite[c, j] = lookup[(int(conn.verticesOnCell[c, j]), c)]
    return kite * (conn.verticesOnCell >= 0)


def _advection_coefficients_loop(mesh) -> tuple[np.ndarray, np.ndarray]:
    conn, met = mesh.connectivity, mesh.metrics
    stencils, pinvs = [], []
    scales = np.sqrt(met.areaCell)
    for c in range(conn.n_cells):
        stencil = np.concatenate(([c], conn.cellsOnCell[c, : conn.nEdgesOnCell[c]]))
        xy = tangent_plane_coords(met.xCell[c], met.xCell[stencil])
        xy = xy * (met.radius / scales[c])
        x, y = xy[:, 0], xy[:, 1]
        pinv = np.linalg.pinv(
            np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
        )
        pinv[3:6] /= scales[c] * scales[c]
        stencils.append(stencil)
        pinvs.append(pinv)
    cells = np.zeros((conn.n_edges, 2, conn.max_edges + 1), dtype=np.int64)
    weights = np.zeros(cells.shape)
    for e in range(conn.n_edges):
        for s in range(2):
            c = int(conn.cellsOnEdge[e, s])
            east, north = tangent_basis(met.xCell[c])  # one call per (edge, side)
            nx, ny = float(met.edgeNormal[e] @ east), float(met.edgeNormal[e] @ north)
            nrm = np.hypot(nx, ny)
            nx, ny = nx / nrm, ny / nrm
            p = pinvs[c]
            k = stencils[c].shape[0]
            cells[e, s, :k] = stencils[c]
            weights[e, s, :k] = 2.0 * (nx * nx * p[3] + nx * ny * p[4] + ny * ny * p[5])
    return cells, weights


def test_reconstruction_matrices_equal_the_per_cell_loop(mesh):
    assert np.array_equal(
        reconstruction_matrices(mesh), _reconstruction_matrices_loop(mesh)
    )


def test_kite_on_cell_equals_the_lookup_loop(mesh):
    assert np.array_equal(plan_for(mesh).kite_on_cell, _kite_on_cell_loop(mesh))


def test_advection_coefficients_equal_the_per_side_loop(mesh):
    coeffs = advection_coefficients(mesh)
    cells, weights = _advection_coefficients_loop(mesh)
    assert np.array_equal(coeffs.cells, cells)
    assert np.array_equal(coeffs.weights, weights)
