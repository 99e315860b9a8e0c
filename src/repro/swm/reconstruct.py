"""The ``mpas_reconstruct`` kernel (Algorithm 1, line 12).

Reconstructs the full 3D velocity vector at cell centres from the normal
components on the surrounding edges (patterns A4 + X6 of Table I), then
rotates it into zonal/meridional components.  MPAS uses radial basis
functions; we use the equivalent-accuracy constrained least-squares fit:

    minimize  sum_e (U . n_e - u_e)^2   subject to  U . r_hat = 0

solved per cell in the local (east, north) tangent basis — ``U = E a`` with
``a = pinv(N E) u`` — so the result is tangent to the sphere by construction
(the edge normals are tangent at the *edge* points, not at the cell centre,
so a penalty formulation would leak a radial component).
"""

from __future__ import annotations

import weakref

import numpy as np

from ..engine import dispatch
from ..geometry.sphere import tangent_basis
from ..mesh.mesh import Mesh
from ..obs.instrument import pattern_span
from .state import Reconstruction

__all__ = ["mpas_reconstruct", "reconstruct_cell_vectors", "reconstruction_matrices"]

_CACHE: "weakref.WeakKeyDictionary[Mesh, np.ndarray]" = weakref.WeakKeyDictionary()


def reconstruction_matrices(mesh: Mesh) -> np.ndarray:
    """Per-cell (3, maxEdges) matrices mapping edge normals to a 3D vector.

    ``U_c = M_c @ u[edgesOnCell(c)]`` solves the constrained least-squares
    problem of the module docstring.  Padded edge slots map to zero columns.
    """
    mats = _CACHE.get(mesh)
    if mats is not None:
        return mats

    conn, met = mesh.connectivity, mesh.metrics
    mats = np.zeros((conn.n_cells, 3, conn.max_edges), dtype=np.float64)
    east, north = tangent_basis(met.xCell)
    E = np.stack([east, north], axis=2)  # (nCells, 3, 2)
    # One stacked pinv per cell valence (pentagons, hexagons, ...): the
    # gufunc factors each matrix exactly as a per-cell call would.
    for n in np.unique(conn.nEdgesOnCell):
        cells = np.flatnonzero(conn.nEdgesOnCell == n)
        # Rows: outward-facing signs do not matter (u_e is signed in the
        # global n_e convention), so use the global normals directly.
        N = met.edgeNormal[conn.edgesOnCell[cells, :n]]  # (k, n, 3)
        mats[cells, :, :n] = E[cells] @ np.linalg.pinv(N @ E[cells])
    _CACHE[mesh] = mats
    return mats


def reconstruct_cell_vectors(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """The A4 gather alone: per-cell 3D velocity vectors, shape (nCells, 3).

    This is the ``numpy``-backend registration of the ``velocity_reconstruction``
    operator; :func:`mpas_reconstruct` dispatches it through the engine.
    """
    conn = mesh.connectivity
    mats = reconstruction_matrices(mesh)
    eoc = np.where(conn.edgesOnCell >= 0, conn.edgesOnCell, 0)
    mask = (conn.edgesOnCell >= 0).astype(np.float64)
    gathered = u_edge[eoc] * mask  # (nCells, maxEdges)
    return np.einsum("cik,ck->ci", mats, gathered)


def mpas_reconstruct(
    mesh: Mesh, u_edge: np.ndarray, backend: str = "numpy"
) -> Reconstruction:
    """Reconstruct cell-centre velocities from edge normal components."""
    met = mesh.metrics
    # Pattern A4: cell vector from neighbouring edges.
    with pattern_span("A4", mesh, backend=backend):
        U = dispatch("velocity_reconstruction", mesh, u_edge, backend=backend)

    # Local X6: change of basis at each cell.
    with pattern_span("X6", mesh, backend=backend):
        east, north = tangent_basis(met.xCell)
        zonal = np.sum(U * east, axis=1)
        meridional = np.sum(U * north, axis=1)
    return Reconstruction(
        uReconstructX=U[:, 0],
        uReconstructY=U[:, 1],
        uReconstructZ=U[:, 2],
        uReconstructZonal=zonal,
        uReconstructMeridional=meridional,
    )
