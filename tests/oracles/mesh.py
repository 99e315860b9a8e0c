"""Mesh helpers that only the tests call."""

from __future__ import annotations

import numpy as np

from repro.geometry.icosahedron import icosahedral_count
from repro.mesh.mesh import MESH_FAMILY, Mesh


def boundary_edge_mask(mesh: Mesh, cell_mask: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of boundary edges.

    With ``cell_mask`` (True = active cell), an edge is a boundary edge when
    its two cells have different activity; without one, the closed sphere has
    no boundary and the mask is all-False.
    """
    if cell_mask is None:
        return np.zeros(mesh.nEdges, dtype=bool)
    cell_mask = np.asarray(cell_mask, dtype=bool)
    c0 = mesh.connectivity.cellsOnEdge[:, 0]
    c1 = mesh.connectivity.cellsOnEdge[:, 1]
    return cell_mask[c0] != cell_mask[c1]


def subdivision_level_for(n_points: int) -> int:
    """Inverse of :func:`icosahedral_count`; raises for non-geodesic counts."""
    level = 0
    while icosahedral_count(level) < n_points:
        level += 1
    if icosahedral_count(level) != n_points:
        raise ValueError(
            f"{n_points} is not an icosahedral count (10 * 4**k + 2)"
        )
    return level


def mesh_family_counts() -> dict[str, int]:
    """Cell counts of the Table III mesh family (plus coarser test sizes)."""
    return {name: 10 * 4**lvl + 2 for name, lvl in MESH_FAMILY.items()}
