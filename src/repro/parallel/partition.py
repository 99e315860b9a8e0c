"""Mesh partitioning for MPI-style domain decomposition.

MPAS uses METIS partitions of the cell graph; we provide a deterministic
spherical k-means partitioner (quasi-uniform meshes yield compact, balanced,
nearly-convex parts — the same qualitative shape METIS produces) and
quality diagnostics (balance, edge cut).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.icosahedron import icosahedral_points
from ..geometry.sphere import normalize
from ..mesh.mesh import Mesh

__all__ = ["PartitionQuality", "partition_cells", "partition_quality"]


def _seed_directions(n_parts: int) -> np.ndarray:
    """Deterministic, well-spread unit vectors used as k-means seeds."""
    # Oversample a geodesic point set and take a spread subset: points of the
    # icosahedral families are nearly uniform, so striding them keeps spread.
    level = 0
    while 10 * 4**level + 2 < n_parts:
        level += 1
    pts = icosahedral_points(level)
    idx = np.linspace(0, pts.shape[0] - 1, n_parts).round().astype(int)
    return pts[np.unique(idx)][:n_parts]


def partition_cells(mesh: Mesh, n_parts: int, iterations: int = 25) -> np.ndarray:
    """Assign every cell an owner in ``[0, n_parts)``: spherical k-means on
    cell centres (balanced by construction on quasi-uniform meshes)."""
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n_parts == 1:
        return np.zeros(mesh.nCells, dtype=np.int64)
    if n_parts > mesh.nCells:
        raise ValueError("more parts than cells")
    return _kmeans_partition(mesh, n_parts, iterations)


def _kmeans_partition(mesh: Mesh, n_parts: int, iterations: int) -> np.ndarray:
    x = mesh.metrics.xCell
    centers = _seed_directions(n_parts)
    if centers.shape[0] < n_parts:
        raise ValueError("could not seed enough distinct part centres")
    owner = np.zeros(mesh.nCells, dtype=np.int64)
    for _ in range(iterations):
        sims = x @ centers.T  # cosine similarity
        new_owner = np.argmax(sims, axis=1)
        if np.array_equal(new_owner, owner):
            break
        owner = new_owner
        for p in range(n_parts):
            members = x[owner == p]
            if members.shape[0]:
                centers[p] = normalize(members.sum(axis=0))
    # Guarantee non-empty parts: steal the closest cell for any empty part.
    for p in range(n_parts):
        if not np.any(owner == p):
            sims = x @ centers[p]
            # Pick the most-similar cell whose part has more than one member.
            for c in np.argsort(-sims):
                if np.count_nonzero(owner == owner[c]) > 1:
                    owner[c] = p
                    break
    return owner


@dataclass(frozen=True)
class PartitionQuality:
    """Balance and communication statistics of a partition."""

    n_parts: int
    min_size: int
    max_size: int
    imbalance: float  # max / mean
    edge_cut: int  # edges whose two cells live on different parts
    cut_fraction: float

    def summary(self) -> str:
        return (
            f"parts={self.n_parts} size=[{self.min_size},{self.max_size}] "
            f"imbalance={self.imbalance:.3f} cut={self.edge_cut} "
            f"({100 * self.cut_fraction:.1f}%)"
        )


def partition_quality(mesh: Mesh, owner: np.ndarray) -> PartitionQuality:
    """Evaluate a partition (used by tests and the scaling reports)."""
    n_parts = int(owner.max()) + 1
    sizes = np.bincount(owner, minlength=n_parts)
    c0 = mesh.connectivity.cellsOnEdge[:, 0]
    c1 = mesh.connectivity.cellsOnEdge[:, 1]
    cut = int(np.count_nonzero(owner[c0] != owner[c1]))
    return PartitionQuality(
        n_parts=n_parts,
        min_size=int(sizes.min()),
        max_size=int(sizes.max()),
        imbalance=float(sizes.max() / sizes.mean()),
        edge_cut=cut,
        cut_fraction=cut / mesh.nEdges,
    )
