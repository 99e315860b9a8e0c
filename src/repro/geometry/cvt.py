"""Spherical centroidal Voronoi tessellation (SCVT) via Lloyd iteration.

MPAS meshes are SCVTs (Du, Faber & Gunzburger 1999; Ju, Ringler & Gunzburger
2011): point sets whose Voronoi generators coincide with the mass centroids of
their own Voronoi cells.  Starting from icosahedral geodesic seeds (already
nearly centroidal), a few Lloyd sweeps converge to a quasi-uniform SCVT with a
constant density function — the mesh family used throughout the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sphere import normalize, polygon_centroid

__all__ = ["LloydResult", "lloyd_relax", "centroidality_residual"]


@dataclass
class LloydResult:
    """Outcome of a Lloyd relaxation run.

    Attributes
    ----------
    points : (n, 3) array
        Relaxed generator positions (unit vectors).
    iterations : int
        Number of sweeps actually performed.
    displacement_history : list of float
        Maximum generator movement (radians) per sweep; monotone decrease is
        the practical convergence signal.
    converged : bool
        True when the final displacement fell below the tolerance.
    """

    points: np.ndarray
    iterations: int
    displacement_history: list[float] = field(default_factory=list)
    converged: bool = False


def _region_centroids(pts: np.ndarray) -> np.ndarray:
    """Spherical centroid of the Voronoi region of every generator in ``pts``."""
    from scipy.spatial import SphericalVoronoi  # deferred: 0.2 s, builds only

    sv = SphericalVoronoi(pts, radius=1.0)
    sv.sort_vertices_of_regions()
    centroids = np.empty_like(sv.points)
    for i, region in enumerate(sv.regions):
        centroids[i] = polygon_centroid(sv.vertices[region])
    return centroids


def lloyd_relax(
    points: np.ndarray,
    iterations: int = 10,
    tol: float = 1e-10,
) -> LloydResult:
    """Run Lloyd's algorithm on the sphere.

    Each sweep replaces every generator by the centroid of its Voronoi region.
    ``tol`` is an absolute bound (radians) on the largest generator movement.

    Notes
    -----
    With icosahedral seeds the configuration is already a near-fixed-point, so
    a handful of sweeps suffices; this mirrors the quasi-uniform SCVT meshes
    of Table III.  The iteration is deterministic.
    """
    pts = normalize(np.asarray(points, dtype=np.float64))
    result = LloydResult(points=pts, iterations=0)
    for it in range(iterations):
        new_pts = _region_centroids(pts)
        disp = float(np.max(np.linalg.norm(new_pts - pts, axis=-1)))
        result.displacement_history.append(disp)
        pts = new_pts
        result.iterations = it + 1
        if disp < tol:
            result.converged = True
            break
    result.points = pts
    return result


def centroidality_residual(points: np.ndarray) -> float:
    """Largest distance between a generator and its Voronoi-region centroid.

    Zero for an exact SCVT; used by mesh-quality diagnostics and tests.
    """
    pts = normalize(np.asarray(points, dtype=np.float64))
    centroids = _region_centroids(pts)
    return float(np.max(np.linalg.norm(centroids - pts, axis=-1)))
