"""Variable-resolution SCVTs: density-weighted Lloyd relaxation.

MPAS's defining capability ("Prediction Across Scales") is the
*multiresolution* SCVT: given a density function rho(x) on the sphere, the
energy-minimizing tessellation concentrates generators where rho is large,
with the local grid spacing scaling as ``rho**(-1/4)`` (Ringler, Ju &
Gunzburger 2008, for d=2: h ~ rho^(-1/(d+2))).

The paper evaluates only quasi-uniform meshes (Table III), but the whole
pattern machinery is resolution-agnostic; this module provides the
refinement substrate so the tests cover the "across scales" part of the
model family too: they run the shallow-water core on a regionally-refined
mesh and check stability and conservation.  No run path builds such a mesh,
so the builder lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.geometry.sphere import arc_length, normalize, spherical_triangle_area

__all__ = ["DensityFunction", "radial_refinement", "weighted_lloyd_relax"]

DensityFunction = Callable[[np.ndarray], np.ndarray]


def radial_refinement(
    center_lonlat: tuple[float, float],
    inner_radius: float,
    transition_width: float,
    amplification: float,
) -> DensityFunction:
    """Density with a high-resolution disk around ``center_lonlat``.

    ``rho = amplification`` inside ``inner_radius`` (radians), 1 outside,
    with a smooth tanh transition of the given width.  The local spacing
    ratio between the refined and coarse regions is ``amplification**(1/4)``.
    """
    from repro.geometry.sphere import lonlat_to_xyz

    centre = lonlat_to_xyz(np.array(center_lonlat[0]), np.array(center_lonlat[1]))

    def rho(points: np.ndarray) -> np.ndarray:
        r = arc_length(np.asarray(points, dtype=np.float64), centre)
        blend = 0.5 * (1.0 - np.tanh((r - inner_radius) / transition_width))
        return 1.0 + (amplification - 1.0) * blend

    return rho


@dataclass
class WeightedLloydResult:
    points: np.ndarray
    iterations: int
    displacement_history: list[float] = field(default_factory=list)
    converged: bool = False


def _weighted_region_centroid(
    vertices: np.ndarray, density: DensityFunction
) -> np.ndarray:
    """Density-weighted centroid of one Voronoi region (triangle-fan rule).

    Each fan triangle contributes ``area * rho(midpoint) * midpoint``; for
    the smooth, cell-scale-slowly-varying densities used for mesh grading
    this one-point quadrature is the standard choice.
    """
    a = vertices[0]
    b = vertices[1:-1]
    c = vertices[2:]
    w = spherical_triangle_area(a, b, c)
    mids = (a[None, :] + b + c) / 3.0
    mids = mids / np.linalg.norm(mids, axis=1, keepdims=True)
    w = w * density(mids)
    centroid = np.sum(w[:, None] * mids, axis=0)
    if np.sum(w) < 0.0:
        centroid = -centroid
    return normalize(centroid)


def weighted_lloyd_relax(
    points: np.ndarray,
    density: DensityFunction,
    iterations: int = 30,
    tol: float = 1e-10,
) -> WeightedLloydResult:
    """Lloyd iteration with generator updates weighted by ``density``."""
    from scipy.spatial import SphericalVoronoi  # deferred: 0.2 s, builds only

    pts = normalize(np.asarray(points, dtype=np.float64))
    result = WeightedLloydResult(points=pts, iterations=0)
    for it in range(iterations):
        sv = SphericalVoronoi(pts, radius=1.0)
        sv.sort_vertices_of_regions()
        new_pts = np.empty_like(pts)
        for i, region in enumerate(sv.regions):
            new_pts[i] = _weighted_region_centroid(sv.vertices[region], density)
        disp = float(np.max(np.linalg.norm(new_pts - pts, axis=-1)))
        result.displacement_history.append(disp)
        pts = new_pts
        result.iterations = it + 1
        if disp < tol:
            result.converged = True
            break
    result.points = pts
    return result
