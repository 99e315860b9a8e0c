"""Raw spherical Voronoi extraction for SCVT generator sets.

This module wraps :class:`scipy.spatial.SphericalVoronoi` and normalizes its
output into the form the MPAS connectivity builder needs:

* generator points (the future *mass points* / cell centres),
* Voronoi vertices (the future *vorticity points*, circumcentres of the dual
  Delaunay triangles), and
* per-generator vertex rings ordered counter-clockwise as seen from outside
  the sphere.

The C-grid construction requires a *generic* tessellation: every Voronoi
vertex trivalent, every region a simple polygon.  Quasi-uniform SCVTs satisfy
this; :func:`extract_voronoi` validates it and raises otherwise rather than
silently producing a broken mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.sphere import normalize, spherical_polygon_area

__all__ = ["RawVoronoi", "extract_voronoi"]


@dataclass(frozen=True, eq=False)
class RawVoronoi:
    """Oriented spherical Voronoi diagram of a generator set.

    Attributes
    ----------
    generators : (nCells, 3) float array
        Unit-vector generator positions.
    vertices : (nVertices, 3) float array
        Unit-vector Voronoi vertex positions (Delaunay circumcentres).
    regions : list of list of int
        For each generator, the indices of its Voronoi vertices in CCW order
        (outward orientation).
    """

    generators: np.ndarray
    vertices: np.ndarray
    regions: list[list[int]]

    @property
    def n_cells(self) -> int:
        return self.generators.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def extract_voronoi(points: np.ndarray, min_vertex_separation: float = 1e-9) -> RawVoronoi:
    """Compute the oriented spherical Voronoi diagram of ``points``.

    Parameters
    ----------
    points : (n, 3) array
        Generator positions; normalized internally.
    min_vertex_separation : float
        Smallest allowed distance between distinct Voronoi vertices of one
        region.  Closer vertices indicate a degenerate (co-circular)
        configuration that the C-grid cannot represent; a ``ValueError``
        explains the remedy (run Lloyd relaxation or jitter the seeds).

    Returns
    -------
    RawVoronoi
        With every region wound counter-clockwise.
    """
    from scipy.spatial import SphericalVoronoi  # deferred: 0.2 s, builds only

    pts = normalize(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 generators for a spherical Voronoi diagram")
    sv = SphericalVoronoi(pts, radius=1.0)
    sv.sort_vertices_of_regions()

    vertices = normalize(sv.vertices)
    regions: list[list[int]] = []
    vertex_degree = np.zeros(vertices.shape[0], dtype=np.int64)
    for i, region in enumerate(sv.regions):
        ring = [int(v) for v in region]
        if len(ring) < 3:
            raise ValueError(f"generator {i} has a degenerate region with {len(ring)} vertices")
        if len(set(ring)) != len(ring):
            raise ValueError(
                f"generator {i} has repeated Voronoi vertices: degenerate "
                "(co-circular) configuration; apply Lloyd relaxation first"
            )
        ring_pts = vertices[ring]
        # Reject nearly-coincident vertices (duplicate circumcentres).
        diffs = np.linalg.norm(ring_pts - np.roll(ring_pts, -1, axis=0), axis=-1)
        if np.any(diffs < min_vertex_separation):
            raise ValueError(
                f"generator {i} has Voronoi vertices closer than "
                f"{min_vertex_separation}: degenerate configuration; apply "
                "Lloyd relaxation first"
            )
        if spherical_polygon_area(ring_pts) < 0.0:
            ring = ring[::-1]
        regions.append(ring)
        vertex_degree[ring] += 1

    if not np.all(vertex_degree == 3):
        bad = int(np.count_nonzero(vertex_degree != 3))
        raise ValueError(
            f"{bad} Voronoi vertices are not trivalent; the generator set is "
            "degenerate (co-circular points). Apply Lloyd relaxation first."
        )
    return RawVoronoi(generators=pts, vertices=vertices, regions=regions)
