"""Icosahedral geodesic point sets used as SCVT generator seeds.

Subdividing the icosahedron ``k`` times yields ``10 * 4**k + 2`` quasi-uniform
points on the sphere; their Voronoi diagram is the classic hexagon-dominant
"soccer ball" mesh with exactly 12 pentagons.  The paper's mesh family
(Table III) corresponds to ``k = 6 .. 9``:

====== ============ ==========
``k``  points       resolution
====== ============ ==========
5      10,242       ~240 km
6      40,962       ~120 km
7      163,842      ~60 km
8      655,362      ~30 km
9      2,621,442    ~15 km
====== ============ ==========

The subdivision here is the standard edge-bisection ("icosphere") scheme with
projection back to the unit sphere after each level.
"""

from __future__ import annotations

import numpy as np

from .sphere import normalize

__all__ = [
    "base_icosahedron",
    "icosahedral_points",
    "icosahedral_count",
    "resolution_km",
]


def base_icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Vertices and faces of the regular icosahedron inscribed in S^2.

    Returns
    -------
    vertices : (12, 3) float array of unit vectors
    faces : (20, 3) int array of CCW vertex triples (outward orientation)
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1.0, phi, 0.0],
            [1.0, phi, 0.0],
            [-1.0, -phi, 0.0],
            [1.0, -phi, 0.0],
            [0.0, -1.0, phi],
            [0.0, 1.0, phi],
            [0.0, -1.0, -phi],
            [0.0, 1.0, -phi],
            [phi, 0.0, -1.0],
            [phi, 0.0, 1.0],
            [-phi, 0.0, -1.0],
            [-phi, 0.0, 1.0],
        ],
        dtype=np.float64,
    )
    verts = normalize(verts)
    faces = np.array(
        [
            [0, 11, 5],
            [0, 5, 1],
            [0, 1, 7],
            [0, 7, 10],
            [0, 10, 11],
            [1, 5, 9],
            [5, 11, 4],
            [11, 10, 2],
            [10, 7, 6],
            [7, 1, 8],
            [3, 9, 4],
            [3, 4, 2],
            [3, 2, 6],
            [3, 6, 8],
            [3, 8, 9],
            [4, 9, 5],
            [2, 4, 11],
            [6, 2, 10],
            [8, 6, 7],
            [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosahedral_count(level: int) -> int:
    """Number of geodesic points after ``level`` subdivisions."""
    if level < 0:
        raise ValueError("subdivision level must be non-negative")
    return 10 * 4**level + 2


def resolution_km(level: int, radius_m: float = 6_371_220.0) -> float:
    """Nominal grid spacing in km: sqrt(mean cell area) on the given sphere."""
    n = icosahedral_count(level)
    area = 4.0 * np.pi * radius_m**2 / n
    return float(np.sqrt(area) / 1000.0)


def icosahedral_points(level: int) -> np.ndarray:
    """Generate the geodesic point set at the given subdivision level.

    The construction refines each triangular face into four by bisecting all
    edges and re-projecting midpoints onto the sphere.  Points are returned in
    a deterministic order (original vertices first, then midpoints in creation
    order), shape ``(10 * 4**level + 2, 3)``.
    """
    verts, faces = base_icosahedron()
    vert_list = [v for v in verts]
    for _ in range(level):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            idx = midpoint_cache.get(key)
            if idx is None:
                m = normalize(vert_list[i] + vert_list[j])
                idx = len(vert_list)
                vert_list.append(m)
                midpoint_cache[key] = idx
            return idx

        new_faces = np.empty((len(faces) * 4, 3), dtype=np.int64)
        for f, (a, b, c) in enumerate(faces):
            ab = midpoint(int(a), int(b))
            bc = midpoint(int(b), int(c))
            ca = midpoint(int(c), int(a))
            new_faces[4 * f + 0] = (a, ab, ca)
            new_faces[4 * f + 1] = (b, bc, ab)
            new_faces[4 * f + 2] = (c, ca, bc)
            new_faces[4 * f + 3] = (ab, bc, ca)
        faces = new_faces
    points = np.asarray(vert_list, dtype=np.float64)
    assert points.shape[0] == icosahedral_count(level)
    return points
