"""Vectorized spherical geometry primitives on the unit sphere.

All functions operate on Cartesian coordinates of unit vectors with shape
``(..., 3)`` and are fully vectorized over the leading axes.  Radii other than
one are handled by the callers (metric quantities scale by ``R`` or ``R**2``).

Conventions
-----------
* Longitude ``lon`` in ``[0, 2*pi)``, latitude ``lat`` in ``[-pi/2, pi/2]``.
* A spherical triangle ``(a, b, c)`` has *positive* signed area when its
  vertices wind counter-clockwise as seen from outside the sphere.
* The local tangent basis at ``p`` is ``(east, north)`` with
  ``east = z_hat x p / |z_hat x p|`` and ``north = p x east``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "arc_length",
    "lonlat_to_xyz",
    "xyz_to_lonlat",
    "spherical_triangle_area",
    "spherical_polygon_area",
    "polygon_centroid",
    "tangent_basis",
    "tangent_plane_coords",
]


def normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v`` scaled to unit length along the last axis.

    Raises
    ------
    ValueError
        If any vector has (near-)zero norm, which would make the projection
        onto the sphere ill-defined.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < 1e-300):
        raise ValueError("cannot normalize zero-length vector")
    return v / n


def arc_length(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distance between unit vectors ``a`` and ``b``.

    Uses the ``atan2`` formulation, which is accurate for both nearly
    coincident and nearly antipodal points (unlike ``arccos`` of the dot
    product).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cross = np.cross(a, b)
    sin_d = np.linalg.norm(cross, axis=-1)
    cos_d = np.sum(a * b, axis=-1)
    return np.arctan2(sin_d, cos_d)


def lonlat_to_xyz(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Convert longitude/latitude (radians) to unit Cartesian coordinates."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    cos_lat = np.cos(lat)
    return np.stack(
        [cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=-1
    )


def xyz_to_lonlat(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert unit Cartesian coordinates to ``(lon, lat)`` in radians.

    Longitude is wrapped into ``[0, 2*pi)`` to match the MPAS convention.
    """
    p = np.asarray(p, dtype=np.float64)
    lon = np.arctan2(p[..., 1], p[..., 0])
    lon = np.where(lon < 0.0, lon + 2.0 * np.pi, lon)
    # Clip guards against |z| marginally exceeding 1 from round-off.
    lat = np.arcsin(np.clip(p[..., 2], -1.0, 1.0))
    return lon, lat


def spherical_triangle_area(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Signed spherical excess of triangle ``(a, b, c)`` on the unit sphere.

    Uses the Van Oosterom & Strackee (1983) formula::

        tan(E / 2) = a . (b x c) / (1 + a.b + b.c + c.a)

    The result is positive for counter-clockwise winding (seen from outside)
    and negative otherwise, which lets polygon areas be assembled as signed
    triangle fans without orientation bookkeeping.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    numer = np.sum(a * np.cross(b, c), axis=-1)
    denom = (
        1.0
        + np.sum(a * b, axis=-1)
        + np.sum(b * c, axis=-1)
        + np.sum(c * a, axis=-1)
    )
    return 2.0 * np.arctan2(numer, denom)


def spherical_polygon_area(vertices: np.ndarray) -> float:
    """Signed area of a single spherical polygon given ordered unit vertices.

    Parameters
    ----------
    vertices : (n, 3) array
        Polygon corners, ordered (either orientation); the sign of the result
        reports the orientation (positive = CCW from outside).
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    a = vertices[0]
    b = vertices[1:-1]
    c = vertices[2:]
    return float(np.sum(spherical_triangle_area(a, b, c)))


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Approximate spherical centroid of a convex spherical polygon.

    Computes the area-weighted average of flat triangle centroids of a fan
    decomposition, projected back to the sphere.  For the small, nearly-planar
    cells of climate-model meshes this approximation is accurate to
    ``O(diam^2)`` and is the standard choice for spherical Lloyd iteration.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    a = vertices[0]
    b = vertices[1:-1]
    c = vertices[2:]
    w = spherical_triangle_area(a, b, c)
    tri_centroids = (a[None, :] + b + c) / 3.0
    centroid = np.sum(w[:, None] * tri_centroids, axis=0)
    # Signed weights make the result orientation-independent up to overall
    # sign: a clockwise ring yields the antipodal direction.  Flip it back so
    # callers may pass rings of either orientation.
    if np.sum(w) < 0.0:
        centroid = -centroid
    return normalize(centroid)


def tangent_basis(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local unit ``(east, north)`` tangent vectors at point(s) ``p``.

    At the poles the east direction is taken along ``+x`` (the ``lon = 0``
    meridian), matching the limit used by MPAS for ``angleEdge``.
    """
    p = np.asarray(p, dtype=np.float64)
    z_hat = np.zeros_like(p)
    z_hat[..., 2] = 1.0
    east = np.cross(z_hat, p)
    norm = np.linalg.norm(east, axis=-1, keepdims=True)
    polar = norm[..., 0] < 1e-12
    if np.any(polar):
        east = east.copy()
        east[polar] = np.array([1.0, 0.0, 0.0])
        norm = np.linalg.norm(east, axis=-1, keepdims=True)
    east = east / norm
    north = np.cross(p, east)
    return east, north


def tangent_plane_coords(origin: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project ``points`` into the (east, north) tangent plane at ``origin``.

    Uses gnomonic-like projection scaled by arc length so distances along
    radial directions from the origin are preserved to leading order; used by
    the least-squares derivative fits of the high-order thickness advection.
    Returns an array of shape ``(..., 2)``.
    """
    origin = np.asarray(origin, dtype=np.float64)
    east, north = tangent_basis(origin)
    points = np.asarray(points, dtype=np.float64)
    x = np.sum(points * east, axis=-1)
    y = np.sum(points * north, axis=-1)
    z = np.sum(points * origin, axis=-1)
    # Angle-preserving rescale: (x, y) lie in the tangent plane at distance
    # tan(theta); rescale so |(x, y)| equals the geodesic distance theta.
    rho = np.hypot(x, y)
    theta = np.arctan2(rho, z)
    scale = np.where(rho > 1e-300, theta / np.where(rho > 1e-300, rho, 1.0), 1.0)
    return np.stack([x * scale, y * scale], axis=-1)
