"""Spherical geometry substrate: primitives, geodesic seeds, SCVT relaxation."""

from .sphere import (
    arc_length,
    lonlat_to_xyz,
    normalize,
    polygon_centroid,
    spherical_polygon_area,
    spherical_triangle_area,
    tangent_basis,
    tangent_plane_coords,
    xyz_to_lonlat,
)
from .icosahedron import (
    base_icosahedron,
    icosahedral_count,
    icosahedral_points,
    resolution_km,
)
from .cvt import LloydResult, centroidality_residual, lloyd_relax

__all__ = [
    "arc_length",
    "lonlat_to_xyz",
    "normalize",
    "polygon_centroid",
    "spherical_polygon_area",
    "spherical_triangle_area",
    "tangent_basis",
    "tangent_plane_coords",
    "xyz_to_lonlat",
    "base_icosahedron",
    "icosahedral_count",
    "icosahedral_points",
    "resolution_km",
    "LloydResult",
    "centroidality_residual",
    "lloyd_relax",
]
