"""Spherical geometry substrate: primitives, geodesic seeds, SCVT relaxation."""

from .sphere import (
    arc_length,
    arc_midpoint,
    chord_length,
    is_ccw,
    lonlat_to_xyz,
    normalize,
    polygon_centroid,
    rotate,
    rotation_matrix,
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
    subdivision_level_for,
)
from .cvt import LloydResult, centroidality_residual, lloyd_relax

__all__ = [
    "arc_length",
    "arc_midpoint",
    "chord_length",
    "is_ccw",
    "lonlat_to_xyz",
    "normalize",
    "polygon_centroid",
    "rotate",
    "rotation_matrix",
    "spherical_polygon_area",
    "spherical_triangle_area",
    "tangent_basis",
    "tangent_plane_coords",
    "xyz_to_lonlat",
    "base_icosahedron",
    "icosahedral_count",
    "icosahedral_points",
    "resolution_km",
    "subdivision_level_for",
    "LloydResult",
    "centroidality_residual",
    "lloyd_relax",
]
