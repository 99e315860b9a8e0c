"""Unit tests of the spherical geometry primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
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
from tests.oracles.sphere import (
    arc_midpoint,
    chord_length,
    is_ccw,
    rotate,
    rotation_matrix,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestNormalize:
    def test_unit_result(self):
        v = normalize(np.array([3.0, 4.0, 0.0]))
        assert np.allclose(np.linalg.norm(v), 1.0)
        assert np.allclose(v, [0.6, 0.8, 0.0])

    def test_batch(self):
        v = normalize(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -5.0]]))
        assert np.allclose(v, [[1, 0, 0], [0, 0, -1]])

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="zero-length"):
            normalize(np.zeros(3))


class TestArcLength:
    def test_quarter_circle(self):
        assert np.isclose(arc_length(X, Y), np.pi / 2)

    def test_antipodal(self):
        assert np.isclose(arc_length(X, -X), np.pi)

    def test_coincident(self):
        assert arc_length(X, X) == 0.0

    def test_small_angle_accuracy(self):
        eps = 1e-9
        b = normalize(np.array([1.0, eps, 0.0]))
        assert np.isclose(arc_length(X, b), eps, rtol=1e-6)

    def test_symmetric(self):
        a = normalize(np.array([0.2, -0.5, 0.7]))
        b = normalize(np.array([-0.1, 0.9, 0.3]))
        assert arc_length(a, b) == arc_length(b, a)

    def test_chord_vs_arc(self):
        a = normalize(np.array([1.0, 0.2, 0.0]))
        assert chord_length(X, a) < arc_length(X, a)


class TestLonLat:
    def test_roundtrip(self):
        lon = np.array([0.1, 2.0, 5.5])
        lat = np.array([-1.2, 0.0, 1.1])
        p = lonlat_to_xyz(lon, lat)
        lon2, lat2 = xyz_to_lonlat(p)
        assert np.allclose(lon, lon2)
        assert np.allclose(lat, lat2)

    def test_poles(self):
        _, lat = xyz_to_lonlat(Z)
        assert np.isclose(lat, np.pi / 2)

    def test_lon_wrapped_nonnegative(self):
        lon, _ = xyz_to_lonlat(np.array([0.0, -1.0, 0.0]))
        assert np.isclose(lon, 1.5 * np.pi)


class TestTriangleArea:
    def test_octant(self):
        # One octant of the sphere has area 4*pi/8 = pi/2.
        assert np.isclose(spherical_triangle_area(X, Y, Z), np.pi / 2)

    def test_orientation_sign(self):
        assert spherical_triangle_area(X, Y, Z) > 0
        assert np.isclose(
            spherical_triangle_area(X, Z, Y), -spherical_triangle_area(X, Y, Z)
        )

    def test_degenerate_zero(self):
        assert np.isclose(spherical_triangle_area(X, X, Y), 0.0)

    def test_cyclic_invariance(self):
        a = normalize(np.array([1.0, 0.1, 0.2]))
        b = normalize(np.array([0.1, 1.0, 0.1]))
        c = normalize(np.array([0.2, 0.3, 1.0]))
        a1 = spherical_triangle_area(a, b, c)
        a2 = spherical_triangle_area(b, c, a)
        assert np.isclose(a1, a2)

    def test_is_ccw(self):
        assert is_ccw(X, Y, Z)
        assert not is_ccw(Y, X, Z)


class TestPolygonArea:
    def test_octant_square(self):
        # A lune of width pi/2: quarter of the sphere.
        p = np.stack([X, Y, -X])
        with pytest.raises(ValueError):
            spherical_polygon_area(p[:2])

    def test_collinear_vertex_no_extra_area(self):
        # Inserting a vertex on the arc X-Y leaves the area unchanged.
        m = normalize(X + Y)
        quad = np.stack([X, m, Y, Z])
        tri = np.stack([X, Y, Z])
        assert np.isclose(
            spherical_polygon_area(quad), spherical_polygon_area(tri)
        )

    def test_orientation_sign(self):
        ring = np.stack([X, Y, Z])
        assert spherical_polygon_area(ring) > 0
        assert spherical_polygon_area(ring[::-1]) < 0

    def test_matches_triangle(self):
        ring = np.stack([X, Y, Z])
        assert np.isclose(
            spherical_polygon_area(ring), spherical_triangle_area(X, Y, Z)
        )


class TestCentroid:
    def test_symmetric_triangle(self):
        c = polygon_centroid(np.stack([X, Y, Z]))
        assert np.allclose(c, normalize(np.ones(3)), atol=1e-12)

    def test_orientation_independent(self):
        ring = np.stack([X, Y, Z])
        assert np.allclose(polygon_centroid(ring), polygon_centroid(ring[::-1]))

    def test_on_sphere(self):
        ring = np.stack([X, normalize([1, 1, 0.2]), normalize([0.8, -0.1, 0.5])])
        assert np.isclose(np.linalg.norm(polygon_centroid(ring)), 1.0)


class TestMidpointAndBasis:
    def test_midpoint(self):
        m = arc_midpoint(X, Y)
        assert np.allclose(m, normalize([1, 1, 0]))

    def test_tangent_basis_orthonormal(self):
        p = normalize(np.array([0.3, -0.5, 0.8]))
        e, n = tangent_basis(p)
        assert np.isclose(e @ n, 0.0, atol=1e-14)
        assert np.isclose(e @ p, 0.0, atol=1e-14)
        assert np.isclose(n @ p, 0.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(e), 1.0)

    def test_tangent_basis_pole(self):
        e, n = tangent_basis(Z)
        assert np.allclose(e, X)
        assert np.allclose(n, np.cross(Z, X))

    def test_east_points_east(self):
        p = lonlat_to_xyz(np.array(0.3), np.array(0.4))
        e, _ = tangent_basis(p)
        # Moving along east increases longitude.
        lon0, _ = xyz_to_lonlat(p)
        lon1, _ = xyz_to_lonlat(normalize(p + 1e-6 * e))
        assert lon1 > lon0

    def test_north_points_north(self):
        p = lonlat_to_xyz(np.array(0.3), np.array(0.4))
        _, n = tangent_basis(p)
        _, lat0 = xyz_to_lonlat(p)
        _, lat1 = xyz_to_lonlat(normalize(p + 1e-6 * n))
        assert lat1 > lat0


class TestRotation:
    def test_rotation_matrix_orthogonal(self):
        m = rotation_matrix(np.array([1.0, 2.0, 3.0]), 0.7)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(m), 1.0)

    def test_rotate_z_quarter(self):
        out = rotate(X, Z, np.pi / 2)
        assert np.allclose(out, Y, atol=1e-14)

    def test_axis_fixed(self):
        axis = normalize(np.array([0.1, 0.4, 0.9]))
        assert np.allclose(rotate(axis, axis, 1.234), axis, atol=1e-14)


class TestTangentPlane:
    def test_origin_maps_to_zero(self):
        p = normalize(np.array([0.2, 0.3, 0.9]))
        xy = tangent_plane_coords(p, p)
        assert np.allclose(xy, 0.0, atol=1e-12)

    def test_distance_preserved_radially(self):
        p = Z
        q = lonlat_to_xyz(np.array(0.0), np.array(np.pi / 2 - 0.2))
        xy = tangent_plane_coords(p, q)
        assert np.isclose(np.linalg.norm(xy), arc_length(p, q), rtol=1e-10)

    def test_batch_shape(self):
        p = Z
        pts = normalize(np.random.default_rng(0).standard_normal((10, 3)))
        assert tangent_plane_coords(p, pts).shape == (10, 2)
