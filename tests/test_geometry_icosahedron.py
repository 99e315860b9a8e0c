"""Unit tests of the icosahedral geodesic point generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
    base_icosahedron,
    icosahedral_count,
    icosahedral_points,
    resolution_km,
)
from repro.geometry.sphere import spherical_triangle_area
from tests.oracles.mesh import subdivision_level_for


class TestBaseIcosahedron:
    def test_counts(self):
        verts, faces = base_icosahedron()
        assert verts.shape == (12, 3)
        assert faces.shape == (20, 3)

    def test_unit_vertices(self):
        verts, _ = base_icosahedron()
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)

    def test_faces_ccw_outward(self):
        verts, faces = base_icosahedron()
        areas = spherical_triangle_area(
            verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        )
        assert np.all(areas > 0)

    def test_faces_cover_sphere(self):
        verts, faces = base_icosahedron()
        total = np.sum(
            spherical_triangle_area(
                verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
            )
        )
        assert np.isclose(total, 4.0 * np.pi)

    def test_edge_lengths_equal(self):
        verts, faces = base_icosahedron()
        from repro.geometry import arc_length

        lengths = []
        for a, b, c in faces:
            lengths += [
                arc_length(verts[a], verts[b]),
                arc_length(verts[b], verts[c]),
                arc_length(verts[c], verts[a]),
            ]
        assert np.allclose(lengths, lengths[0])


class TestCounts:
    @pytest.mark.parametrize("level,expected", [(0, 12), (1, 42), (2, 162), (3, 642), (6, 40962), (9, 2621442)])
    def test_icosahedral_count(self, level, expected):
        assert icosahedral_count(level) == expected

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            icosahedral_count(-1)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_inverse(self, level):
        assert subdivision_level_for(icosahedral_count(level)) == level

    def test_inverse_rejects_non_geodesic(self):
        with pytest.raises(ValueError):
            subdivision_level_for(1000)

    def test_table3_resolutions(self):
        # Table III naming: sqrt(mean cell area) matches the paper's labels.
        assert 100 < resolution_km(6) < 130  # "120-km"
        assert 50 < resolution_km(7) < 65  # "60-km"
        assert 25 < resolution_km(8) < 33  # "30-km"
        assert 12 < resolution_km(9) < 17  # "15-km"


class TestPoints:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_count_and_norm(self, level):
        pts = icosahedral_points(level)
        assert pts.shape == (icosahedral_count(level), 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_no_duplicates(self):
        pts = icosahedral_points(3)
        from scipy.spatial import cKDTree

        assert len(cKDTree(pts).query_pairs(1e-9)) == 0

    def test_deterministic(self):
        assert np.array_equal(icosahedral_points(2), icosahedral_points(2))

    def test_original_vertices_first(self):
        verts, _ = base_icosahedron()
        pts = icosahedral_points(2)
        assert np.allclose(pts[:12], verts)

    def test_quasi_uniform_spacing(self):
        pts = icosahedral_points(3)
        from scipy.spatial import cKDTree

        d, _ = cKDTree(pts).query(pts, k=2)
        nearest = d[:, 1]
        assert nearest.max() / nearest.min() < 1.5
