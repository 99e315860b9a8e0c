"""Unit tests of the Mesh container: build, validate, save/load, cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import (
    CACHE_FORMAT_VERSION,
    MESH_FAMILY,
    Mesh,
    MeshFormatError,
    assess_quality,
    cached_mesh,
    clear_memory_cache,
    mesh_cache_path,
)
from tests.oracles.mesh import mesh_family_counts


class TestBuild:
    def test_build_level2(self):
        mesh = Mesh.build(2, lloyd_iterations=2)
        mesh.validate()
        assert mesh.nCells == 162

    def test_build_without_lloyd(self):
        mesh = Mesh.build(2, lloyd_iterations=0)
        mesh.validate()
        assert mesh.info["lloyd_iterations"] == 0

    def test_info_populated(self):
        mesh = Mesh.build(2, lloyd_iterations=1)
        assert mesh.info["level"] == 2
        assert mesh.info["nominal_resolution_km"] > 0

    def test_from_points_custom(self, rng):
        from repro.geometry import lloyd_relax, normalize

        # Raw random points are too distorted for a C-grid (inverted kites);
        # a few Lloyd sweeps produce a usable SCVT, which is the documented
        # requirement of from_points.
        pts = lloyd_relax(
            normalize(rng.standard_normal((80, 3))), iterations=30
        ).points
        mesh = Mesh.from_points(pts, name="random80")
        mesh.validate()
        assert mesh.nCells == 80
        assert mesh.name == "random80"

    def test_from_points_rejects_distorted(self, rng):
        from repro.geometry import normalize

        pts = normalize(rng.standard_normal((80, 3)))
        with pytest.raises(ValueError):
            Mesh.from_points(pts)

    def test_nominal_resolution(self, mesh3):
        # 642 cells on Earth: sqrt(4*pi*R^2/642) ~ 890 km.
        assert 800 < mesh3.nominal_resolution_km < 1000


class TestValidate:
    def test_validate_passes(self, mesh3):
        mesh3.validate()

    def test_validate_catches_broken_area(self, mesh3):
        import dataclasses

        bad_metrics = dataclasses.replace(
            mesh3.metrics, areaCell=mesh3.metrics.areaCell * 1.5
        )
        bad = Mesh(
            connectivity=mesh3.connectivity,
            metrics=bad_metrics,
            trisk=mesh3.trisk,
        )
        with pytest.raises(ValueError, match="areaCell"):
            bad.validate()


class TestSaveLoad:
    def test_roundtrip(self, mesh3, tmp_path):
        path = tmp_path / "mesh.npz"
        mesh3.save(path)
        loaded = Mesh.load(path)
        loaded.validate()
        assert loaded.nCells == mesh3.nCells
        assert np.array_equal(loaded.connectivity.edgesOnCell, mesh3.connectivity.edgesOnCell)
        assert np.array_equal(loaded.trisk.weightsOnEdge, mesh3.trisk.weightsOnEdge)
        assert np.array_equal(loaded.metrics.areaCell, mesh3.metrics.areaCell)

    def test_loaded_mesh_runs_model(self, mesh3, tmp_path):
        from repro.swm import ShallowWaterModel, SWConfig, steady_zonal_flow, suggested_dt

        path = tmp_path / "mesh.npz"
        mesh3.save(path)
        loaded = Mesh.load(path)
        case = steady_zonal_flow()
        dt = suggested_dt(loaded, case, 9.80616)
        model = ShallowWaterModel(loaded, SWConfig(dt=dt))
        model.initialize(case)
        model.run(steps=2)


class TestCache:
    def test_memory_cache_identity(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        a = cached_mesh(2, lloyd_iterations=1)
        b = cached_mesh(2, lloyd_iterations=1)
        assert a is b
        clear_memory_cache()

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        a = cached_mesh(2, lloyd_iterations=1)
        clear_memory_cache()
        b = cached_mesh(2, lloyd_iterations=1)  # from disk this time
        assert a is not b
        assert np.array_equal(a.metrics.areaCell, b.metrics.areaCell)
        clear_memory_cache()

    def test_radius_collision_regression(self, tmp_path, monkeypatch):
        """Radii differing by less than 0.5 m must not share a cache file.

        The filename used to key the radius on ``f"{radius:.0f}"``, so two
        sub-metre-distinct radii collided onto one archive and the second
        ``cached_mesh`` call silently returned the first radius's mesh.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        r1 = 6_371_220.0
        r2 = r1 + 0.25  # would format to the same "6371220" under :.0f
        assert mesh_cache_path(2, 0, r1) != mesh_cache_path(2, 0, r2)
        a = cached_mesh(2, lloyd_iterations=0, radius=r1)
        b = cached_mesh(2, lloyd_iterations=0, radius=r2)
        assert a.radius == r1 and b.radius == r2
        clear_memory_cache()
        # Reload both from disk: each must come back with its own radius.
        assert cached_mesh(2, lloyd_iterations=0, radius=r1).radius == r1
        assert cached_mesh(2, lloyd_iterations=0, radius=r2).radius == r2
        clear_memory_cache()

    def test_version_stamp_regression(self, tmp_path, monkeypatch):
        """Unstamped or wrongly-stamped archives are rebuilt, never loaded.

        Pre-versioning cache files carried no ``format_version``; a layout
        refactor then loaded them blindly (crash on a missing field at
        best, silently wrong numerics at worst).
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        good = cached_mesh(2, lloyd_iterations=0)
        path = mesh_cache_path(2, 0)
        assert path.exists()
        with np.load(path) as d:
            assert int(d["format_version"]) == CACHE_FORMAT_VERSION
            fields = dict(d)

        # An unstamped (pre-versioning) archive: Mesh.load must refuse it...
        del fields["format_version"]
        np.savez_compressed(path, **fields)
        with pytest.raises(MeshFormatError, match="no mesh format-version"):
            Mesh.load(path)
        # ...and cached_mesh must rebuild + restamp instead of loading.
        clear_memory_cache()
        rebuilt = cached_mesh(2, lloyd_iterations=0)
        assert np.array_equal(rebuilt.metrics.areaCell, good.metrics.areaCell)
        with np.load(path) as d:
            assert int(d["format_version"]) == CACHE_FORMAT_VERSION

        # A future/foreign stamp is refused just the same.
        fields["format_version"] = np.array(CACHE_FORMAT_VERSION + 1)
        np.savez_compressed(path, **fields)
        with pytest.raises(MeshFormatError, match="format version"):
            Mesh.load(path)
        clear_memory_cache()
        cached_mesh(2, lloyd_iterations=0)
        with np.load(path) as d:
            assert int(d["format_version"]) == CACHE_FORMAT_VERSION
        clear_memory_cache()

    def test_use_disk_false_never_shares_disk_meshes(self, tmp_path, monkeypatch):
        """``use_disk=False`` must bypass the disk cache *and* its memoizations.

        The memory cache used to be keyed without ``use_disk``, so a
        disk-loaded mesh could be handed to a caller that explicitly asked
        to bypass the disk cache.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        disk = cached_mesh(2, lloyd_iterations=0, use_disk=True)
        nodisk = cached_mesh(2, lloyd_iterations=0, use_disk=False)
        assert disk is not nodisk
        assert disk.info.get("disk_cached") is True
        assert "disk_cached" not in nodisk.info
        # Each flavour memoizes under its own key.
        assert cached_mesh(2, lloyd_iterations=0, use_disk=True) is disk
        assert cached_mesh(2, lloyd_iterations=0, use_disk=False) is nodisk
        # A pure use_disk=False session writes nothing to disk.
        clear_memory_cache()
        path = mesh_cache_path(2, 0)
        path.unlink()
        cached_mesh(2, lloyd_iterations=0, use_disk=False)
        assert not path.exists()
        clear_memory_cache()


class TestFamily:
    def test_table3_counts(self):
        counts = mesh_family_counts()
        assert counts["120km"] == 40962
        assert counts["60km"] == 163842
        assert counts["30km"] == 655362
        assert counts["15km"] == 2621442

    def test_family_levels(self):
        assert MESH_FAMILY["120km"] == 6
        assert MESH_FAMILY["15km"] == 9


class TestQuality:
    def test_quality_fields(self, mesh3):
        q = assess_quality(mesh3)
        assert q.n_cells == 642
        assert q.n_pentagons == 12
        assert q.n_hexagons == 630
        assert q.n_other == 0
        assert 1.0 <= q.area_ratio < 2.0
        assert q.centroidality < 1e-2
        assert "pent=12" in q.summary()

    def test_quality_skip_centroidality(self, mesh3):
        q = assess_quality(mesh3, compute_centroidality=False)
        assert np.isnan(q.centroidality)
