"""The sparse backend: compiled CSR operators, the operator cache, pool.

Contracts pinned here:

* classification — every registry op is compilable (``matvec``/``pre``/
  ``bilinear``) and registered, so no sparse or plan run ever touches the
  counted ``numpy`` fallback;
* the two-level operator cache — memory memoization returns the same CSR
  instance, disk archives round-trip, version/fingerprint mismatches
  recompile (and restamp) instead of loading, and meshes without a
  persistent disk identity never write operator files;
* decomposition stability — each compiled row sums in lane order, so owned
  rows of a rank-local mesh are bitwise identical to the global rows (a row
  cut of every pattern is an oracle in test_compile_oracles.py);
* the acceptance run — a 10-step Galewsky integration under ``sparse``
  agrees with ``numpy`` to <= 1e-12 serially.  (The 4-rank pool leg lives
  in test_public_api.py's bitwise pool test, now parametrized over
  ``sparse``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import default_registry, dispatch
from repro.engine.sparse import (
    OPERATOR_CACHE_VERSION,
    classify_op,
    clear_operator_memory_cache,
    mesh_fingerprint,
    operator_cache_path,
    sparse_operator,
)
from repro.obs.metrics import MetricsRegistry, use_registry

# (op, input point kinds) for every sparse-registered op.
_SPARSE_OPS = [
    ("flux_divergence", ("edge", "edge")),
    ("kinetic_energy", ("edge",)),
    ("cell_divergence", ("edge",)),
    ("velocity_reconstruction", ("edge",)),
    ("coriolis_edge_term", ("edge", "edge", "edge")),
    ("tangential_velocity", ("edge",)),
    ("cell_to_edge_mean", ("cell",)),
    ("vertex_from_cells_kite", ("cell",)),
    ("cell_from_vertices_kite", ("vertex",)),
    ("vertex_to_edge_mean", ("vertex",)),
    ("vertex_curl", ("edge",)),
    ("edge_gradient_of_cell", ("cell",)),
    ("edge_gradient_of_vertex", ("vertex",)),
    ("d2fdx2", ("cell",)),
]


def _fields(mesh, kinds, rng):
    n = {"cell": mesh.nCells, "edge": mesh.nEdges, "vertex": mesh.nVertices}
    return tuple(rng.standard_normal(n[kind]) for kind in kinds)


@pytest.fixture()
def op_cache(tmp_path, monkeypatch):
    """Redirect the operator disk cache and clear memory around each test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_operator_memory_cache()
    yield tmp_path
    clear_operator_memory_cache()


class TestClassification:
    def test_every_op_classified(self):
        reg = default_registry()
        for op in reg.ops():
            assert classify_op(op) in ("matvec", "pre", "bilinear")

    def test_classification_matches_registrations(self):
        reg = default_registry()
        assert reg.ops("sparse") == reg.ops()
        assert sorted(op for op, _ in _SPARSE_OPS) == reg.ops()

    def test_bilinear_ops_are_pre(self):
        assert classify_op("flux_divergence") == "pre"
        assert classify_op("kinetic_energy") == "pre"
        assert classify_op("cell_divergence") == "matvec"
        assert classify_op("coriolis_edge_term") == "bilinear"

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError, match="classification"):
            classify_op("no_such_op")


class TestNoFallback:
    def test_coriolis_runs_on_the_trisk_operator(self, mesh3, rng):
        """B1 is two matvecs of the compiled TRiSK stencil, never numpy."""
        u, h, pv = _fields(mesh3, ("edge", "edge", "edge"), rng)
        metrics = MetricsRegistry()
        with use_registry(metrics):
            got = dispatch(
                "coriolis_edge_term", mesh3, u, h, pv, backend="sparse"
            )
        K = sparse_operator(mesh3, "tangential_velocity")
        flux = u * h
        assert np.array_equal(got, 0.5 * (pv * (K @ flux) + K @ (flux * pv)))
        want = dispatch("coriolis_edge_term", mesh3, u, h, pv, backend="numpy")
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        (timer,) = metrics.series("engine.op")
        assert timer.tags["backend"] == "sparse"

    @pytest.mark.parametrize("plan", [False, True], ids=["unfused", "plan"])
    def test_galewsky_run_never_falls_back(self, mesh3, plan):
        from repro import api

        case = api.resolve_case("galewsky")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.5)
        metrics = MetricsRegistry()
        with use_registry(metrics):
            api.run(
                case, mesh=mesh3,
                config=api.SWConfig(dt=dt, backend="sparse", plan=plan), steps=3,
            )
        assert {s.tags["backend"] for s in metrics.series("engine.op")} <= {"sparse"}


class TestOperatorCache:
    def test_memory_memoization_returns_same_instance(self, mesh3, op_cache):
        a = sparse_operator(mesh3, "cell_divergence")
        b = sparse_operator(mesh3, "cell_divergence")
        assert a is b

    def test_disk_roundtrip(self, mesh3, op_cache):
        a = sparse_operator(mesh3, "cell_divergence", use_disk=True)
        path = operator_cache_path(mesh3, "cell_divergence")
        assert path.exists()
        clear_operator_memory_cache()
        b = sparse_operator(mesh3, "cell_divergence", use_disk=True)
        assert a is not b
        # Loaded archives preserve the exact storage (lane) order, not just
        # the matrix values — the order is the bitwise contract.
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_version_mismatch_recompiles_and_restamps(self, mesh3, op_cache):
        a = sparse_operator(mesh3, "vertex_curl", use_disk=True)
        path = operator_cache_path(mesh3, "vertex_curl")
        stale = dict(np.load(path))
        stale["format_version"] = np.array(OPERATOR_CACHE_VERSION + 1)
        np.savez_compressed(path, **stale)
        clear_operator_memory_cache()
        b = sparse_operator(mesh3, "vertex_curl", use_disk=True)
        assert np.array_equal(a.data, b.data)
        with np.load(path) as d:
            assert int(d["format_version"]) == OPERATOR_CACHE_VERSION

    def test_unstamped_archive_recompiles(self, mesh3, op_cache):
        sparse_operator(mesh3, "vertex_curl", use_disk=True)
        path = operator_cache_path(mesh3, "vertex_curl")
        stale = dict(np.load(path))
        del stale["format_version"]
        np.savez_compressed(path, **stale)
        clear_operator_memory_cache()
        sparse_operator(mesh3, "vertex_curl", use_disk=True)
        with np.load(path) as d:
            assert int(d["format_version"]) == OPERATOR_CACHE_VERSION

    def test_fingerprint_mismatch_recompiles(self, mesh3, op_cache):
        sparse_operator(mesh3, "cell_divergence", use_disk=True)
        path = operator_cache_path(mesh3, "cell_divergence")
        stale = dict(np.load(path))
        stale["fingerprint"] = np.array("deadbeef")
        stale["data"] = np.zeros_like(stale["data"])  # poison the payload
        np.savez_compressed(path, **stale)
        clear_operator_memory_cache()
        m = sparse_operator(mesh3, "cell_divergence", use_disk=True)
        assert np.any(m.data != 0.0)  # recompiled, not the poisoned load

    def test_rank_local_meshes_stay_memory_only(self, mesh3, op_cache):
        """A rank's operator is its parent's, restricted in memory: the one
        archive a rank's dispatch leaves is the parent mesh's own."""
        from repro.parallel.halo import build_local_mesh
        from repro.parallel.partition import partition_cells

        owner = partition_cells(mesh3, 2)
        lm = build_local_mesh(mesh3, owner, 0, halo_layers=2)
        rng = np.random.default_rng(0)
        dispatch("cell_divergence", lm, rng.standard_normal(lm.nEdges),
                 backend="sparse")
        assert list((op_cache / "operators").glob("*.npz")) == [
            operator_cache_path(mesh3, "cell_divergence")
        ]

    def test_disk_policy_follows_mesh_identity(self, op_cache):
        from repro.mesh import cached_mesh, clear_memory_cache

        clear_memory_cache()
        nodisk = cached_mesh(2, lloyd_iterations=0, use_disk=False)
        sparse_operator(nodisk, "vertex_curl")
        assert not list((op_cache / "operators").glob("*.npz"))
        disk = cached_mesh(2, lloyd_iterations=0, use_disk=True)
        sparse_operator(disk, "vertex_curl")
        assert operator_cache_path(disk, "vertex_curl").exists()
        clear_memory_cache()

    def test_fingerprint_is_content_keyed(self, mesh3, mesh4):
        assert mesh_fingerprint(mesh3) != mesh_fingerprint(mesh4)
        assert mesh_fingerprint(mesh3) == mesh_fingerprint(mesh3)


class TestDecompositionStability:
    @pytest.mark.parametrize(
        "op,kinds", _SPARSE_OPS, ids=[o for o, _ in _SPARSE_OPS]
    )
    def test_owned_rows_bitwise_on_local_mesh(self, mesh3, rng, op, kinds):
        """A rank's operator keeps the global rows whose stencil it holds
        (every owned row among them), lane order included: their outputs
        are bitwise the global ones."""
        from repro.parallel.halo import build_local_mesh
        from repro.parallel.partition import partition_cells

        owner = partition_cells(mesh3, 4)
        lm = build_local_mesh(mesh3, owner, 0, halo_layers=2)
        gmaps = {
            "cell": lm.cells_global,
            "edge": lm.edges_global,
            "vertex": lm.vertices_global,
        }
        fields = _fields(mesh3, kinds, rng)
        local_fields = tuple(
            f[gmaps[k]] for f, k in zip(fields, kinds)
        )
        g = dispatch(op, mesh3, *fields, backend="sparse")
        l = dispatch(op, lm, *local_fields, backend="sparse")
        if op == "d2fdx2":
            # The fused C1,C2 sweep returns the two per-*edge* derivative
            # arrays (its C-kind metadata names the gathered cell points).
            out_kind = "edge"
        else:
            entry = default_registry().op(op)
            out_kind = str(entry.output_point.name).lower()
        n_owned = {
            "cell": lm.n_owned_cells,
            "edge": lm.n_owned_edges,
            "vertex": lm.n_owned_vertices,
        }[out_kind]
        gmap = gmaps[out_kind]
        matrix_op = default_registry().op(op).resolve("sparse").matrix_op
        whole, mine = (sparse_operator(m, matrix_op) for m in (mesh3, lm))
        # A held row lost no lane to the restriction; a point is held when
        # all its block rows are.
        rows_held = np.diff(mine.indptr) == np.diff(whole.indptr)[
            lm.rows(np.arange(whole.shape[0]))
        ]
        held = rows_held.reshape(gmap.size, -1).all(axis=1)
        assert held[:n_owned].all() and held.sum() > n_owned
        g_arrays = g if isinstance(g, tuple) else (g,)
        l_arrays = l if isinstance(l, tuple) else (l,)
        for ga, la in zip(g_arrays, l_arrays):
            la = np.asarray(la).reshape(gmap.size, -1)
            ga = np.asarray(ga).reshape(-1, la.shape[1])[gmap]
            assert np.array_equal(ga[held], la[held])


class TestAcceptanceRun:
    """10 Galewsky RK steps: sparse vs numpy <= 1e-12."""

    @pytest.fixture(scope="class")
    def galewsky_states(self, mesh3):
        from repro import api

        case = api.resolve_case("galewsky")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.5)
        out = {}
        for backend in ("numpy", "sparse"):
            result = api.run(
                case, mesh=mesh3,
                config=api.SWConfig(dt=dt, backend=backend), steps=10,
            )
            out[backend] = (result.state.h, result.state.u)
        return out

    def test_serial_agrees_with_numpy(self, galewsky_states):
        h_ref, u_ref = galewsky_states["numpy"]
        h, u = galewsky_states["sparse"]
        assert np.max(np.abs(h - h_ref)) / np.max(np.abs(h_ref)) <= 1e-12
        assert np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref)) <= 1e-12
