"""Unit + integration tests of the distributed substrate (Figs. 8, 9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.parallel import (
    DecomposedShallowWater,
    build_local_mesh,
    halo_layers_required,
    parallel_efficiency,
    partition_cells,
    partition_quality,
    strong_scaling,
    weak_scaling,
)
from repro.swm import (
    ShallowWaterModel,
    SWConfig,
    isolated_mountain,
    steady_zonal_flow,
    suggested_dt,
)


class TestPartition:
    def test_single_part(self, mesh3):
        owner = partition_cells(mesh3, 1)
        assert np.all(owner == 0)

    @pytest.mark.parametrize("n_parts", [2, 4, 7])
    def test_kmeans_covers_and_balances(self, mesh3, n_parts):
        owner = partition_cells(mesh3, n_parts)
        q = partition_quality(mesh3, owner)
        assert q.n_parts == n_parts
        assert q.min_size > 0
        assert q.imbalance < 1.5
        assert q.cut_fraction < 0.5

    def test_contiguous_exact_balance(self, mesh3):
        owner = partition_cells(mesh3, 4, method="contiguous")
        sizes = np.bincount(owner)
        assert sizes.max() - sizes.min() <= 1

    def test_invalid_args(self, mesh3):
        with pytest.raises(ValueError):
            partition_cells(mesh3, 0)
        with pytest.raises(ValueError):
            partition_cells(mesh3, mesh3.nCells + 1)
        with pytest.raises(ValueError):
            partition_cells(mesh3, 2, method="magic")

    def test_deterministic(self, mesh3):
        a = partition_cells(mesh3, 4)
        b = partition_cells(mesh3, 4)
        assert np.array_equal(a, b)


class TestLocalMesh:
    def test_halo_layers_required(self):
        assert halo_layers_required(2, apvm=False) == 2
        assert halo_layers_required(2, apvm=True) == 3
        assert halo_layers_required(4, apvm=False) == 3

    def test_structure(self, mesh3):
        owner = partition_cells(mesh3, 4)
        lm = build_local_mesh(mesh3, owner, rank=0, halo_layers=3)
        assert lm.n_owned_cells == np.count_nonzero(owner == 0)
        assert lm.nCells > lm.n_owned_cells
        assert lm.maxEdges == mesh3.maxEdges
        # Owned points come first and are sorted by global id.
        owned = lm.cells_global[: lm.n_owned_cells]
        assert np.array_equal(owned, np.sort(owned))

    def test_owned_metric_slices_bitwise(self, mesh3):
        owner = partition_cells(mesh3, 4)
        lm = build_local_mesh(mesh3, owner, rank=1, halo_layers=3)
        g = lm.cells_global
        assert np.array_equal(lm.metrics.areaCell, mesh3.metrics.areaCell[g])
        ge = lm.edges_global
        assert np.array_equal(lm.metrics.dvEdge, mesh3.metrics.dvEdge[ge])
        assert np.array_equal(lm.trisk.weightsOnEdge, mesh3.trisk.weightsOnEdge[ge])

    def test_owned_connectivity_consistent(self, mesh3):
        """Owned cells' local rows map back to the global rows exactly."""
        owner = partition_cells(mesh3, 4)
        lm = build_local_mesh(mesh3, owner, rank=2, halo_layers=3)
        conn, gconn = lm.connectivity, mesh3.connectivity
        for lc in range(0, lm.n_owned_cells, 7):
            gc = lm.cells_global[lc]
            n = int(conn.nEdgesOnCell[lc])
            assert n == int(gconn.nEdgesOnCell[gc])
            for j in range(n):
                assert lm.edges_global[conn.edgesOnCell[lc, j]] == gconn.edgesOnCell[gc, j]
                assert (
                    lm.vertices_global[conn.verticesOnCell[lc, j]]
                    == gconn.verticesOnCell[gc, j]
                )

    def test_every_rank_covers_mesh_once(self, mesh3):
        owner = partition_cells(mesh3, 4)
        seen = np.zeros(mesh3.nCells, dtype=int)
        seen_e = np.zeros(mesh3.nEdges, dtype=int)
        for r in range(4):
            lm = build_local_mesh(mesh3, owner, r, halo_layers=2)
            seen[lm.cells_global[: lm.n_owned_cells]] += 1
            seen_e[lm.edges_global[: lm.n_owned_edges]] += 1
        assert np.all(seen == 1)
        assert np.all(seen_e == 1)

    def test_empty_rank_rejected(self, mesh3):
        owner = np.zeros(mesh3.nCells, dtype=np.int64)
        with pytest.raises(ValueError):
            build_local_mesh(mesh3, owner, rank=1)


class TestDecomposedRuns:
    """Pinned to the static schedule, the oracle the dataflow default is
    derived against; tests/test_halo_schedule.py runs lockstep under dataflow."""

    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_bitwise_equal_tc2(self, mesh3, n_ranks):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_schedule="static"
        )
        serial = ShallowWaterModel(mesh3, cfg)
        serial.initialize(case)
        res = serial.run(steps=5)

        dec = DecomposedShallowWater(mesh3, n_ranks, case, cfg)
        dec.run(5)
        gathered = dec.gather_state()
        assert np.array_equal(gathered.h, res.state.h)
        assert np.array_equal(gathered.u, res.state.u)

    def test_bitwise_equal_tc5_high_order(self, mesh3):
        case = isolated_mountain()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5), thickness_adv_order=4,
            halo_schedule="static",
        )
        serial = ShallowWaterModel(mesh3, cfg)
        serial.initialize(case)
        res = serial.run(steps=4)

        dec = DecomposedShallowWater(mesh3, 4, case, cfg)
        dec.run(4)
        gathered = dec.gather_state()
        assert np.array_equal(gathered.h, res.state.h)
        assert np.array_equal(gathered.u, res.state.u)

    def test_exchange_count(self, mesh3):
        case = steady_zonal_flow()
        dt = suggested_dt(mesh3, case, GRAVITY, cfl=0.6)
        # Figure 2's two exchanges per substage (pre-tend + post-update); the
        # default schedule proves the four pre-tend ones clean and elides them.
        for halo_schedule, per_step in (("static", 8), ("dataflow", 4)):
            cfg = SWConfig(dt=dt, halo_schedule=halo_schedule)
            dec = DecomposedShallowWater(mesh3, 2, case, cfg)
            dec.step()
            assert dec.exchange_count == per_step
        assert SWConfig.halo_schedule == "dataflow"

    def test_contiguous_partition_also_bitwise(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        serial = ShallowWaterModel(mesh3, cfg)
        serial.initialize(case)
        res = serial.run(steps=3)
        dec = DecomposedShallowWater(
            mesh3, 4, case, cfg, partition_method="contiguous"
        )
        dec.run(3)
        gathered = dec.gather_state()
        assert np.array_equal(gathered.h, res.state.h)


class TestScalingModels:
    def test_strong_scaling_series(self):
        series = strong_scaling(655362, (1, 4, 16, 64))
        assert [pt.n_procs for pt in series] == [1, 4, 16, 64]
        times = [pt.hybrid_time for pt in series]
        assert times == sorted(times, reverse=True)  # more procs, less time

    def test_hybrid_beats_cpu_at_every_scale(self):
        for pt in strong_scaling(2621442, (1, 8, 64)):
            assert pt.hybrid_time < pt.cpu_time

    def test_small_mesh_efficiency_collapse(self):
        series = strong_scaling(655362, (1, 16, 64))
        eff = parallel_efficiency(series, "hybrid")
        assert eff[0] == pytest.approx(1.0)
        assert eff[-1] < eff[1]

    def test_large_mesh_scales_better(self):
        small = parallel_efficiency(strong_scaling(655362, (1, 64)), "hybrid")[-1]
        large = parallel_efficiency(strong_scaling(2621442, (1, 64)), "hybrid")[-1]
        assert large > small

    def test_weak_scaling_flat(self):
        series = weak_scaling(40962, (1, 4, 16, 64))
        times = [pt.hybrid_time for pt in series]
        assert max(times) / min(times) < 1.15
        cpu_times = [pt.cpu_time for pt in series]
        assert max(cpu_times) / min(cpu_times) < 1.15
