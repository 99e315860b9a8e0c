"""Tests of the extension features: TC1 advection, the analytic performance
model, the CLI, and the halo-depth requirement demonstration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.swm import (
    ShallowWaterModel,
    SWConfig,
    TEST_CASES,
    cosine_bell,
    steady_zonal_flow,
    suggested_dt,
)


class TestCosineBell:
    def test_registered(self):
        assert TEST_CASES[1]().name == "cosine_bell"

    def test_positive_everywhere(self, mesh3):
        case = cosine_bell()
        h = case.thickness(mesh3.metrics.xCell)
        assert np.all(h >= 1000.0)
        assert h.max() > 1800.0  # bell peak ~ base + 1000

    def test_bell_centre(self, mesh4):
        case = cosine_bell()
        h = case.thickness(mesh4.metrics.xCell)
        c = int(np.argmax(h))
        assert abs(mesh4.metrics.lonCell[c] - 1.5 * np.pi) < 0.15
        assert abs(mesh4.metrics.latCell[c]) < 0.15

    def test_velocity_frozen_under_advection_only(self, mesh3):
        case = cosine_bell()
        dt = 0.4 * mesh3.dcEdge.min() / 40.0
        model = ShallowWaterModel(
            mesh3, SWConfig(dt=dt, advection_only=True, apvm_upwinding=0.0)
        )
        state = model.initialize(case)
        u0 = state.u.copy()
        res = model.run(steps=10)
        assert np.array_equal(res.state.u, u0)

    def test_one_revolution_returns_bell(self, mesh3):
        case = cosine_bell()
        dt = 0.4 * mesh3.dcEdge.min() / 40.0
        model = ShallowWaterModel(
            mesh3, SWConfig(dt=dt, advection_only=True, apvm_upwinding=0.0)
        )
        model.initialize(case)
        res = model.run(days=12.0)
        err = model.exact_error()
        # Second-order advection of a marginally-resolved bell on a coarse
        # 642-cell mesh: O(10%) l2 error, exact mass conservation.
        assert err.l2 < 0.15
        assert res.mass_drift() < 1e-14

    def test_advection_only_skips_momentum_terms(self, mesh3, rng):
        """tend_u is exactly zero whatever the state."""
        from repro.swm.diagnostics import compute_solve_diagnostics
        from repro.swm.state import State
        from repro.swm.tendencies import compute_tend

        cfg = SWConfig(dt=100.0, advection_only=True)
        fv = cfg.coriolis(mesh3.metrics.latVertex)
        state = State(
            h=np.abs(rng.standard_normal(mesh3.nCells)) + 100.0,
            u=rng.standard_normal(mesh3.nEdges),
        )
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg)
        _, tend_u = compute_tend(mesh3, state, diag, np.zeros(mesh3.nCells), cfg)
        assert np.all(tend_u == 0.0)


class TestPerformancePredictor:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.dataflow import build_step_graph
        from repro.hybrid.schedule import node_times
        from repro.hybrid.stepmodel import (
            _cpu_parallel_model,
            _mic_model,
            _perf_config,
        )
        from repro.machine.counts import MeshCounts

        counts = MeshCounts(nCells=655362)
        dfg = build_step_graph(_perf_config())
        times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
        return dfg, times, counts

    def test_cpu_exact(self, setup):
        from repro.hybrid import hybrid_step_time, predict_makespan

        dfg, times, counts = setup
        assert predict_makespan(dfg, times, "cpu") == pytest.approx(
            hybrid_step_time(counts, mode="cpu"), rel=1e-9
        )

    def test_kernel_within_ten_percent(self, setup):
        from repro.hybrid import hybrid_step_time, predict_makespan

        dfg, times, counts = setup
        pred = predict_makespan(dfg, times, "kernel")
        actual = hybrid_step_time(counts, mode="kernel")
        assert pred == pytest.approx(actual, rel=0.10)

    def test_pattern_optimistic_bound(self, setup):
        from repro.hybrid import hybrid_step_time, predict_makespan

        dfg, times, counts = setup
        pred = predict_makespan(dfg, times, "pattern")
        actual = hybrid_step_time(counts, mode="pattern")
        assert 0.7 * actual < pred <= actual * 1.02

    def test_unknown_mode(self, setup):
        from repro.hybrid import predict_makespan

        dfg, times, _ = setup
        with pytest.raises(ValueError):
            predict_makespan(dfg, times, "quantum")


class TestHaloDepthRequirement:
    """Why halo_layers_required says 3: depth 2 breaks bit-reproducibility
    for the APVM/high-order configuration, depth 3 restores it."""

    def _run_pair(self, mesh, halo_layers):
        from repro.parallel import DecomposedShallowWater

        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh, case, GRAVITY, cfl=0.5), thickness_adv_order=4
        )
        serial = ShallowWaterModel(mesh, cfg)
        serial.initialize(case)
        res = serial.run(steps=3)
        dec = DecomposedShallowWater(mesh, 4, case, cfg, halo_layers=halo_layers)
        dec.run(3)
        return res.state, dec.gather_state()

    def test_depth_two_insufficient_for_order4(self, mesh3):
        s, d = self._run_pair(mesh3, halo_layers=2)
        assert not np.array_equal(s.h, d.h)  # stale halo corrupts owned cells

    def test_depth_three_sufficient(self, mesh3):
        s, d = self._run_pair(mesh3, halo_layers=3)
        assert np.array_equal(s.h, d.h)
        assert np.array_equal(s.u, d.u)


class TestCLI:
    def test_parser_commands(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        for argv in (
            ["mesh", "--level", "2"],
            ["run", "--case", "2"],
            ["schedule", "--cells", "1000"],
            ["ladder"],
            ["scaling"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_schedule_command_output(self, capsys):
        from repro.__main__ import main

        main(["schedule", "--cells", "40962"])
        out = capsys.readouterr().out
        assert "pattern-driven" in out and "x)" in out

    def test_mesh_command_output(self, capsys):
        from repro.__main__ import main

        main(["mesh", "--level", "2", "--lloyd", "1"])
        out = capsys.readouterr().out
        assert "pent=12" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--case", "99"],
            ["run", "--backend", "foo"],
            ["run", "--ranks", "2"],
            ["run", "--plan", "--backend", "numpy"],
            ["report", "--backend", "foo"],
            ["report", "--ranks", "2"],
            ["report", "--compare-backends", "--case", "tc99"],
        ],
        ids=" ".join,
    )
    def test_run_rejects_unknown_case(self, argv):
        """An unknown case or contradictory flags end in a one-line
        ``SystemExit``, not a ``ValueError`` traceback."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([*argv, "--level", "2", "--steps", "1"])
        assert exc.value.code != 0


class TestConfigValidation:
    def test_dt_positive(self):
        with pytest.raises(ValueError):
            SWConfig(dt=0.0)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            SWConfig(dt=1.0, thickness_adv_order=5)

    def test_viscosity_nonnegative(self):
        with pytest.raises(ValueError):
            SWConfig(dt=1.0, viscosity=-1.0)

    def test_coriolis_profile(self):
        cfg = SWConfig(dt=1.0)
        lat = np.array([0.0, np.pi / 2, -np.pi / 2])
        f = cfg.coriolis(lat)
        assert f[0] == 0.0
        assert f[1] == pytest.approx(2.0 * cfg.omega)
        assert f[2] == pytest.approx(-2.0 * cfg.omega)


class TestStateContainers:
    def test_state_copy_independent(self, mesh3, rng):
        from repro.swm import State

        s = State(h=rng.standard_normal(mesh3.nCells), u=rng.standard_normal(mesh3.nEdges))
        c = s.copy()
        c.h += 1.0
        assert not np.array_equal(s.h, c.h)

    def test_state_shape_validation(self, mesh3):
        from repro.swm import State

        s = State(h=np.zeros(3), u=np.zeros(mesh3.nEdges))
        with pytest.raises(ValueError):
            s.validate_shapes(mesh3.nCells, mesh3.nEdges)

    def test_diagnostics_allocate_and_copy(self, mesh3):
        from repro.swm import Diagnostics

        d = Diagnostics.allocate(mesh3.nCells, mesh3.nEdges, mesh3.nVertices)
        d2 = d.copy()
        d2.ke += 1.0
        assert d.ke.max() == 0.0


class TestCLIRun:
    def test_run_command_tc2(self, capsys):
        from repro.__main__ import main

        main(["run", "--case", "2", "--days", "0.05", "--level", "2"])
        out = capsys.readouterr().out
        assert "mass drift" in out
        assert "l1/l2/linf" in out

    def test_ladder_command(self, capsys):
        from repro.__main__ import main

        main(["ladder", "--cells", "40962"])
        out = capsys.readouterr().out
        assert "Refactoring" in out and "x" in out
