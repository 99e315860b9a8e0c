"""Integration tests of the ShallowWaterModel driver (three-phase run)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.swm import (
    ShallowWaterModel,
    SWConfig,
    isolated_mountain,
    steady_zonal_flow,
    suggested_dt,
)


def _tc2_model(mesh, **cfg_kwargs):
    case = steady_zonal_flow()
    dt = suggested_dt(mesh, case, GRAVITY, cfl=0.6)
    model = ShallowWaterModel(mesh, SWConfig(dt=dt, **cfg_kwargs))
    model.initialize(case)
    return model


class TestDriver:
    def test_run_requires_initialize(self, mesh3):
        model = ShallowWaterModel(mesh3, SWConfig(dt=100.0))
        with pytest.raises(RuntimeError):
            model.run(steps=1)

    def test_steps_days_exclusive(self, mesh3):
        model = _tc2_model(mesh3)
        with pytest.raises(ValueError):
            model.run(steps=1, days=1.0)
        with pytest.raises(ValueError):
            model.run()

    def test_days_converted_to_steps(self, mesh3):
        model = _tc2_model(mesh3)
        res = model.run(days=0.5)
        assert res.steps == round(0.5 * 86400.0 / model.config.dt)
        assert res.elapsed_seconds == pytest.approx(res.steps * model.config.dt)

    def test_callback_invoked(self, mesh3):
        model = _tc2_model(mesh3)
        seen = []
        model.run(steps=3, callback=lambda step, result: seen.append(step))
        assert seen == [1, 2, 3]

    def test_invariant_history(self, mesh3):
        model = _tc2_model(mesh3)
        res = model.run(steps=4, invariant_interval=2)
        assert len(res.invariant_history) == 3  # start, step2, step4

    def test_suggested_dt_scales_with_resolution(self, mesh3, mesh4):
        case = steady_zonal_flow()
        dt3 = suggested_dt(mesh3, case, GRAVITY)
        dt4 = suggested_dt(mesh4, case, GRAVITY)
        assert dt4 < dt3
        assert 1.5 < dt3 / dt4 < 3.0  # ~2x per refinement level


class TestTC2Accuracy:
    def test_one_day_error_small(self, mesh3):
        model = _tc2_model(mesh3)
        model.run(days=1.0)
        err = model.exact_error()
        assert err.l2 < 2e-3
        assert err.linf < 5e-3

    def test_error_converges_with_resolution(self, mesh3, mesh4):
        """One day of TC2 on icos-3 and icos-4, on the per-op path and on the
        compiled plan the workloads run: the order gate of
        ``benchmarks/test_convergence.py``, in tier 1."""
        for config in ({}, {"backend": "sparse", "plan": True}):
            l2 = []
            for mesh in (mesh3, mesh4):
                model = _tc2_model(mesh, **config)
                model.run(days=1.0)
                l2.append(model.exact_error().l2)
            assert l2[1] < 0.7 * l2[0], config
            assert 0.5 < np.log2(l2[0] / l2[1]) < 2.5, config

    def test_mass_energy_conservation(self, mesh3):
        model = _tc2_model(mesh3)
        res = model.run(days=2.0, invariant_interval=10)
        assert res.mass_drift() < 1e-13
        assert res.energy_drift() < 1e-6

    def test_exact_error_requires_exact_solution(self, mesh3):
        case = isolated_mountain()
        dt = suggested_dt(mesh3, case, GRAVITY, cfl=0.6)
        model = ShallowWaterModel(mesh3, SWConfig(dt=dt))
        model.initialize(case)
        model.run(steps=1)
        with pytest.raises(ValueError):
            model.exact_error()


class TestTC5Run:
    def test_two_days_stable(self, mesh3):
        case = isolated_mountain()
        dt = suggested_dt(mesh3, case, GRAVITY, cfl=0.6)
        model = ShallowWaterModel(mesh3, SWConfig(dt=dt))
        model.initialize(case)
        res = model.run(days=2.0, invariant_interval=20)
        assert np.all(res.state.h > 0)
        assert res.mass_drift() < 1e-13
        total = model.total_height()
        # The free surface stays within a sane range of its initial span.
        assert 5000.0 < total.max() < 6500.0

    def test_reconstruction_available_after_run(self, mesh3):
        case = isolated_mountain()
        dt = suggested_dt(mesh3, case, GRAVITY, cfl=0.6)
        model = ShallowWaterModel(mesh3, SWConfig(dt=dt))
        model.initialize(case)
        res = model.run(steps=2)
        assert res.reconstruction is not None
        # Zonal wind stays within the same order as the 20 m/s background.
        assert np.abs(res.reconstruction.uReconstructZonal).max() < 100.0


class TestConfigVariants:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_thickness_orders_run(self, mesh3, order):
        model = _tc2_model(mesh3, thickness_adv_order=order)
        res = model.run(steps=3)
        assert np.all(np.isfinite(res.state.h))

    def test_apvm_off_runs(self, mesh3):
        model = _tc2_model(mesh3, apvm_upwinding=0.0)
        res = model.run(steps=3)
        assert np.all(np.isfinite(res.state.u))

    def test_viscosity_damps_noise(self, mesh3, rng):
        """del2 dissipation reduces the growth of grid-scale noise."""
        noise = rng.standard_normal(mesh3.nEdges)
        results = {}
        for nu in (0.0, 5e4):
            case = steady_zonal_flow()
            dt = suggested_dt(mesh3, case, GRAVITY, cfl=0.5)
            model = ShallowWaterModel(mesh3, SWConfig(dt=dt, viscosity=nu))
            state = model.initialize(case)
            state.u += 0.5 * noise  # same noise realization for both
            model.diagnostics = model.integrator.diagnostics_for(state)
            model.run(steps=8)
            results[nu] = model.exact_error().l2
        assert results[5e4] < results[0.0]
