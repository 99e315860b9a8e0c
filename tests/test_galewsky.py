"""Tests of the Galewsky et al. (2004) barotropic-instability case."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY, OMEGA
from repro.swm import (
    ShallowWaterModel,
    SWConfig,
    error_norms,
    galewsky_jet,
    suggested_dt,
)
from repro.swm.galewsky import PHI0, PHI1, U_MAX, _balanced_depth_table, _jet_profile


class TestJetProfile:
    def test_confined_to_band(self):
        lat = np.linspace(-np.pi / 2, np.pi / 2, 1001)
        u = _jet_profile(lat)
        assert np.all(u[lat <= PHI0] == 0.0)
        assert np.all(u[lat >= PHI1] == 0.0)
        assert np.all(u >= 0.0)

    def test_peak_at_jet_centre(self):
        lat = np.linspace(PHI0, PHI1, 2001)[1:-1]
        u = _jet_profile(lat)
        peak_lat = lat[np.argmax(u)]
        assert abs(peak_lat - 0.5 * (PHI0 + PHI1)) < 0.01
        assert np.max(u) == pytest.approx(U_MAX, rel=1e-6)

    def test_smooth_at_edges(self):
        # The exponential profile vanishes with all derivatives at the band
        # edges: values just inside are tiny.
        eps = 1e-4
        assert _jet_profile(np.array([PHI0 + eps]))[0] < 1e-100
        assert _jet_profile(np.array([PHI1 - eps]))[0] < 1e-100


class TestBalancedDepth:
    def test_global_mean_is_ten_km(self):
        lat, h = _balanced_depth_table(6.371e6, OMEGA, GRAVITY)
        mean = np.sum(h * np.cos(lat)) / np.sum(np.cos(lat))
        assert mean == pytest.approx(10_000.0, rel=1e-10)

    def test_depth_drops_across_jet(self):
        """Geostrophy: eastward NH jet => h decreases northward across it."""
        lat, h = _balanced_depth_table(6.371e6, OMEGA, GRAVITY)
        south = h[np.searchsorted(lat, PHI0 - 0.05)]
        north = h[np.searchsorted(lat, PHI1 + 0.05)]
        assert north < south - 500.0

    def test_table_is_memoized_and_read_only(self):
        """``galewsky_jet`` builds share one table, which nobody may edit."""
        first = _balanced_depth_table(6.371e6, OMEGA, GRAVITY)
        assert _balanced_depth_table(6.371e6, OMEGA, GRAVITY) is first
        assert not any(a.flags.writeable for a in first)

    def test_flat_outside_jet(self):
        lat, h = _balanced_depth_table(6.371e6, OMEGA, GRAVITY)
        southern = h[lat < -0.5]
        assert southern.max() - southern.min() < 1e-6


class TestDynamics:
    def test_balanced_jet_steady(self, mesh4):
        case = galewsky_jet(perturbed=False)
        dt = suggested_dt(mesh4, case, GRAVITY, cfl=0.5)
        model = ShallowWaterModel(mesh4, SWConfig(dt=dt))
        model.initialize(case)
        res = model.run(days=2.0, invariant_interval=20)
        # The sharp jet is marginally resolved at 480 km; the balanced state
        # still holds to ~0.2% over 2 days, with exact mass conservation.
        assert model.exact_error().l2 < 5e-3
        assert res.mass_drift() < 1e-13

    def test_perturbation_grows(self, mesh4):
        case_p = galewsky_jet(perturbed=True)
        case_b = galewsky_jet(perturbed=False)
        dt = suggested_dt(mesh4, case_p, GRAVITY, cfl=0.5)
        p = ShallowWaterModel(mesh4, SWConfig(dt=dt))
        p.initialize(case_p)
        b = ShallowWaterModel(mesh4, SWConfig(dt=dt))
        b.initialize(case_b)
        d0 = error_norms(mesh4, p.state.h, b.state.h).l2
        assert d0 > 0.0  # the bump is present
        p.run(days=4.0)
        b.run(days=4.0)
        d4 = error_norms(mesh4, p.state.h, b.state.h).l2
        # Barotropic instability: the perturbation amplifies.
        assert d4 > 1.2 * d0

    def test_perturbation_localized(self, mesh4):
        hp = galewsky_jet(True).thickness(mesh4.metrics.xCell)
        hb = galewsky_jet(False).thickness(mesh4.metrics.xCell)
        bump = hp - hb
        assert bump.max() > 50.0
        # Centre near (lon=0, lat=pi/4).
        c = int(np.argmax(bump))
        lon = mesh4.metrics.lonCell[c]
        lon = lon - 2 * np.pi if lon > np.pi else lon
        assert abs(lon) < 0.2
        assert abs(mesh4.metrics.latCell[c] - np.pi / 4) < 0.15
        # Far field unperturbed.
        far = np.abs(mesh4.metrics.lonCell - np.pi) < 0.5
        assert np.abs(bump[far]).max() < 1.0

    def test_exactness_flags(self):
        assert galewsky_jet(True).exact_thickness is None
        assert galewsky_jet(False).exact_thickness is not None
