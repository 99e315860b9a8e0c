"""Unit tests of the Williamson test cases and error norms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY, OMEGA
from repro.swm import (
    TEST_CASES,
    error_norms,
    initialize,
    isolated_mountain,
    rossby_haurwitz,
    steady_zonal_flow,
)
from repro.swm.scenarios import known_names, resolve


class TestRegistry:
    def test_numbers(self):
        assert set(TEST_CASES) == {1, 2, 5, 6}
        for number, factory in TEST_CASES.items():
            assert factory().number == number


class TestTC2:
    def test_exact_solution_is_initial(self, mesh3):
        case = steady_zonal_flow()
        pts = mesh3.metrics.xCell
        np.testing.assert_array_equal(case.thickness(pts), case.exact_thickness(pts))

    def test_geostrophic_balance_pointwise(self, mesh3):
        """gh = gh0 - (R*Omega*u0 + u0^2/2) sin^2(lat)."""
        case = steady_zonal_flow()
        pts = mesh3.metrics.xCell
        h = case.thickness(pts)
        lat = mesh3.metrics.latCell
        u0 = 2.0 * np.pi * mesh3.radius / (12.0 * 86400.0)
        expected = (2.94e4 - (mesh3.radius * OMEGA * u0 + 0.5 * u0**2) * np.sin(lat) ** 2) / GRAVITY
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_velocity_zonal(self, mesh3):
        case = steady_zonal_flow()
        vel = case.velocity(mesh3.metrics.xEdge)
        assert np.allclose(vel[:, 2], 0.0)  # no vertical/meridional-z part
        speed = np.linalg.norm(vel, axis=1)
        u0 = 2.0 * np.pi * mesh3.radius / (12.0 * 86400.0)
        np.testing.assert_allclose(
            speed, u0 * np.cos(mesh3.metrics.latEdge), rtol=1e-10
        )

    def test_no_topography(self, mesh3):
        assert np.all(steady_zonal_flow().topography(mesh3.metrics.xCell) == 0.0)


class TestTC5:
    def test_mountain_height_and_extent(self, mesh4):
        case = isolated_mountain()
        b = case.topography(mesh4.metrics.xCell)
        assert 1800.0 < b.max() <= 2000.0  # 2000 m peak (mesh sampling)
        assert b.min() == 0.0
        # The mountain covers a small fraction of the sphere.
        covered = np.sum(mesh4.areaCell[b > 0]) / mesh4.sphere_area
        assert 0.005 < covered < 0.1

    def test_mountain_centre(self, mesh4):
        case = isolated_mountain()
        b = case.topography(mesh4.metrics.xCell)
        c = np.argmax(b)
        lon, lat = mesh4.metrics.lonCell[c], mesh4.metrics.latCell[c]
        assert abs(lon - 1.5 * np.pi) < 0.1
        assert abs(lat - np.pi / 6.0) < 0.1

    def test_total_surface_smooth(self, mesh4):
        """h + b is the smooth geostrophic surface (no mountain imprint)."""
        case = isolated_mountain()
        pts = mesh4.metrics.xCell
        surface = case.thickness(pts) + case.topography(pts)
        lat = mesh4.metrics.latCell
        u0 = 20.0
        expected = (
            GRAVITY * 5960.0 - (mesh4.radius * OMEGA * u0 + 0.5 * u0**2) * np.sin(lat) ** 2
        ) / GRAVITY
        np.testing.assert_allclose(surface, expected, rtol=1e-12)

    def test_no_exact_solution(self):
        assert isolated_mountain().exact_thickness is None


class TestTC6:
    def test_wavenumber_four(self, mesh4):
        """The thickness field has zonal wavenumber 4 structure."""
        case = rossby_haurwitz()
        h = case.thickness(mesh4.metrics.xCell)
        lat = mesh4.metrics.latCell
        lon = mesh4.metrics.lonCell
        band = np.abs(lat) < 0.2
        # Correlate the equatorial-band anomaly with cos(4*lon).
        anom = h[band] - np.mean(h[band])
        corr = np.corrcoef(anom, np.cos(4.0 * lon[band]))[0, 1]
        # The band also carries the cos(8*lon) C-term, so the correlation
        # with the pure wavenumber-4 signal is high but not 1.
        assert corr > 0.85

    def test_thickness_positive(self, mesh3):
        case = rossby_haurwitz()
        assert np.all(case.thickness(mesh3.metrics.xCell) > 0)

    def test_velocity_tangent(self, mesh3):
        case = rossby_haurwitz()
        pts = mesh3.metrics.xEdge
        vel = case.velocity(pts)
        radial = np.abs(np.sum(vel * pts, axis=1))
        assert radial.max() < 1e-9 * np.linalg.norm(vel, axis=1).max()


class TestInitialize:
    @pytest.mark.parametrize("number", [2, 5, 6])
    def test_shapes(self, mesh3, number):
        state, b = initialize(mesh3, TEST_CASES[number]())
        assert state.h.shape == (mesh3.nCells,)
        assert state.u.shape == (mesh3.nEdges,)
        assert b.shape == (mesh3.nCells,)
        assert np.all(state.h > 0)


class TestErrorNorms:
    def test_zero_error(self, mesh3, cell_field):
        ref = np.abs(cell_field) + 1.0
        norms = error_norms(mesh3, ref, ref)
        assert norms.l1 == norms.l2 == norms.linf == 0.0

    def test_scaling(self, mesh3):
        ref = np.full(mesh3.nCells, 10.0)
        norms = error_norms(mesh3, ref + 1.0, ref)
        assert norms.l1 == pytest.approx(0.1)
        assert norms.l2 == pytest.approx(0.1)
        assert norms.linf == pytest.approx(0.1)

    def test_linf_dominates(self, mesh3, rng):
        ref = np.full(mesh3.nCells, 5.0)
        field = ref + rng.standard_normal(mesh3.nCells) * 0.01
        norms = error_norms(mesh3, field, ref)
        assert norms.linf >= norms.l2 >= norms.l1 > 0


def _discretized(mesh, case):
    """The discretization ``initialize`` memoizes, computed afresh."""
    met = mesh.metrics
    u = np.sum(case.velocity(met.xEdge) * met.edgeNormal, axis=1)
    return case.thickness(met.xCell), u, case.topography(met.xCell)


@pytest.fixture()
def ic_memo(monkeypatch):
    """An empty initial-condition memo for the test."""
    import weakref

    from repro.swm import testcases

    memo = weakref.WeakKeyDictionary()
    monkeypatch.setattr(testcases, "_IC_MEMO", memo)
    return memo


def _counting_case(base, calls):
    """A hand-built case over ``base`` that counts its thickness samples."""
    import dataclasses

    def thickness(points):
        calls.append(1)
        return base.thickness(points)

    return dataclasses.replace(base, thickness=thickness)


class TestInitialConditionMemo:
    """``initialize`` discretizes a ``(mesh, case)`` once; every call gets
    fresh, writable copies of what it keeps read only."""

    @pytest.mark.parametrize(
        "token", sorted(known_names()) + ["perturbed:galewsky:3:7"]
    )
    def test_every_case_discretizes_bitwise_equal_twice(self, mesh3, ic_memo, token):
        case = resolve(token)
        assert resolve(token) is case
        miss = initialize(mesh3, case)
        assert case in ic_memo[mesh3]
        hit = initialize(mesh3, resolve(token))
        for want, got_miss, got_hit in zip(
            _discretized(mesh3, case), (miss[0].h, miss[0].u, miss[1]),
            (hit[0].h, hit[0].u, hit[1]),
        ):
            assert np.array_equal(got_miss, want) and np.array_equal(got_hit, want)

    def test_a_hit_samples_nothing(self, mesh3, ic_memo):
        calls = []
        case = _counting_case(steady_zonal_flow(), calls)
        initialize(mesh3, case)
        initialize(mesh3, case)
        assert calls == [1]

    def test_returned_arrays_are_fresh_and_writable(self, mesh3, ic_memo):
        case = isolated_mountain()
        state, b = initialize(mesh3, case)
        kept = ic_memo[mesh3][case]
        for got, memo in zip((state.h, state.u, b), kept):
            assert got.flags.writeable and not memo.flags.writeable
            assert not np.shares_memory(got, memo)
            got[:] = -1.0
        again, b_again = initialize(mesh3, case)
        want = _discretized(mesh3, case)
        for got, expected in zip((again.h, again.u, b_again), want):
            assert np.array_equal(got, expected)
        for memo, expected in zip(kept, want):
            assert np.array_equal(memo, expected)

    def test_a_hand_built_case_reusing_a_catalogue_name_gets_its_own_ic(
        self, mesh3, ic_memo
    ):
        import dataclasses

        base = resolve("tc2")
        deeper = dataclasses.replace(base, thickness=lambda p: 2.0 * base.thickness(p))
        assert deeper.name == base.name
        h_base = initialize(mesh3, base)[0].h
        h_deeper = initialize(mesh3, deeper)[0].h
        assert np.array_equal(h_deeper, 2.0 * h_base)
        assert np.array_equal(initialize(mesh3, base)[0].h, h_base)

    def test_the_memo_keeps_no_mesh_alive(self, ic_memo):
        import gc
        import weakref

        from repro.geometry import icosahedral_points
        from repro.mesh import Mesh

        mesh = Mesh.from_points(icosahedral_points(1), name="ic-memo-icos1")
        initialize(mesh, steady_zonal_flow())
        assert len(ic_memo) == 1
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None and len(ic_memo) == 0

    def test_the_memo_is_bounded(self, mesh3, ic_memo):
        from repro.swm.testcases import IC_MEMO_SIZE

        calls = []
        cases = [_counting_case(steady_zonal_flow(), calls) for _ in range(IC_MEMO_SIZE + 2)]
        for case in cases:
            initialize(mesh3, case)
        assert len(ic_memo[mesh3]) == IC_MEMO_SIZE and len(calls) == len(cases)
        initialize(mesh3, cases[-1])  # the most recent is kept ...
        assert len(calls) == len(cases)
        initialize(mesh3, cases[0])  # ... the oldest was dropped
        assert len(calls) == len(cases) + 1
        assert len(ic_memo[mesh3]) == IC_MEMO_SIZE

    def test_an_ic_whose_diagnostics_fail_raises_before_step_1(
        self, mesh3, ic_memo, monkeypatch
    ):
        import dataclasses

        from repro import api
        from repro.swm import model

        steps = []

        def counted(*args, **kwargs):
            steps.append(1)
            return rk4_step(*args, **kwargs)

        rk4_step = model.rk4_step
        monkeypatch.setattr(model, "rk4_step", counted)
        dry = dataclasses.replace(
            steady_zonal_flow(), thickness=lambda p: np.zeros(len(p))
        )
        for plan in (False, True):
            cfg = api.SWConfig(dt=100.0, backend="sparse", plan=plan)
            with pytest.raises(FloatingPointError, match="h_vertex"):
                api.run(dry, mesh=mesh3, config=cfg, steps=2)
        assert steps == []
