"""Unit tests of diagnostics, tendencies, boundary and time stepping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY, OMEGA
from repro.swm import (
    RK_ACCUMULATE_WEIGHTS,
    RK_SUBSTEP_WEIGHTS,
    RK4Integrator,
    SWConfig,
    State,
    compute_solve_diagnostics,
    compute_tend,
    enforce_boundary_edge,
    initialize,
    steady_zonal_flow,
    suggested_dt,
)
from tests.oracles.mesh import boundary_edge_mask


@pytest.fixture(scope="module")
def tc2_setup(mesh3):
    case = steady_zonal_flow()
    state, b = initialize(mesh3, case)
    cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY))
    f_vertex = cfg.coriolis(mesh3.metrics.latVertex)
    return case, state, b, cfg, f_vertex


class TestDiagnostics:
    def test_shapes(self, mesh3, tc2_setup):
        _, state, _, cfg, fv = tc2_setup
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg)
        assert diag.h_edge.shape == (mesh3.nEdges,)
        assert diag.ke.shape == (mesh3.nCells,)
        assert diag.vorticity.shape == (mesh3.nVertices,)
        assert diag.pv_edge.shape == (mesh3.nEdges,)

    def test_h_vertex_positive(self, mesh3, tc2_setup):
        _, state, _, cfg, fv = tc2_setup
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg)
        assert np.all(diag.h_vertex > 0)

    def test_nonpositive_h_raises(self, mesh3, tc2_setup):
        _, state, _, cfg, fv = tc2_setup
        bad = State(h=-np.abs(state.h), u=state.u)
        with pytest.raises(FloatingPointError):
            compute_solve_diagnostics(mesh3, bad, fv, cfg)

    def test_tc2_vorticity_matches_analytic(self, mesh4):
        """TC2 relative vorticity: curl of u0*cos(lat)*east = 2 u0 sin(lat)/R."""
        case = steady_zonal_flow()
        state, _ = initialize(mesh4, case)
        cfg = SWConfig(dt=100.0)
        fv = cfg.coriolis(mesh4.metrics.latVertex)
        diag = compute_solve_diagnostics(mesh4, state, fv, cfg)
        u0 = 2.0 * np.pi * mesh4.radius / (12.0 * 86400.0)
        analytic = 2.0 * u0 * np.sin(mesh4.metrics.latVertex) / mesh4.radius
        err = np.abs(diag.vorticity - analytic).max() / np.abs(analytic).max()
        assert err < 0.05

    def test_tc2_pv_matches_analytic(self, mesh4):
        case = steady_zonal_flow()
        state, _ = initialize(mesh4, case)
        cfg = SWConfig(dt=100.0)
        fv = cfg.coriolis(mesh4.metrics.latVertex)
        diag = compute_solve_diagnostics(mesh4, state, fv, cfg)
        u0 = 2.0 * np.pi * mesh4.radius / (12.0 * 86400.0)
        lat = mesh4.metrics.latVertex
        h = case.thickness(mesh4.metrics.xVertex)
        analytic = (2.0 * OMEGA * np.sin(lat) + 2.0 * u0 * np.sin(lat) / mesh4.radius) / h
        err = np.abs(diag.pv_vertex - analytic).max() / np.abs(analytic).max()
        assert err < 0.05

    def test_apvm_off_gives_plain_average(self, mesh3, tc2_setup):
        _, state, _, _, fv = tc2_setup
        cfg0 = SWConfig(dt=100.0, apvm_upwinding=0.0)
        diag0 = compute_solve_diagnostics(mesh3, state, fv, cfg0)
        v = mesh3.connectivity.verticesOnEdge
        expected = 0.5 * (diag0.pv_vertex[v[:, 0]] + diag0.pv_vertex[v[:, 1]])
        np.testing.assert_allclose(diag0.pv_edge, expected, rtol=1e-13)

    def test_apvm_changes_pv_edge(self, mesh3, tc2_setup):
        _, state, _, _, fv = tc2_setup
        d_on = compute_solve_diagnostics(mesh3, state, fv, SWConfig(dt=1000.0))
        d_off = compute_solve_diagnostics(
            mesh3, state, fv, SWConfig(dt=1000.0, apvm_upwinding=0.0)
        )
        # The upwinding correction is a small but strictly nonzero shift.
        diff = np.abs(d_on.pv_edge - d_off.pv_edge).max()
        assert diff > 0.0
        assert diff < 0.1 * np.abs(d_off.pv_edge).max()


class TestTendencies:
    def test_steady_state_small_tendencies(self, mesh4):
        """TC2 is steady: discrete tendencies are pure truncation error."""
        case = steady_zonal_flow()
        state, b = initialize(mesh4, case)
        cfg = SWConfig(dt=100.0)
        fv = cfg.coriolis(mesh4.metrics.latVertex)
        diag = compute_solve_diagnostics(mesh4, state, fv, cfg)
        tend_h, tend_u = compute_tend(mesh4, state, diag, b, cfg)
        # Scale: the advective time scale u0 ~ 38 m/s, h ~ 3000 m: raw
        # nonlinear terms are O(u*h/dx) ~ 1e-1; the steady state cancels
        # them to O(truncation).
        assert np.abs(tend_h).max() < 2e-3 * np.abs(state.h).max() / 1e3
        assert np.abs(tend_u).max() < 1e-4 * np.abs(state.u).max()

    def test_rest_state_stays_at_rest(self, mesh3):
        """Flat surface at rest: all tendencies vanish identically."""
        cfg = SWConfig(dt=100.0)
        fv = cfg.coriolis(mesh3.metrics.latVertex)
        state = State(h=np.full(mesh3.nCells, 1000.0), u=np.zeros(mesh3.nEdges))
        b = np.zeros(mesh3.nCells)
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg)
        tend_h, tend_u = compute_tend(mesh3, state, diag, b, cfg)
        assert np.abs(tend_h).max() == 0.0
        assert np.abs(tend_u).max() < 1e-16

    def test_lake_at_rest_with_topography(self, mesh3):
        """h + b = const at rest: the pressure gradient must cancel b."""
        cfg = SWConfig(dt=100.0)
        fv = cfg.coriolis(mesh3.metrics.latVertex)
        b = 500.0 * (1.0 + mesh3.metrics.xCell[:, 2])
        state = State(h=3000.0 - b, u=np.zeros(mesh3.nEdges))
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg)
        tend_h, tend_u = compute_tend(mesh3, state, diag, b, cfg)
        assert np.abs(tend_h).max() == 0.0
        assert np.abs(tend_u).max() < 1e-10

    def test_viscosity_adds_dissipation(self, mesh3, tc2_setup):
        _, state, b, _, fv = tc2_setup
        cfg0 = SWConfig(dt=100.0, viscosity=0.0)
        cfg1 = SWConfig(dt=100.0, viscosity=1e5)
        diag = compute_solve_diagnostics(mesh3, state, fv, cfg0)
        _, tu0 = compute_tend(mesh3, state, diag, b, cfg0)
        _, tu1 = compute_tend(mesh3, state, diag, b, cfg1)
        assert not np.allclose(tu0, tu1)

    def test_mass_tendency_integral_zero(self, mesh3, tc2_setup, rng):
        _, state, b, cfg, fv = tc2_setup
        noisy = State(h=state.h, u=state.u + rng.standard_normal(mesh3.nEdges))
        diag = compute_solve_diagnostics(mesh3, noisy, fv, cfg)
        tend_h, _ = compute_tend(mesh3, noisy, diag, b, cfg)
        total = np.sum(tend_h * mesh3.areaCell)
        scale = np.sum(np.abs(tend_h) * mesh3.areaCell)
        assert abs(total) < 1e-12 * max(scale, 1e-30)


class TestBoundary:
    def test_sphere_has_no_boundary(self, mesh3):
        assert not boundary_edge_mask(mesh3).any()

    def test_masked_edges_zeroed(self, mesh3, edge_field):
        cell_mask = mesh3.metrics.latCell > 0.3
        mask = boundary_edge_mask(mesh3, cell_mask)
        assert mask.any()
        tend = edge_field.copy()
        enforce_boundary_edge(tend, mask)
        assert np.all(tend[mask] == 0.0)
        assert np.array_equal(tend[~mask], edge_field[~mask])

    def test_noop_without_mask(self, mesh3, edge_field):
        tend = edge_field.copy()
        enforce_boundary_edge(tend, np.zeros(mesh3.nEdges, dtype=bool))
        assert np.array_equal(tend, edge_field)


class TestRK4:
    def test_weights(self):
        assert sum(RK_ACCUMULATE_WEIGHTS) == pytest.approx(1.0)
        assert RK_SUBSTEP_WEIGHTS == (0.5, 0.5, 1.0)

    def test_step_conserves_mass_exactly(self, mesh3, tc2_setup):
        _, state, b, cfg, fv = tc2_setup
        integ = RK4Integrator(mesh3, cfg, b, fv)
        diag = integ.diagnostics_for(state)
        result = integ.step(state, diag)
        m0 = np.sum(state.h * mesh3.areaCell)
        m1 = np.sum(result.state.h * mesh3.areaCell)
        assert abs(m1 - m0) / m0 < 1e-14

    def test_step_returns_fresh_state(self, mesh3, tc2_setup):
        _, state, b, cfg, fv = tc2_setup
        integ = RK4Integrator(mesh3, cfg, b, fv)
        diag = integ.diagnostics_for(state)
        before = state.h.copy()
        result = integ.step(state, diag)
        assert np.array_equal(state.h, before)  # input untouched
        assert result.state.h is not state.h

    @pytest.mark.parametrize(
        "parallel", ["serial", "lockstep", "pool", "lockstep-static", "pool-static"]
    )
    def test_step_contract_under_an_instrumented_registry(
        self, mesh3, tmp_path, monkeypatch, parallel
    ):
        """What ``rk4_step`` promises on every executor, watched through an
        instrumented ``compute_tend`` (the way the benchmark probe wraps the
        kernels): its inputs stay bitwise, its state and diagnostics are
        fresh arrays the next step leaves alone, and substeps 2-4 read the
        same provisional arrays from step to step (the plan's buffers).
        ``-static`` runs the static halo schedule, whose ``pre@s1`` refresh
        writes the state stage 1 reads.  Each process appends its verdicts to one file, so forked pool ranks
        report too."""
        import os
        from collections import Counter

        import repro.engine
        import repro.parallel.pool
        import repro.parallel.runner
        import repro.swm.model
        from repro.api import resolve_case, run
        from repro.engine.backends import build_default_registry
        from repro.swm import timestep

        log = tmp_path / "verdicts"
        registry = build_default_registry()
        real_tend, real_kernel = registry.kernel("compute_tend"), registry.kernel
        received = []  # every (state, diag) compute_tend got, kept alive

        def tend(mesh, state, diag, *rest):
            received.append((state, diag))
            return real_tend(mesh, state, diag, *rest)

        registry.kernel = lambda name: tend if name == "compute_tend" else real_kernel(name)
        monkeypatch.setattr(repro.engine, "default_registry", lambda: registry)

        def arrays(*fields):
            return [a for f in fields for a in vars(f).values()]

        def same(xs, ys):
            return all(np.array_equal(x, y) for x, y in zip(xs, ys))

        last = {}

        def note(ok, what):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {'ok' if ok else 'FAIL'} {what}\n")

        def checked(ranks, states, diags, *args, **kwargs):
            inputs = arrays(*states, *diags)
            before = [a.copy() for a in inputs]
            first = len(received)
            locked = [a for a in inputs if a.flags.writeable]
            for a in locked:  # a write into an input raises, same value or not
                a.flags.writeable = False
            try:
                out = timestep.rk4_step(ranks, states, diags, *args, **kwargs)
            finally:
                for a in locked:
                    a.flags.writeable = True
            provisional = arrays(*(f for call in received[first + len(ranks):] for f in call))
            results = arrays(*out[0], *out[1])
            note(same(inputs, before), "inputs")
            note(not any(np.shares_memory(r, x) for r in results
                         for x in inputs + provisional), "fresh")
            if last:
                note(same(*last["results"]), "untouched")
                note(all(x is y for x, y in zip(provisional, last["provisional"])),
                     "reused")
            last.update(results=(results, [r.copy() for r in results]),
                        provisional=provisional)
            return out

        for module in (repro.swm.model, repro.parallel.runner, repro.parallel.pool):
            monkeypatch.setattr(module, "rk4_step", checked)
        case = resolve_case("galewsky")
        parallel, _, schedule = parallel.partition("-")
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY), backend="sparse",
                       plan=True, parallel=parallel, ranks=1 if parallel == "serial" else 2,
                       halo_schedule=schedule or "dataflow")
        run(case, mesh=mesh3, config=cfg, steps=3)
        verdicts = [line.split() for line in log.read_text().splitlines()]
        assert [v for v in verdicts if v[1] != "ok"] == []
        processes = 2 if parallel == "pool" else 1
        assert Counter(v[2] for v in verdicts) == {
            "inputs": 3 * processes, "fresh": 3 * processes,
            "untouched": 2 * processes, "reused": 2 * processes,
        }
        assert len({v[0] for v in verdicts}) == processes

    def test_convergence_in_dt(self, mesh3):
        """RK-4: halving dt leaves the 1-step-vs-2-half-steps gap ~ dt^5."""
        case = steady_zonal_flow()
        state, b = initialize(mesh3, case)

        def advance(dt, n):
            cfg = SWConfig(dt=dt, apvm_upwinding=0.0)
            fv = cfg.coriolis(mesh3.metrics.latVertex)
            integ = RK4Integrator(mesh3, cfg, b, fv)
            s, d = state, integ.diagnostics_for(state)
            for _ in range(n):
                r = integ.step(s, d)
                s, d = r.state, r.diagnostics
            return s

        dt = 400.0
        coarse = advance(dt, 1)
        fine = advance(dt / 2, 2)
        finer = advance(dt / 4, 4)
        e1 = np.abs(coarse.u - fine.u).max()
        e2 = np.abs(fine.u - finer.u).max()
        # Order-4 method: error ratio ~ 2^4 = 16 (allow slack for round-off).
        assert e1 / max(e2, 1e-30) > 8.0

    def test_bad_shapes_rejected(self, mesh3, tc2_setup):
        _, state, b, cfg, fv = tc2_setup
        with pytest.raises(ValueError):
            RK4Integrator(mesh3, cfg, b[:-1], fv)
        with pytest.raises(ValueError):
            RK4Integrator(mesh3, cfg, b, fv[:-1])

    def test_boundary_mask_applied(self, mesh3, tc2_setup):
        _, state, b, cfg, fv = tc2_setup
        mask = np.zeros(mesh3.nEdges, dtype=bool)
        mask[:50] = True
        integ = RK4Integrator(mesh3, cfg, b, fv, boundary_mask=mask)
        diag = integ.diagnostics_for(state)
        result = integ.step(state, diag)
        np.testing.assert_array_equal(result.state.u[:50], state.u[:50])
