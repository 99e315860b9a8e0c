"""The public API surface (repro.api / repro) — stability and behaviour.

Two kinds of guarantees:

* **Surface**: ``repro.api.__all__`` and ``repro.__all__`` are snapshotted
  here.  Adding names requires updating the snapshot (deliberate);
  removing or renaming breaks these tests (the point).  Every exported
  name must be importable and documented.
* **Behaviour**: ``run()`` dispatches on ``SWConfig.parallel`` and all
  three executors produce bitwise-identical prognostic state — checked
  here on the Galewsky jet at 4 ranks for both the numpy and sparse
  backends, per the reproduction's headline contract.
* **Validation**: ``SWConfig.validate()`` rejects inconsistent
  configurations at construction with actionable messages.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api

# ----------------------------------------------------------------- surface
API_SURFACE = {
    "SWConfig",
    "ExecutionPlan",
    "compiled_plan",
    "TestCase",
    "RunResult",
    "State",
    "Mesh",
    "Invariants",
    "ErrorNorms",
    "error_norms",
    "suggested_dt",
    "build_mesh",
    "resolve_case",
    "run",
    # The job-oriented surface (PR 9): requests, ensembles, the job queue.
    "RunRequest",
    "run_ensemble",
    "EnsembleResult",
    "JobHandle",
    "submit",
    "status",
    "result",
}

PACKAGE_SURFACE = {
    "RunResult",
    "SWConfig",
    "TestCase",
    "build_mesh",
    "resolve_case",
    "run",
    "suggested_dt",
    "__version__",
}


class TestSurface:
    def test_api_all_snapshot(self):
        assert set(api.__all__) == API_SURFACE

    def test_package_all_snapshot(self):
        assert set(repro.__all__) == PACKAGE_SURFACE

    @pytest.mark.parametrize("name", sorted(API_SURFACE))
    def test_api_names_importable_and_documented(self, name):
        obj = getattr(api, name)
        assert obj is not None
        if callable(obj):
            assert obj.__doc__, f"api.{name} has no docstring"

    def test_package_reexports_are_the_api_objects(self):
        for name in PACKAGE_SURFACE - {"__version__"}:
            assert getattr(repro, name) is getattr(api, name)


class TestResolveCase:
    def test_names_and_numbers_agree(self):
        assert api.resolve_case("tc2").number == api.resolve_case(2).number == 2
        assert api.resolve_case("steady_zonal_flow").name == "steady_zonal_flow"
        assert api.resolve_case("TC5").number == 5

    def test_galewsky_variants(self):
        assert api.resolve_case("galewsky").name == "galewsky_jet"
        assert api.resolve_case("galewsky_balanced").name == "galewsky_jet_balanced"

    def test_case_passes_through(self):
        case = api.resolve_case("tc6")
        assert api.resolve_case(case) is case

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="known names"):
            api.resolve_case("tc99")
        with pytest.raises(ValueError, match="known numbers"):
            api.resolve_case(99)


class TestRunDispatch:
    def test_default_config_follows_the_catalogue(self):
        """Regression: the default config ignored the registry's
        ``advection_only``, so ``run("tc1")`` moved the cosine bell's wind;
        the request, the ensemble and both CLIs share one default now."""
        from repro.swm.scenarios import default_config

        request = api.RunRequest(case="tc1", level=2, steps=1).normalize()
        assert request.config.advection_only
        assert request.config == default_config(
            request.mesh, api.resolve_case("tc1")
        )
        assert not default_config(request.mesh, api.resolve_case("tc2")).advection_only
        from repro.swm.testcases import initialize

        u0 = initialize(request.mesh, api.resolve_case("tc1"))[0].u
        assert np.array_equal(api.run("tc1", level=2, steps=2).state.u, u0)

    def test_requires_exactly_one_of_steps_days(self, mesh3):
        cfg = api.SWConfig(dt=600.0)
        with pytest.raises(ValueError, match="steps/days"):
            api.run("tc2", mesh=mesh3, config=cfg)
        with pytest.raises(ValueError, match="steps/days"):
            api.run("tc2", mesh=mesh3, config=cfg, steps=1, days=1.0)

    @pytest.mark.parametrize("backend", ["numpy", "sparse"])
    def test_galewsky_pool_bitwise_equals_serial(self, mesh3, backend):
        """The headline contract: 10 steps, 4 ranks, owned state bitwise."""
        case = api.resolve_case("galewsky")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.5)
        serial = api.run(
            case, mesh=mesh3, config=api.SWConfig(dt=dt, backend=backend), steps=10
        )
        pooled = api.run(
            case,
            mesh=mesh3,
            config=api.SWConfig(dt=dt, backend=backend, parallel="pool", ranks=4),
            steps=10,
        )
        assert np.array_equal(pooled.state.h, serial.state.h)
        assert np.array_equal(pooled.state.u, serial.state.u)

    def test_lockstep_mode_dispatches_and_matches(self, mesh3):
        case = api.resolve_case("tc2")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.6)
        serial = api.run(case, mesh=mesh3, config=api.SWConfig(dt=dt), steps=3)
        lock = api.run(
            case,
            mesh=mesh3,
            config=api.SWConfig(dt=dt, parallel="lockstep", ranks=3),
            steps=3,
        )
        assert np.array_equal(lock.state.h, serial.state.h)
        assert isinstance(lock, api.RunResult)


DECOMPOSED = [("lockstep", 2), ("pool", 2)]


class TestOneRunLoop:
    """What the "serial only" rejections used to hide: invariant records,
    callbacks and guards run in the one loop, on the gathered state, so a
    decomposed run reports exactly what the serial run reports."""

    STEPS = 4

    @staticmethod
    def _cfg(mesh, cfl=0.5, **overrides):
        case = api.resolve_case("galewsky")
        return api.SWConfig(
            dt=api.suggested_dt(mesh, case, 9.80616, cfl=cfl), **overrides
        )

    def _observed_run(self, mesh, **overrides):
        seen = []

        def callback(step, result):
            seen.append((step, result.state.h.copy(), result.state.u.copy(),
                         result.reconstruction.uReconstructZonal.copy()))

        result = api.run(
            "galewsky", mesh=mesh, config=self._cfg(mesh, **overrides),
            steps=self.STEPS, invariant_interval=2, callback=callback,
        )
        return result, seen

    @pytest.fixture(scope="class")
    def serial(self, mesh3):
        return self._observed_run(mesh3)

    @pytest.mark.parametrize("parallel,ranks", DECOMPOSED)
    def test_invariants_and_callback_equal_serial(self, mesh3, serial, parallel, ranks):
        want, want_seen = serial
        got, seen = self._observed_run(mesh3, parallel=parallel, ranks=ranks)
        assert len(got.invariant_history) == 3  # steps 0, 2, 4
        assert got.invariant_history == want.invariant_history  # bitwise
        assert [s[0] for s in seen] == [s[0] for s in want_seen] == [1, 2, 3, 4]
        for (_, *fields), (_, *want_fields) in zip(seen, want_seen):
            assert all(np.array_equal(a, b) for a, b in zip(fields, want_fields))
        assert np.array_equal(got.state.h, want.state.h)

    @pytest.mark.parametrize("parallel,ranks", DECOMPOSED)
    def test_halting_guard_reports_like_serial(self, mesh3, parallel, ranks):
        from repro.resilience.guards import NumericalBlowup

        guards = dict(guard_interval=1, guard_cfl_max=0.01)
        with pytest.raises(NumericalBlowup) as serial:
            api.run("galewsky", mesh=mesh3, config=self._cfg(mesh3, **guards), steps=2)
        with pytest.raises(NumericalBlowup) as got:
            api.run(
                "galewsky", mesh=mesh3, steps=2,
                config=self._cfg(mesh3, parallel=parallel, ranks=ranks, **guards),
            )
        assert got.value.report == serial.value.report
        assert got.value.report.guard == "cfl" and got.value.report.step == 1

    @pytest.mark.parametrize("parallel,ranks", [("serial", 1), *DECOMPOSED])
    def test_non_finite_state_halts_on_the_finite_guard(self, mesh3, parallel, ranks):
        """Regression: the lockstep gather filled with NaN to detect gaps in
        the ownership, so a NaN in the state died as an ``AssertionError``
        instead of reaching the watchdog."""
        from repro.resilience.guards import NumericalBlowup
        from repro.swm.model import ShallowWaterModel

        config = self._cfg(mesh3, guard_interval=1, parallel=parallel, ranks=ranks)
        with ShallowWaterModel(mesh3, config) as model:
            model.initialize(api.resolve_case("galewsky"))
            state = model.state
            state.h[5] = np.nan
            model.state = state
            with pytest.raises(NumericalBlowup) as exc, np.errstate(all="ignore"):
                model.run(steps=1)
        assert exc.value.report.guard == "finite"

    ROLLBACK_KNOBS = dict(
        cfl=0.8, guard_interval=1, guard_cfl_max=0.7,
        guard_policy="rollback", checkpoint_interval=2,
    )

    #: What trips the rollback, and the guard that reports it: dt just above
    #: the CFL ceiling (an end-of-step guard), or dt at CFL 4, which fails
    #: inside the RK stages before any end-of-step guard (on a pool: inside
    #: a worker).
    TRIGGERS = {
        "cfl_guard": (ROLLBACK_KNOBS, "cfl"),
        "failed_step": (
            dict(cfl=4.0, guard_interval=1, guard_policy="rollback",
                 checkpoint_interval=2),
            "instability",
        ),
    }

    def _rolled_back(self, mesh, trigger, **mode):
        """One rollback, dt halved, then the run completes.  Returns the
        result; the caller's config is intact."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        knobs, guard = self.TRIGGERS[trigger]
        config = self._cfg(mesh, **knobs, **mode)
        dt = config.dt
        metrics = MetricsRegistry()
        with use_registry(metrics), np.errstate(all="ignore"):
            result = api.run(
                "galewsky", mesh=mesh, config=config, steps=self.STEPS,
                invariant_interval=1,
            )
        (rollback,) = metrics.series("resilience.checkpoint.rollback")
        assert rollback.value == 1  # rolled back exactly once
        (violation,) = metrics.series("resilience.guard.violation")
        assert violation.tags["guard"] == guard
        assert config.dt == dt  # on the model's copy, not the caller's
        return result

    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    @pytest.mark.parametrize("parallel,ranks", DECOMPOSED)
    def test_decomposed_rollback_equals_serial_rollback(
        self, mesh3, parallel, ranks, trigger
    ):
        """The same trajectory on two ranks: a pool's workers take the
        halved dt with the anchor state they reload, and a step that fails
        inside a worker leaves the pool up for that reload."""
        serial = self._rolled_back(mesh3, trigger)
        got = self._rolled_back(mesh3, trigger, parallel=parallel, ranks=ranks)
        assert np.array_equal(got.state.h, serial.state.h)
        assert np.array_equal(got.state.u, serial.state.u)
        assert got.invariant_history == serial.invariant_history
        assert got.elapsed_seconds == serial.elapsed_seconds

    @pytest.mark.parametrize(
        "mode", [{}, *({"parallel": p, "ranks": r} for p, r in DECOMPOSED)]
    )
    def test_rollback_leaves_the_callers_config_and_request_key(self, mesh3, mode):
        """Regression: a rollback halved ``dt`` on the config the caller
        handed in, so the job queue's dedup key of a finished request moved."""
        import dataclasses

        config = self._cfg(mesh3, **self.ROLLBACK_KNOBS, **mode)
        fields = dataclasses.asdict(config)
        request = api.RunRequest(
            case="galewsky", mesh=mesh3, config=config, steps=self.STEPS
        )
        key = request.key()
        result = api.run("galewsky", mesh=mesh3, config=config, steps=self.STEPS)
        assert result.elapsed_seconds < self.STEPS * config.dt  # it rolled back
        assert dataclasses.asdict(config) == fields
        assert request.key() == key


class TestConfigValidation:
    def test_valid_config_constructs(self):
        api.SWConfig(dt=600.0, parallel="pool", ranks=4)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            api.SWConfig(dt=0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            api.SWConfig(dt=-60.0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            api.SWConfig(dt=600.0, backend="cuda")

    def test_rejects_unknown_parallel_mode(self):
        with pytest.raises(ValueError, match="parallel must be one of"):
            api.SWConfig(dt=600.0, parallel="mpi")

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError, match="ranks must be a positive integer"):
            api.SWConfig(dt=600.0, parallel="pool", ranks=0)
        with pytest.raises(ValueError, match="ranks must be a positive integer"):
            api.SWConfig(dt=600.0, parallel="pool", ranks=2.5)

    def test_rejects_serial_with_many_ranks(self):
        with pytest.raises(ValueError, match="parallel='pool'"):
            api.SWConfig(dt=600.0, ranks=4)

    @pytest.mark.parametrize("parallel,ranks", [("serial", 1), *DECOMPOSED])
    @pytest.mark.parametrize("policy", ["halt", "rollback"])
    def test_every_guard_policy_on_every_executor(self, parallel, ranks, policy):
        """No mode/guard combination is refused: the pool's workers take a
        rollback's halved dt with the state they reload."""
        api.SWConfig(
            dt=600.0, parallel=parallel, ranks=ranks, guard_interval=1,
            guard_cfl_max=0.01, checkpoint_interval=2, guard_policy=policy,
        )

    @pytest.mark.parametrize("field", ["halo_retries"])
    def test_rejects_negative_retry_knobs(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            api.SWConfig(dt=600.0, **{field: -1})

    def test_rejects_bad_advection_order(self):
        with pytest.raises(ValueError, match="thickness_adv_order"):
            api.SWConfig(dt=600.0, thickness_adv_order=5)

    def test_validate_recallable_after_mutation(self):
        cfg = api.SWConfig(dt=600.0)
        cfg.dt = -1.0
        with pytest.raises(ValueError, match="dt must be positive"):
            cfg.validate()
