"""Fault injection, per-layer recovery, watchdogs, rollback and restart files.

The acceptance contract of the resilience layer: every *recoverable*
injected fault is bitwise-invisible (the faulted run's final state equals
the fault-free run's), every unrecoverable one raises ``FaultInjected``
rather than corrupting state, and numerical blow-ups are caught by the
watchdog instead of silently propagating NaN.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.report import render_resilience_report
from repro.resilience import FaultInjected, FaultPlan, FaultSpec, use_fault_plan
from repro.resilience.guards import NumericalBlowup, Watchdog, cfl_number
from repro.swm.config import SWConfig
from repro.swm.galewsky import galewsky_jet
from repro.swm.model import ShallowWaterModel, suggested_dt
from repro.swm.state import State


def _stable_dt(mesh) -> float:
    return suggested_dt(mesh, galewsky_jet(), GRAVITY, cfl=0.5)


def _model(mesh, **overrides):
    case = galewsky_jet()
    kwargs = dict(dt=_stable_dt(mesh))
    kwargs.update(overrides)
    model = ShallowWaterModel(mesh, SWConfig(**kwargs))
    model.initialize(case)
    return model


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("engine.nonsense", at=(1,))

    def test_spec_must_fire(self):
        with pytest.raises(ValueError, match="never fires"):
            FaultSpec("halo.exchange")

    def test_one_based_indices(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("halo.exchange", at=(0,))

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("halo.exchange", probability=1.5)

    def test_deterministic_at_indices(self):
        plan = FaultPlan([FaultSpec("halo.exchange", at=(2, 4))])
        fired = []
        with use_fault_plan(plan):
            for i in range(1, 6):
                try:
                    plan.check("halo.exchange", ranks=2)
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
        assert fired == [False, True, False, True, False]

    def test_seeded_probability_reproducible(self):
        def fires(seed):
            plan = FaultPlan(
                [FaultSpec("halo.exchange", probability=0.3)], seed=seed
            )
            out = []
            for _ in range(50):
                try:
                    plan.check("halo.exchange")
                    out.append(0)
                except FaultInjected:
                    out.append(1)
            return out

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)

    def test_max_fires_bounds(self):
        plan = FaultPlan([FaultSpec("halo.exchange", probability=1.0, max_fires=2)])
        fired = 0
        for _ in range(10):
            try:
                plan.check("halo.exchange")
            except FaultInjected:
                fired += 1
        assert fired == 2 and plan.total_fires == 2

    def test_match_filters_tags(self):
        plan = FaultPlan([FaultSpec("halo.exchange", at=(1,), match={"ranks": 4})])
        plan.check("halo.exchange", ranks=2)  # no match, no count
        with pytest.raises(FaultInjected) as exc:
            plan.check("halo.exchange", ranks=4)
        assert exc.value.site == "halo.exchange"
        assert exc.value.tags == {"ranks": 4}

    def test_reset_rewinds(self):
        plan = FaultPlan([FaultSpec("halo.exchange", at=(1,), max_fires=1)])
        with pytest.raises(FaultInjected):
            plan.check("halo.exchange")
        plan.check("halo.exchange")  # spent
        plan.reset()
        with pytest.raises(FaultInjected):
            plan.check("halo.exchange")

    def test_no_plan_is_noop(self):
        from repro.resilience import active_fault_plan, fault_site

        assert active_fault_plan() is None
        fault_site("halo.exchange", ranks=2)  # must not raise


# --------------------------------------------------------------- halo recovery
class TestHaloRecovery:
    def _decomposed(self, mesh, steps, plan=None, **knobs):
        from repro.parallel.runner import DecomposedShallowWater

        case = galewsky_jet()
        config = SWConfig(dt=suggested_dt(mesh, case, GRAVITY, cfl=0.5), **knobs)
        runner = DecomposedShallowWater(mesh, 2, case, config)
        if plan is None:
            runner.run(steps)
        else:
            with use_fault_plan(plan):
                runner.run(steps)
        return runner.gather_state()

    def test_faulted_exchange_retried_bitwise(self, mesh3):
        ref = self._decomposed(mesh3, 2)
        plan = FaultPlan([FaultSpec("halo.exchange", at=(3,), max_fires=1)])
        metrics = MetricsRegistry()
        with use_registry(metrics):
            got = self._decomposed(mesh3, 2, plan)
        assert plan.total_fires == 1
        assert np.array_equal(ref.h, got.h)
        assert np.array_equal(ref.u, got.u)
        (retry,) = metrics.series("resilience.recovery.retry")
        assert retry.tags["site"] == "halo.exchange"
        # The report's fault/recovery table shows both nonzero counters.
        text = render_resilience_report(metrics, "faults")
        for name in ("fault.injected", "recovery.retry"):
            (row,) = [ln for ln in text.splitlines() if f"resilience.{name}" in ln]
            assert "site=halo.exchange" in row and row.split("|")[-1].strip() == "1"

    def test_retries_exhausted_raises(self, mesh3):
        plan = FaultPlan([FaultSpec("halo.exchange", probability=1.0)])
        with pytest.raises(FaultInjected):
            self._decomposed(mesh3, 1, plan, halo_retries=1)

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "run_dir"])
    def test_lockstep_run_honours_the_configs_retry_knobs(
        self, mesh3, tmp_path, durable
    ):
        """Regression: the lockstep drivers read the retry budget from a
        process-global policy they never installed, so ``halo_retries=0`` was
        ignored and a dropped exchange was silently retried under the
        default.  The runner now reads ``config.halo_retries`` itself."""
        from repro.api import run

        config = SWConfig(
            dt=suggested_dt(mesh3, galewsky_jet(), GRAVITY, cfl=0.5),
            parallel="lockstep", ranks=2, halo_retries=0,
        )
        extra = {"run_dir": tmp_path / "run"} if durable else {}
        with use_fault_plan(FaultPlan([FaultSpec("halo.exchange", at=(1,))])):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=config, steps=1, **extra)


# ----------------------------------------------------------- transfer recovery
class TestTransferRecovery:
    @pytest.fixture(scope="class")
    def executor(self):
        from repro.dataflow.build import build_step_graph
        from repro.hybrid.executor import HybridExecutor
        from repro.hybrid.schedule import node_times, pattern_level_assignment
        from repro.hybrid.stepmodel import _cpu_parallel_model, _mic_model, _perf_config
        from repro.machine.counts import MeshCounts
        from repro.machine.interconnect import TransferModel
        from repro.machine.spec import PAPER_NODE

        dfg = build_step_graph(_perf_config())
        counts = MeshCounts(nCells=40962, name="120-km")
        times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
        transfer = TransferModel(PAPER_NODE.pcie_bw_gbs, PAPER_NODE.pcie_latency_us)
        ex = HybridExecutor(dfg, times, counts, transfer)
        return dfg, ex, pattern_level_assignment(dfg, times)

    def test_faulted_transfer_rescheduled(self, executor):
        dfg, ex, assignment = executor
        clean = ex.run(assignment)
        plan = FaultPlan([FaultSpec("hybrid.transfer", at=(1,), max_fires=1)])
        metrics = MetricsRegistry()
        with use_registry(metrics), use_fault_plan(plan):
            faulted = ex.run(assignment)
        faulted.validate_no_overlap()
        faulted.validate_dependencies(dfg)
        retried = [t for t in faulted.tasks if t.name.startswith("xfer!")]
        assert len(retried) == 1
        assert faulted.makespan >= clean.makespan
        (wasted,) = metrics.series("resilience.transfer.wasted_bytes")
        assert wasted.value > 0

    def test_retries_exhausted_raises(self, executor):
        _, ex, assignment = executor
        plan = FaultPlan([FaultSpec("hybrid.transfer", probability=1.0)])
        with use_fault_plan(plan):
            with pytest.raises(FaultInjected):
                ex.run(assignment)


# ------------------------------------------------------------------- watchdogs
class TestWatchdog:
    def test_nan_scan_names_field_and_step(self, mesh3):
        model = _model(mesh3)
        model.run(steps=1)
        watchdog = Watchdog(mesh3, model.b_cell, GRAVITY)
        state, diag = model.state, model.diagnostics
        assert watchdog.check(2, state, diag, model.config.dt) is None
        state.h[5] = np.nan
        report = watchdog.check(3, state, diag, model.config.dt)
        assert report is not None
        assert (report.guard, report.field, report.step) == ("finite", "h", 3)
        assert "'h'" in report.message() and "step 3" in report.message()

    def test_inf_in_velocity_detected(self, mesh3):
        model = _model(mesh3)
        model.run(steps=1)
        watchdog = Watchdog(mesh3, model.b_cell, GRAVITY)
        model.state.u[0] = np.inf
        report = watchdog.check(1, model.state, model.diagnostics, 1.0)
        assert report.guard == "finite" and report.field == "u"

    def test_cfl_number_tracks_suggested_dt(self, mesh3):
        model = _model(mesh3)  # dt from suggested_dt(cfl=0.5)
        cfl = cfl_number(
            mesh3, model.state, model.diagnostics, model.b_cell, GRAVITY,
            model.config.dt,
        )
        # Initial state: the running CFL must sit near the requested 0.5
        # (tangential velocity adds a little over the cell-centre estimate).
        assert 0.3 < cfl < 0.8

    @pytest.mark.parametrize("which", ["icos3", "random"])
    def test_cfl_speed_is_within_two_ulp_of_hypot(self, mesh3, which):
        """One sqrt of the largest ``u*u + v*v`` stands in for the largest
        ``hypot(u, v)``: on the model's own fields and on random ones."""
        from types import SimpleNamespace

        from repro.geometry import lloyd_relax, normalize
        from repro.mesh import Mesh

        rng = np.random.default_rng(23)
        if which == "icos3":
            mesh = mesh3
        else:
            pts = lloyd_relax(normalize(rng.standard_normal((120, 3))), iterations=60)
            mesh = Mesh.from_points(pts.points, name="random120-23")
        model = _model(mesh)
        # gravity 0, dt 1 and a unit edge leave the Courant number == the speed.
        unit = SimpleNamespace(metrics=SimpleNamespace(dcEdge=np.ones(1)))
        fields = [(model.state.u, model.diagnostics.v)] + [
            tuple(rng.standard_normal((2, mesh.nEdges)) * 10.0 ** rng.uniform(-3, 3))
            for _ in range(50)
        ]
        for u, v in fields:
            speed = cfl_number(
                unit, SimpleNamespace(h=model.state.h, u=u),
                SimpleNamespace(v=v), model.b_cell, 0.0, 1.0,
            )
            ref = float(np.max(np.hypot(u, v)))
            assert abs(speed - ref) <= 2 * np.spacing(ref)

    def test_mass_drift_guard(self, mesh3):
        model = _model(mesh3)
        watchdog = Watchdog(mesh3, model.b_cell, GRAVITY, mass_drift=1e-6)
        state, diag = model.state, model.diagnostics
        assert watchdog.check(1, state, diag, 1.0) is None  # sets reference
        state.h *= 1.01
        report = watchdog.check(2, state, diag, 1.0)
        assert report.guard == "mass_drift" and report.value > 1e-6

    def test_unstable_run_halts_with_diagnostic(self, mesh3):
        model = _model(mesh3, dt=40.0 * _stable_dt(mesh3), guard_interval=1)
        with pytest.raises(NumericalBlowup) as exc:
            with np.errstate(all="ignore"):
                model.run(steps=10)
        report = exc.value.report
        assert report.guard in ("finite", "instability")
        assert "step" in str(exc.value)

    def test_cfl_guard_halts_before_blowup(self, mesh3):
        stable_dt = _stable_dt(mesh3)
        model = _model(
            mesh3, dt=4.0 * stable_dt, guard_interval=1, guard_cfl_max=1.0
        )
        with pytest.raises(NumericalBlowup) as exc:
            model.run(steps=10)
        assert exc.value.report.guard == "cfl"
        assert exc.value.report.step == 1

    def test_rollback_policy_halves_dt_and_completes(self, mesh3):
        stable_dt = _stable_dt(mesh3)
        model = _model(
            mesh3,
            dt=1.6 * stable_dt,
            guard_interval=1,
            guard_cfl_max=0.7,
            guard_policy="rollback",
            checkpoint_interval=2,
        )
        metrics = MetricsRegistry()
        with use_registry(metrics):
            result = model.run(steps=6)
        assert result.steps == 6
        assert model.config.dt == pytest.approx(0.8 * stable_dt)
        assert np.isfinite(model.state.h).all()
        (rollback,) = metrics.series("resilience.checkpoint.rollback")
        assert rollback.value == 1
        # The surviving trajectory's clock, not the abandoned one's.
        assert result.elapsed_seconds == pytest.approx(6 * model.config.dt)

    def test_rollbacks_exhausted_halts(self, mesh3):
        stable_dt = _stable_dt(mesh3)
        model = _model(
            mesh3,
            dt=1.6 * stable_dt,
            guard_interval=1,
            guard_cfl_max=0.7,
            guard_policy="rollback",
            checkpoint_interval=2,
            max_rollbacks=0,
        )
        with pytest.raises(NumericalBlowup):
            model.run(steps=6)

    def test_rollback_without_checkpoints_halts(self, mesh3):
        stable_dt = _stable_dt(mesh3)
        model = _model(
            mesh3,
            dt=4.0 * stable_dt,
            guard_interval=1,
            guard_cfl_max=1.0,
            guard_policy="rollback",  # but checkpoint_interval == 0
        )
        with pytest.raises(NumericalBlowup):
            model.run(steps=4)

    def test_guard_config_validation(self):
        with pytest.raises(ValueError, match="guard_policy"):
            SWConfig(dt=1.0, guard_policy="panic")
        with pytest.raises(ValueError, match="guard_cfl_max"):
            SWConfig(dt=1.0, guard_cfl_max=-0.1)
        with pytest.raises(ValueError, match="halo_retries"):
            SWConfig(dt=1.0, halo_retries=-1)


# ------------------------------------------------- restart files and rollback
def _poison_once(model, after_step: int):
    """A run callback that NaNs the state once, after ``after_step``: the next
    step trips the finite guard, so the run rolls back to its newest anchor."""
    fired = []

    def callback(step, result):
        if step == after_step and not fired:
            fired.append(step)
            h = result.state.h.copy()
            h[5] = np.nan
            model.state = State(h=h, u=result.state.u)

    return callback


ROLLBACK = dict(guard_interval=1, guard_policy="rollback", checkpoint_interval=2)
MODES = [{}, {"parallel": "lockstep", "ranks": 2}]


class TestAutoCheckpointer:
    """The two jobs of the deleted ``AutoCheckpointer`` class: the restart
    writer (which only durable runs call during a run) and the watchdog
    rollback (an anchor the run loop keeps in memory)."""

    STEPS = 6

    def _rolled_back(self, mesh, **mode):
        """A run poisoned after step 3: it rolls back to the step-2 anchor."""
        model = _model(mesh, **ROLLBACK, **mode)
        metrics = MetricsRegistry()
        with use_registry(metrics), np.errstate(all="ignore"):
            result = model.run(steps=self.STEPS, callback=_poison_once(model, 3))
        return model, result, metrics

    def test_rollback_restores_bitwise(self, mesh3):
        """The anchor is the state the run had at step 2: steps 1 and 2 are
        not replayed, step 3 and on are, under the halved ``dt``."""
        dt = _stable_dt(mesh3)
        model = _model(mesh3, **ROLLBACK)
        seen = []
        poison = _poison_once(model, 3)

        def callback(step, result):
            seen.append((step, result.state.h.copy()))
            poison(step, result)

        with np.errstate(all="ignore"):
            result = model.run(steps=self.STEPS, callback=callback)
        assert [step for step, _ in seen] == [1, 2, 3, 3, 4, 5, 6]
        assert model.config.dt == dt / 2.0
        # The replayed step 3 differs (half the step), the history was
        # rewound to the anchor and the clock covers the surviving steps.
        assert not np.array_equal(seen[2][1], seen[3][1])
        assert result.elapsed_seconds == pytest.approx(2 * dt + 4 * dt / 2.0)
        assert len(result.invariant_history) == 2  # start and end

    @pytest.mark.parametrize("mode", MODES, ids=["serial", "lockstep"])
    def test_rollback_equals_the_anchor_oracle(self, mesh3, mode):
        """Bitwise: run to the anchor at ``dt``, the rest at ``dt / 2``."""
        model, _, metrics = self._rolled_back(mesh3, **mode)
        (rollback,) = metrics.series("resilience.checkpoint.rollback")
        assert rollback.value == 1
        oracle = _model(mesh3, **mode)
        oracle.run(steps=2)
        oracle.config.dt /= 2.0
        # Restart there: the diagnostics depend on dt (APVM), so they are
        # recomputed from the state, as a restart file would have them.
        oracle.state = oracle.state
        oracle.run(steps=self.STEPS - 2)
        assert np.array_equal(model.state.h, oracle.state.h)
        assert np.array_equal(model.state.u, oracle.state.u)

    def test_rollback_run_writes_no_file(self, mesh3, monkeypatch):
        """A plain run's rollback needs no disk: nothing is opened for
        writing and no restart file is counted."""
        import builtins

        _model(mesh3, **ROLLBACK).run(steps=1)  # warm every cache first
        writes = []
        real_open, real_os_open = builtins.open, os.open

        def spy_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                writes.append(file)
            return real_open(file, mode, *args, **kwargs)

        def spy_os_open(path, flags, *args, **kwargs):
            if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
                writes.append(path)
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "open", spy_os_open)
        _, _, metrics = self._rolled_back(mesh3)
        monkeypatch.undo()
        assert writes == []
        (rollback,) = metrics.series("resilience.checkpoint.rollback")
        assert rollback.value == 1
        assert sum(s.value for s in metrics.series("resilience.checkpoint.saved")) == 0

    def test_durable_rollback_commits_every_step(self, mesh3, tmp_path):
        """A durable run that rolls back commits each step once, every file
        matching its digest, and ends where the plain rollback run ends."""
        from repro.api import run
        from repro.resilience.durable import DurableRun

        config = SWConfig(
            dt=1.6 * _stable_dt(mesh3), guard_interval=1, guard_cfl_max=0.7,
            guard_policy="rollback", checkpoint_interval=1,
        )
        metrics = MetricsRegistry()
        with use_registry(metrics):
            durable = run(
                "galewsky", mesh=mesh3, config=config, steps=self.STEPS,
                run_dir=tmp_path / "run",
            )
        (rollback,) = metrics.series("resilience.checkpoint.rollback")
        assert rollback.value == 1
        manifest = DurableRun.open(tmp_path / "run")
        entries = manifest.manifest["checkpoints"]
        assert [c["step"] for c in entries] == list(range(self.STEPS + 1))
        assert all(manifest.entry_matches_file(c) for c in entries)
        plain = run("galewsky", mesh=mesh3, config=config, steps=self.STEPS)
        assert np.array_equal(durable.state.h, plain.state.h)
        assert np.array_equal(durable.state.u, plain.state.u)

    def test_torn_write_never_corrupts_published_file(
        self, mesh3, tmp_path, monkeypatch
    ):
        """A crash mid-write leaves the previous checkpoint byte-intact.

        Regression for the pre-atomic ``save_checkpoint`` that wrote the
        archive in place: dying mid-write left a torn npz under the
        published name.  The one restart writer lands its single write on a
        ``*.tmp`` sibling and publishes with ``os.replace`` only after the
        fsync, so a write that dies half-way must leave the old bytes
        untouched and loadable, and nothing torn under ``path``.
        """
        model = _model(mesh3)
        path = tmp_path / "restart.npz"
        model.save_checkpoint(path)
        good = path.read_bytes()

        def torn_fsync(fd):
            os.ftruncate(fd, len(good) // 2)  # half an archive, then die
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", torn_fsync)
        model.run(steps=1)
        with pytest.raises(OSError, match="mid-write"):
            model.save_checkpoint(path)
        monkeypatch.undo()

        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir() if p != path] == [
            "restart.npz.tmp"
        ]
        resumed = ShallowWaterModel.from_checkpoint(mesh3, path)
        assert np.array_equal(resumed.state.h, np.load(path)["h"])

# ------------------------------------------- checkpoint round-trip (satellite)
class TestCheckpointRoundTripBackends:
    @pytest.mark.parametrize("backend", ["numpy", "sparse"])
    def test_bitwise_continuation(self, mesh3, tmp_path, backend):
        """save/restore mid-run continues bitwise under both backends."""
        full = _model(mesh3, backend=backend)
        full.run(steps=6)

        half = _model(mesh3, backend=backend)
        half.run(steps=3)
        path = tmp_path / f"restart-{backend}.npz"
        half.save_checkpoint(path)

        resumed = ShallowWaterModel.from_checkpoint(mesh3, path)
        assert resumed.config.backend == backend
        resumed.run(steps=3)
        assert np.array_equal(resumed.state.h, full.state.h)
        assert np.array_equal(resumed.state.u, full.state.u)
