"""Fault injection, per-layer recovery, watchdogs and auto-checkpointing.

The acceptance contract of the resilience layer: every *recoverable*
injected fault is bitwise-invisible (the faulted run's final state equals
the fault-free run's), every unrecoverable one raises ``FaultInjected``
rather than corrupting state, and numerical blow-ups are caught by the
watchdog instead of silently propagating NaN.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.engine import default_registry, dispatch, use_placements
from repro.engine.registry import KernelRegistry
from repro.engine.split import active_placements, run_split
from repro.hybrid.executor import Placement
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    active_recovery_policy,
    use_fault_plan,
    use_recovery_policy,
)
from repro.resilience.checkpoint import AutoCheckpointer
from repro.resilience.guards import NumericalBlowup, Watchdog, cfl_number
from repro.swm.config import SWConfig
from repro.swm.galewsky import galewsky_jet
from repro.swm.model import ShallowWaterModel, suggested_dt


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
            FaultSpec("engine.dispatch")

    def test_one_based_indices(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("engine.dispatch", at=(0,))

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("engine.dispatch", probability=1.5)

    def test_deterministic_at_indices(self):
        plan = FaultPlan([FaultSpec("engine.dispatch", at=(2, 4))])
        fired = []
        with use_fault_plan(plan):
            for i in range(1, 6):
                try:
                    plan.check("engine.dispatch", op="x")
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
        plan = FaultPlan(
            [FaultSpec("engine.split.device", at=(1,), match={"device": "mic"})]
        )
        plan.check("engine.split.device", device="cpu")  # no match, no count
        with pytest.raises(FaultInjected) as exc:
            plan.check("engine.split.device", device="mic")
        assert exc.value.site == "engine.split.device"
        assert exc.value.tags == {"device": "mic"}

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
        fault_site("engine.dispatch", op="anything")  # must not raise


# ----------------------------------------------------------- dispatch recovery
class TestDispatchRecovery:
    def test_transient_fault_retried_bitwise(self, mesh3, edge_field):
        base = dispatch("cell_divergence", mesh3, edge_field)
        plan = FaultPlan(
            [FaultSpec("engine.dispatch", at=(1,), max_fires=1,
                       match={"op": "cell_divergence"})]
        )
        metrics = MetricsRegistry()
        with use_registry(metrics), use_fault_plan(plan):
            got = dispatch("cell_divergence", mesh3, edge_field)
        assert np.array_equal(base, got)
        (retry,) = metrics.series("resilience.recovery.retry")
        assert retry.value == 1
        assert not metrics.series("resilience.recovery.fallback")

    def test_persistent_fault_falls_back_to_numpy(self, mesh3, edge_field):
        base = dispatch("cell_divergence", mesh3, edge_field)  # numpy
        plan = FaultPlan(
            [FaultSpec("engine.dispatch", at=(1, 2), max_fires=2,
                       match={"op": "cell_divergence"})]
        )
        metrics = MetricsRegistry()
        with use_registry(metrics), use_fault_plan(plan):
            got = dispatch("cell_divergence", mesh3, edge_field, backend="sparse")
        assert np.array_equal(base, got)  # the fallback *is* numpy
        (fallback,) = metrics.series("resilience.recovery.fallback")
        assert fallback.value == 1 and fallback.tags["backend"] == "sparse"

    def test_unrecoverable_fault_propagates(self, mesh3, edge_field):
        plan = FaultPlan(
            [FaultSpec("engine.dispatch", probability=1.0,
                       match={"op": "cell_divergence"})]
        )
        policy = RecoveryPolicy(backend_retries=0, backend_fallback=False)
        with use_fault_plan(plan), use_recovery_policy(policy):
            with pytest.raises(FaultInjected):
                dispatch("cell_divergence", mesh3, edge_field)

    def test_real_errors_are_not_retried(self, mesh3):
        reg = KernelRegistry()
        calls = []

        def broken(mesh):
            calls.append(1)
            raise ValueError("a genuine bug, not a fault")

        reg.register("boom", "numpy", broken)
        plan = FaultPlan([FaultSpec("engine.dispatch", at=(99,))])
        with use_fault_plan(plan):
            with pytest.raises(ValueError, match="genuine bug"):
                reg.dispatch("boom", mesh3)
        assert len(calls) == 1  # exactly one attempt: no retry loop

    def test_ten_step_run_bitwise_under_faults(self, mesh3):
        ref = _model(mesh3)
        ref.run(steps=10)
        plan = FaultPlan(
            [
                FaultSpec("engine.dispatch", at=(5,), max_fires=1),
                FaultSpec("engine.dispatch", probability=0.002, max_fires=3),
            ],
            seed=11,
        )
        faulted = _model(mesh3)
        with use_fault_plan(plan):
            faulted.run(steps=10)
        assert plan.total_fires >= 1
        assert np.array_equal(ref.state.h, faulted.state.h)
        assert np.array_equal(ref.state.u, faulted.state.u)


# -------------------------------------------------------------- split recovery
class TestSplitRecovery:
    def test_device_failure_redone_bitwise_and_degraded(self, mesh3, edge_field):
        base = dispatch("cell_divergence", mesh3, edge_field)
        plan = FaultPlan(
            [FaultSpec("engine.split.device", at=(1,), match={"device": "mic"},
                       max_fires=1)]
        )
        metrics = MetricsRegistry()
        placement = Placement("split", 0.5)
        with use_registry(metrics), use_placements({"A3": placement}):
            with use_fault_plan(plan):
                got = dispatch("cell_divergence", mesh3, edge_field)
            # Degraded mode: the label now routes to the survivor alone.
            demoted = active_placements()["A3"]
            assert demoted.device == "cpu"
            again = dispatch("cell_divergence", mesh3, edge_field)
        assert np.array_equal(base, got)
        assert np.array_equal(base, again)
        (degraded,) = metrics.series("resilience.split.degraded")
        assert degraded.value == 1
        assert metrics.series("resilience.split.redo")
        # Leaving the block restores the pre-degradation routing.
        assert active_placements() == {}

    def test_both_devices_failing_is_unrecoverable(self, mesh3, edge_field):
        plan = FaultPlan(
            [FaultSpec("engine.split.device", probability=1.0, max_fires=2)]
        )
        with use_placements({"A3": Placement("split", 0.5)}), use_fault_plan(plan):
            with pytest.raises(FaultInjected):
                dispatch("cell_divergence", mesh3, edge_field)

    def test_degrade_disabled_propagates(self, mesh3, edge_field):
        plan = FaultPlan(
            [FaultSpec("engine.split.device", at=(1,), match={"device": "cpu"})]
        )
        policy = RecoveryPolicy(split_degrade=False)
        with use_placements({"A3": Placement("split", 0.5)}):
            with use_fault_plan(plan), use_recovery_policy(policy):
                with pytest.raises(FaultInjected):
                    dispatch("cell_divergence", mesh3, edge_field)

    def test_active_placements_returns_copy(self):
        with use_placements({"A1": Placement("split", 0.5)}):
            snapshot = active_placements()
            snapshot.clear()
            snapshot["A9"] = Placement("cpu")
            assert set(active_placements()) == {"A1"}

    def test_degenerate_single_output_runs_unsplit(self, mesh3):
        from repro.engine.registry import OpEntry

        class _Points:
            def __init__(self, n):
                self.n = n

            def count(self, mesh):
                return self.n

        calls = []

        def fn(mesh, x):
            calls.append(1)
            return np.array([x.sum()])

        entry = OpEntry(
            op="scalar_sum",
            input_point=_Points(5),
            output_point=_Points(1),
            stencil=lambda mesh: np.arange(5)[None, :],
        )
        x = np.arange(5.0)
        out = run_split(entry, fn, "numpy", None, (x,), Placement("split", 0.5))
        assert np.array_equal(out, np.array([10.0]))
        assert len(calls) == 1  # one unsplit execution, not two empty shares


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

    def test_backoff_accounted(self, mesh3):
        plan = FaultPlan([FaultSpec("halo.exchange", at=(1, 2), max_fires=2)])
        metrics = MetricsRegistry()
        with use_registry(metrics):
            self._decomposed(mesh3, 1, plan, halo_retries=2, halo_backoff_s=0.5)
        (backoff,) = metrics.series("resilience.halo.backoff_s")
        assert backoff.value == pytest.approx(0.5 + 1.0)  # 0.5 * (2**0 + 2**1)

    def test_retries_exhausted_raises(self, mesh3):
        plan = FaultPlan([FaultSpec("halo.exchange", probability=1.0)])
        with pytest.raises(FaultInjected):
            self._decomposed(mesh3, 1, plan, halo_retries=1)

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "run_dir"])
    def test_lockstep_run_honours_the_configs_retry_knobs(
        self, mesh3, tmp_path, durable
    ):
        """Regression: the lockstep drivers never installed
        ``config.recovery_policy()``, so ``halo_retries=0`` was ignored and
        a dropped exchange was silently retried under the process default."""
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


# ------------------------------------------------------------- checkpointing
class TestAutoCheckpointer:
    def test_interval_cadence_and_pruning(self, mesh3, tmp_path):
        model = _model(mesh3, checkpoint_interval=2)
        model.run(steps=6, checkpoint_dir=tmp_path)
        # Saved at 0, 2, 4, 6; keep=2 retains the newest two.
        files = sorted(p.name for p in tmp_path.glob("auto-*.npz"))
        assert files == ["auto-00000004.npz", "auto-00000006.npz"]

    def test_rollback_restores_bitwise(self, mesh3):
        ref = _model(mesh3)
        ref.run(steps=4)

        model = _model(mesh3)
        ckpt = AutoCheckpointer(model, interval=2)
        model.run(steps=2)
        ckpt.save(2)
        model.run(steps=2)  # wander off...
        assert ckpt.rollback() == 2  # ...and rewind
        model.run(steps=2)  # replay: must land exactly where ref did
        assert np.array_equal(model.state.h, ref.state.h)
        assert np.array_equal(model.state.u, ref.state.u)

    def test_rollback_without_saves_raises(self, mesh3):
        model = _model(mesh3)
        ckpt = AutoCheckpointer(model, interval=1)
        with pytest.raises(RuntimeError, match="no auto-checkpoint"):
            ckpt.rollback()

    def test_validation(self, mesh3):
        model = _model(mesh3)
        with pytest.raises(ValueError):
            AutoCheckpointer(model, interval=0)
        with pytest.raises(ValueError):
            AutoCheckpointer(model, interval=1, keep=0)

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

    def test_discovers_prior_checkpoints(self, mesh3, tmp_path):
        """A new checkpointer at an existing directory resumes its ledger."""
        ref = _model(mesh3)
        ref.run(steps=4)

        model = _model(mesh3)
        first = AutoCheckpointer(model, interval=2, directory=tmp_path)
        model.run(steps=2)
        first.save(2)

        # A fresh process constructing over the same directory sees the
        # prior save — and a *.tmp orphan or a .crc sidecar is not a
        # checkpoint.
        (tmp_path / "auto-00000009.npz.tmp").write_bytes(b"torn")
        (tmp_path / "auto-00000002.npz.crc").write_text("crc32 1 00000000\n")
        model2 = _model(mesh3)
        ckpt = AutoCheckpointer(model2, interval=2, directory=tmp_path)
        assert ckpt.last_step == 2
        assert ckpt.last_path == tmp_path / "auto-00000002.npz"
        assert ckpt.rollback() == 2
        model2.run(steps=2)
        assert np.array_equal(model2.state.h, ref.state.h)
        assert np.array_equal(model2.state.u, ref.state.u)

    def test_discard_after_drops_future_saves(self, mesh3, tmp_path):
        model = _model(mesh3)
        ckpt = AutoCheckpointer(model, interval=1, keep=10, directory=tmp_path)
        for step in (1, 2, 3):
            model.run(steps=1)
            ckpt.save(step)
        ckpt.discard_after(1)
        assert ckpt.last_step == 1
        assert sorted(p.name for p in tmp_path.glob("auto-*.npz")) == [
            "auto-00000001.npz"
        ]


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


# ------------------------------------------------------------ policy plumbing
class TestRecoveryPolicy:
    def test_defaults_installed(self):
        policy = active_recovery_policy()
        assert policy.backend_retries >= 0 and policy.backend_fallback

    def test_context_restores(self):
        before = active_recovery_policy()
        with use_recovery_policy(RecoveryPolicy(halo_retries=9)) as p:
            assert active_recovery_policy() is p
        assert active_recovery_policy() is before

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(backend_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(halo_backoff_s=-0.5)

    def test_config_builds_policy(self):
        cfg = SWConfig(dt=1.0, backend_retries=3, halo_backoff_s=0.25)
        policy = cfg.recovery_policy()
        assert policy.backend_retries == 3
        assert policy.halo_backoff_s == 0.25


# ------------------------------------------------------------------------ CLI
class TestCLI:
    def test_selftest_subprocess(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.resilience", "--selftest"],
            capture_output=True,
            text=True,
            timeout=600,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr[-2000:]
        assert "bitwise" in result.stdout
