"""Batched ensemble engine: bitwise member identity and divergence isolation.

The acceptance contract of the ensemble layer is sharp: member ``k`` of a
batched lockstep run must be **bitwise identical** to a serial run of the
same member — same seed, same perturbation, same steps — under both the
unfused sparse backend and the fused plan executor.  Everything else
(quarantine, detach, summaries) is checked around that invariant: a
diverging member must not perturb the healthy members' bits.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.ensemble.run as ensemble_run
from repro.api import SWConfig, resolve_case, suggested_dt
from repro.constants import GRAVITY
from repro.ensemble import (
    BatchedIntegrator,
    ensemble_initial_states,
    member_initial_state,
    member_rng,
)
from repro.ensemble.run import EnsembleRun, run_ensemble
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.resilience.guards import member_finite_mask
from repro.swm.model import ShallowWaterModel
from repro.swm.state import State
from repro.swm.timestep import RK4Integrator

SEED = 2015
AMPLITUDE = 1e-6
STEPS = 5
N = 3


@pytest.fixture(scope="module")
def case():
    return resolve_case("galewsky")


@pytest.fixture(scope="module")
def dt(mesh3, case):
    return suggested_dt(mesh3, case, GRAVITY, cfl=0.5)


def _f_vertex(mesh, case, cfg=None):
    if case.coriolis is not None:
        return case.coriolis(mesh.metrics.xVertex)
    cfg = cfg if cfg is not None else SWConfig(dt=600.0)
    return cfg.coriolis(mesh.metrics.latVertex)


def _config(dt, **extra) -> SWConfig:
    base = dict(
        dt=dt, backend="sparse", ensemble=N,
        ensemble_seed=SEED, ensemble_amplitude=AMPLITUDE,
    )
    base.update(extra)
    return SWConfig(**base)


def _serial_member(mesh, case, dt, k, **extra):
    """The reference: one member integrated through the serial model."""
    cfg = SWConfig(dt=dt, backend="sparse", **extra)
    state, b = member_initial_state(mesh, case, k, SEED, AMPLITUDE)
    model = ShallowWaterModel.from_state(
        mesh, cfg, case, state, b, _f_vertex(mesh, case, cfg)
    )
    return model.run(steps=STEPS, invariant_interval=1)


# ------------------------------------------------------------------ members
class TestMemberICs:
    def test_streams_are_independent_and_deterministic(self):
        a = member_rng(SEED, 0).standard_normal(8)
        b = member_rng(SEED, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, member_rng(SEED, 0).standard_normal(8))

    def test_builder_paths_agree_bitwise(self, mesh3, case):
        states, b = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        for k in range(N):
            ref, b_ref = member_initial_state(mesh3, case, k, SEED, AMPLITUDE)
            assert np.array_equal(states[k].h, ref.h)
            assert np.array_equal(states[k].u, ref.u)
            assert np.array_equal(b, b_ref)

    def test_zero_amplitude_members_identical(self, mesh3, case):
        states, _ = ensemble_initial_states(mesh3, case, 2, SEED, 0.0)
        assert np.array_equal(states[0].h, states[1].h)

    def test_width_must_be_positive(self, mesh3, case):
        with pytest.raises(ValueError, match="n_members must be >= 1"):
            ensemble_initial_states(mesh3, case, 0, SEED, AMPLITUDE)


class TestBatchedState:
    def test_stack_member_round_trip(self, mesh3, case):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        packed = State.stack(states)
        assert packed.n_members == N
        assert packed.h.shape == (mesh3.nCells, N)
        for k in range(N):
            got = packed.member(k)
            assert np.array_equal(got.h, states[k].h)
            assert np.array_equal(got.u, states[k].u)
            assert got.h.flags.c_contiguous

    def test_member_requires_batch(self, mesh3, case):
        states, _ = ensemble_initial_states(mesh3, case, 1, SEED, AMPLITUDE)
        with pytest.raises(ValueError, match="batched state"):
            states[0].member(0)

    def test_finite_mask_flags_only_the_poisoned_column(self, mesh3, case):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        states[1].u[3] = np.nan
        mask = member_finite_mask(State.stack(states))
        assert mask.tolist() == [False, True, False]


# ---------------------------------------------------------- bitwise identity
class TestBitwiseMemberIdentity:
    @pytest.mark.parametrize("plan", [False, True], ids=["sparse", "plan"])
    def test_lockstep_member_equals_serial_run(self, mesh3, case, dt, plan):
        """The acceptance criterion: every member, both plan modes."""
        ens = run_ensemble(
            mesh3, case, _config(dt, plan=plan), STEPS, invariant_interval=1
        )
        for k in range(N):
            ref = _serial_member(mesh3, case, dt, k, plan=plan)
            got = ens.members[k]
            assert np.array_equal(got.state.h, ref.state.h), f"member {k} h"
            assert np.array_equal(got.state.u, ref.state.u), f"member {k} u"
            assert np.array_equal(
                got.reconstruction.uReconstructZonal,
                ref.reconstruction.uReconstructZonal,
            )
            assert [i.mass for i in got.invariant_history] == [
                i.mass for i in ref.invariant_history
            ]

    def test_serial_mode_equals_lockstep_mode(self, mesh3, dt):
        """Member k of the batch == a serial ``run`` of the seeded
        ``perturbed:`` scenario token (bitwise the member's IC)."""
        from repro.api import run

        lock = run_ensemble(mesh3, resolve_case("galewsky"), _config(dt), STEPS)
        for k, member in enumerate(lock.members):
            ser = run(
                f"perturbed:galewsky:{k}:{SEED}:{AMPLITUDE}", mesh=mesh3,
                config=SWConfig(dt=dt, backend="sparse"), steps=STEPS,
            )
            assert np.array_equal(member.state.h, ser.state.h)
            assert np.array_equal(member.state.u, ser.state.u)

    def test_api_wrapper_agrees(self, mesh3, dt):
        from repro.api import run_ensemble as api_run_ensemble

        via_api = api_run_ensemble(
            "galewsky", mesh=mesh3, config=_config(dt), steps=STEPS
        )
        direct = run_ensemble(
            mesh3, resolve_case("galewsky"), _config(dt), STEPS
        )
        for a, b in zip(via_api.members, direct.members):
            assert np.array_equal(a.state.h, b.state.h)


# -------------------------------------------------------- divergence handling
class TestDivergenceIsolation:
    def test_quarantined_member_leaves_healthy_bits_alone(self, mesh3, case, dt):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        states[1].h[:] = np.nan
        res = EnsembleRun(
            mesh3, case, _config(dt, guard_policy="halt"),
            initial_states=states,
        ).execute(STEPS)
        assert [v.status for v in res.verdicts] == ["ok", "diverged", "ok"]
        assert res.verdicts[1].failed_step == 0
        assert res.members[1] is None
        assert res.survivors() == [0, 2]
        clean = run_ensemble(mesh3, case, _config(dt), STEPS)
        for k in (0, 2):
            assert np.array_equal(res.members[k].state.h, clean.members[k].state.h)
            assert np.array_equal(res.members[k].state.u, clean.members[k].state.u)

    def test_nonpositive_thickness_trips_the_e1_guard(self, mesh3, case, dt):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        states[2].h *= -1.0  # finite but unphysical: caught by E1, not isfinite
        res = EnsembleRun(
            mesh3, case, _config(dt, guard_policy="halt"),
            initial_states=states,
        ).execute(STEPS)
        assert res.verdicts[2].status == "diverged"
        assert res.verdicts[0].status == res.verdicts[1].status == "ok"

    def test_rollback_detaches_member_to_serial_continuation(self, mesh3, case, dt):
        """A clean snapshot detaches into a finished serial run at dt/2."""
        run = EnsembleRun(mesh3, case, _config(dt, guard_policy="rollback"))
        states, b = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        f = _f_vertex(mesh3, case)
        detail = [""] * N
        res = run._detach(
            1, 2, states[1], b, f, STEPS, 0, detail
        )
        assert res is not None and res.steps == STEPS - 2
        assert "dt=" in detail[1] and "step 2" in detail[1]

    def test_rollback_of_poisoned_ic_reports_failed_continuation(
        self, mesh3, case, dt
    ):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        states[2].h *= -1.0
        res = EnsembleRun(
            mesh3, case, _config(dt, guard_policy="rollback"),
            initial_states=states,
        ).execute(STEPS)
        assert res.verdicts[2].status == "diverged"
        assert "continuation failed" in res.verdicts[2].detail

    def test_without_mask_the_batch_raises_like_serial(self, mesh3, case, dt):
        states, _ = ensemble_initial_states(mesh3, case, 2, SEED, AMPLITUDE)
        states[0].h *= -1.0
        integ = RK4Integrator(
            mesh3, SWConfig(dt=dt, backend="sparse", plan=True),
            np.zeros(mesh3.nCells), _f_vertex(mesh3, case),
        )
        with pytest.raises(FloatingPointError, match="non-positive h_vertex"):
            integ.diagnostics_for(State.stack(states))


# ------------------------------------------- the plain integrator, batched
class TestIntegratorOverMemberAxis:
    """``RK4Integrator`` is shape-agnostic over the member axis: the one
    step program on ``State.stack(members)`` is the per-member serial step,
    column by column."""

    def _integrators(self, mesh, case, dt):
        _, b = ensemble_initial_states(mesh, case, 1, SEED, AMPLITUDE)
        f = _f_vertex(mesh, case)
        batched = RK4Integrator(
            mesh, SWConfig(dt=dt, backend="sparse", plan=True), b, f
        )
        return batched, b, f

    @pytest.mark.parametrize("plan", [False, True], ids=["sparse", "plan"])
    def test_stacked_step_equals_member_steps(self, mesh3, case, dt, plan):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        batched, b, f = self._integrators(mesh3, case, dt)
        serial = RK4Integrator(
            mesh3, SWConfig(dt=dt, backend="sparse", plan=plan), b, f
        )
        packed = State.stack(states)
        diag = batched.diagnostics_for(packed)
        members = [(s, serial.diagnostics_for(s)) for s in states]
        for _ in range(2):
            out = batched.step(packed, diag)
            packed, diag = out.state, out.diagnostics
            refs = [serial.step(s, d) for s, d in members]
            members = [(r.state, r.diagnostics) for r in refs]
            for k, ref in enumerate(refs):
                assert np.array_equal(packed.member(k).h, ref.state.h)
                assert np.array_equal(packed.member(k).u, ref.state.u)
                assert np.array_equal(
                    diag.member(k).pv_edge, ref.diagnostics.pv_edge
                )
                assert np.array_equal(
                    out.reconstruction.member(k).uReconstructZonal,
                    ref.reconstruction.uReconstructZonal,
                )

    def test_unstable_mask_isolates_a_poisoned_column(self, mesh3, case, dt):
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        clean = [s.copy() for s in states]
        states[1].h *= -1.0  # finite, non-positive: trips E1 in column 1 only
        batched, _, _ = self._integrators(mesh3, case, dt)
        unstable = np.zeros(N, dtype=bool)
        packed = State.stack(states)
        diag = batched.diagnostics_for(packed, unstable=unstable)
        out = batched.step(packed, diag, unstable=unstable)
        assert unstable.tolist() == [False, True, False]
        ref_packed = State.stack(clean)
        ref = batched.step(ref_packed, batched.diagnostics_for(ref_packed))
        for k in (0, 2):
            assert np.array_equal(out.state.member(k).h, ref.state.member(k).h)
            assert np.array_equal(out.state.member(k).u, ref.state.member(k).u)

    def test_batched_state_without_plan_is_rejected(self, mesh3, case, dt):
        states, b = ensemble_initial_states(mesh3, case, 2, SEED, AMPLITUDE)
        integ = RK4Integrator(
            mesh3, SWConfig(dt=dt, backend="sparse"), b, _f_vertex(mesh3, case)
        )
        with pytest.raises(ValueError, match="plan=True"):
            integ.diagnostics_for(State.stack(states))


# ------------------------------------------------- member blocks on threads
def _cpu_list(count: int) -> list[int]:
    """``count`` usable CPU ids (real ones, reused when the host has fewer)."""
    real = sorted(os.sched_getaffinity(0))
    return [real[i % len(real)] for i in range(count)]


@pytest.fixture(scope="module")
def serial_refs(mesh3, dt):
    """Member k's serial ``api.run`` of its ``perturbed:`` token, on demand."""
    from repro.api import run

    refs: dict[int, object] = {}

    def ref(k: int):
        if k not in refs:
            refs[k] = run(
                f"perturbed:galewsky:{k}:{SEED}:{AMPLITUDE}", mesh=mesh3,
                config=SWConfig(dt=dt, backend="sparse"), steps=3,
            )
        return refs[k]

    return ref


class TestMemberBlocks:
    """Members are stepped as contiguous column blocks, one per usable CPU;
    the split moves no bit and keeps every verdict under its global index."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_member_equals_serial_run_for_every_split(
        self, mesh3, case, dt, serial_refs, monkeypatch, n, cpus
    ):
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(cpus))
        before = os.sched_getaffinity(0)
        ens = run_ensemble(mesh3, case, _config(dt, ensemble=n), 3)
        assert os.sched_getaffinity(0) == before
        assert [v.status for v in ens.verdicts] == ["ok"] * n
        for k, member in enumerate(ens.members):
            ref = serial_refs(k)
            assert np.array_equal(member.state.h, ref.state.h), f"member {k} h"
            assert np.array_equal(member.state.u, ref.state.u), f"member {k} u"
            assert np.array_equal(
                member.diagnostics.pv_edge, ref.diagnostics.pv_edge
            )
            assert np.array_equal(
                member.reconstruction.uReconstructZonal,
                ref.reconstruction.uReconstructZonal,
            )

    @pytest.mark.parametrize("policy", ["halt", "rollback"])
    def test_divergence_in_the_last_block_keeps_its_global_index(
        self, mesh3, case, dt, serial_refs, monkeypatch, policy
    ):
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        states, _ = ensemble_initial_states(mesh3, case, 5, SEED, AMPLITUDE)
        states[4].h *= -1.0  # the last column of block [2, 5)
        detached = []
        real_detach = EnsembleRun._detach

        def spy(self, member, snapshot_step, snapshot, *rest):
            detached.append((member, snapshot))
            return real_detach(self, member, snapshot_step, snapshot, *rest)

        monkeypatch.setattr(EnsembleRun, "_detach", spy)
        registry = MetricsRegistry()
        with use_registry(registry):
            res = EnsembleRun(
                mesh3, case, _config(dt, ensemble=5, guard_policy=policy),
                initial_states=states,
            ).execute(3)
        assert [v.status for v in res.verdicts] == ["ok"] * 4 + ["diverged"]
        assert res.verdicts[4].member == 4 and res.verdicts[4].failed_step == 0
        assert res.members[4] is None
        (counted,) = registry.series("ensemble.member.diverged")
        assert counted.tags == {"member": "4"}
        if policy == "rollback":
            ((member, snapshot),) = detached
            assert member == 4
            assert np.array_equal(snapshot.h, states[4].h)
            assert "rolled back to step 0" in res.verdicts[4].detail
        else:
            assert detached == []
        for k in range(4):
            assert np.array_equal(res.members[k].state.h, serial_refs(k).state.h)
            assert np.array_equal(res.members[k].state.u, serial_refs(k).state.u)

    def test_traced_run_sweeps_on_the_caller(self, mesh3, case, dt, monkeypatch):
        """The tracer is single-threaded: a traced ensemble is one block on
        the calling thread, and its span tree is well nested."""
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        def no_workers(*args, **kwargs):
            raise AssertionError("a traced run started a worker thread")

        monkeypatch.setattr(ensemble_run, "ThreadPoolExecutor", no_workers)
        monkeypatch.setattr(ensemble_run, "_WORKERS", {})
        tracer = Tracer()
        with use_tracer(tracer):
            run_ensemble(mesh3, case, _config(dt, ensemble=4), 2)
        spans = tracer.spans
        assert spans and all(s.end is not None for s in spans)
        for s in spans:
            if s.parent is None:
                assert s.depth == 0
                continue
            parent = spans[s.parent]
            assert s.depth == parent.depth + 1
            assert parent.start <= s.start and s.end <= parent.end
        for parent in [None] + spans:
            kids = [
                s for s in spans
                if s.parent == (None if parent is None else parent.index)
            ]
            for a, b in zip(kids, kids[1:]):
                assert a.end <= b.start
        assert sum(s.name == "compute_tend" for s in spans) == 2 * 4

    def test_a_raising_block_restores_affinity_and_reaches_the_caller(self):
        class Boom(Exception):
            pass

        cpus = _cpu_list(2)
        before = os.sched_getaffinity(0)
        for culprit in (0, 1):  # the caller's block, then a worker's
            boom = Boom(f"block {culprit}")
            ran = []

            def task(block):
                ran.append(block)
                if block == culprit:
                    raise boom

            with pytest.raises(Boom) as caught:
                ensemble_run._sweep(cpus, task, [0, 1])
            assert caught.value is boom
            assert sorted(ran) == [0, 1]  # the other block still finished
            assert os.sched_getaffinity(0) == before

    def test_a_run_leaves_no_cyclic_garbage(self, mesh3, case, dt, monkeypatch):
        """Nothing a run allocates may wait for the cycle collector: a
        level-5 block is megabytes, a gen-2 collection is rare."""
        import gc

        from repro.swm.state import Diagnostics, Reconstruction

        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        run_ensemble(mesh3, case, _config(dt, ensemble=4), 2)  # warm caches
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            res = run_ensemble(mesh3, case, _config(dt, ensemble=4), 2)
            del res
            gc.collect()
            leaked = [
                type(o).__name__ for o in gc.garbage
                if isinstance(o, (State, Diagnostics, Reconstruction))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


# ----------------------------------------------------------- driver plumbing
class TestEnsembleRunSurface:
    def test_requires_ensemble_config(self, mesh3, case, dt):
        with pytest.raises(ValueError, match="config.ensemble >= 1"):
            EnsembleRun(mesh3, case, SWConfig(dt=dt, backend="sparse"))

    def test_explicit_states_must_match_width(self, mesh3, case, dt):
        states, _ = ensemble_initial_states(mesh3, case, 2, SEED, AMPLITUDE)
        with pytest.raises(ValueError, match="2 members"):
            EnsembleRun(mesh3, case, _config(dt), initial_states=states)

    def test_batched_integrator_rejects_non_sparse(self, mesh3, case, dt):
        with pytest.raises(ValueError, match="backend='sparse'"):
            BatchedIntegrator(
                mesh3, SWConfig(dt=dt), np.zeros(mesh3.nCells),
                _f_vertex(mesh3, case), 2,
            )

    def test_summary_table_lists_every_member(self, mesh3, case, dt):
        res = run_ensemble(mesh3, case, _config(dt), STEPS, invariant_interval=1)
        table = res.summary_table()
        lines = table.splitlines()
        assert "member" in lines[0] and "mass_drift" in lines[0]
        assert len(lines) == 2 + N
        assert all("ok" in line for line in lines[2:])

    def test_mean_invariants_average_the_survivors(self, mesh3, case, dt):
        res = run_ensemble(mesh3, case, _config(dt), STEPS, invariant_interval=1)
        mean = res.mean_invariants()
        assert len(mean) == STEPS + 1
        expect = float(np.mean(
            [m.invariant_history[0].mass for m in res.members]
        ))
        assert mean[0].mass == expect


class TestConfigKnobs:
    def test_rejects_negative_width(self, dt):
        with pytest.raises(ValueError, match="ensemble must be a non-negative"):
            SWConfig(dt=600.0, ensemble=-1)

    def test_rejects_negative_amplitude(self, dt):
        with pytest.raises(ValueError, match="relative thickness perturbation"):
            SWConfig(dt=600.0, ensemble_amplitude=-1e-6)

    def test_ensemble_requires_sparse_backend(self, dt):
        with pytest.raises(ValueError, match="backend='sparse'"):
            SWConfig(dt=600.0, ensemble=2)

    def test_ensemble_requires_serial_executor(self, dt):
        with pytest.raises(ValueError, match="parallel='serial'"):
            SWConfig(
                dt=600.0, ensemble=2, backend="sparse",
                parallel="pool", ranks=2,
            )
