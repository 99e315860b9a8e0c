"""Ensemble engine: bitwise member identity and divergence isolation.

The acceptance contract of the ensemble layer is sharp: member ``k`` of a
lockstep ensemble run must be **bitwise identical** to a serial run of the
same member — same seed, same perturbation, same steps — under both the
unfused sparse backend and the fused plan executor.  Everything else
(quarantine, detach, summaries) is checked around that invariant: a
diverging member must not perturb the healthy members' bits.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.engine.lanes as lanes
import repro.ensemble.batch as ensemble_batch
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
        """``State.stack`` packs members as columns; the probes' adapter
        unpacks them into contiguous serial states again."""
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        packed = State.stack(states)
        assert packed.h.shape == (mesh3.nCells, N)
        assert packed.u.shape == (mesh3.nEdges, N)
        columns = ensemble_batch._columns(packed)
        assert len(columns) == N
        for got, want in zip(columns, states):
            assert np.array_equal(got.h, want.h)
            assert np.array_equal(got.u, want.u)
            assert got.h.flags.c_contiguous and got.u.flags.c_contiguous


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

    @pytest.mark.parametrize("plan", [False, True], ids=["sparse", "plan"])
    @pytest.mark.parametrize("order", [2, 4], ids=["order2", "order4"])
    def test_member_runs_the_config_it_is_given(self, mesh3, dt, order, plan):
        """``api.run_ensemble`` member k == ``api.run`` of its ``perturbed:``
        token under the same config: the driver does not swap in the plan
        (order 4 without it would be the unfused chain against the
        composed matrix, ~1e-12 apart)."""
        from repro import api

        cfg = SWConfig(
            dt=dt, backend="sparse", plan=plan, thickness_adv_order=order
        )
        ens = api.run_ensemble(
            "galewsky", mesh=mesh3, config=cfg, steps=STEPS, ensemble=N,
            perturb_seed=SEED, perturb_amplitude=AMPLITUDE,
        )
        for k, member in enumerate(ens.members):
            ser = api.run(
                f"perturbed:galewsky:{k}:{SEED}:{AMPLITUDE}", mesh=mesh3,
                config=cfg, steps=STEPS,
            )
            assert np.array_equal(member.state.h, ser.state.h), f"member {k} h"
            assert np.array_equal(member.state.u, ser.state.u), f"member {k} u"

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
        integ = BatchedIntegrator(
            mesh3, SWConfig(dt=dt, backend="sparse", plan=True),
            np.zeros(mesh3.nCells), _f_vertex(mesh3, case), 2,
        )
        with pytest.raises(FloatingPointError, match="non-positive h_vertex"):
            integ.diagnostics_for(State.stack(states))


# ------------------------------------------------ the probes' column adapter
class TestIntegratorOverMemberAxis:
    """``BatchedIntegrator`` steps ``State.stack(members)`` column by column
    through the serial integrator: column k of a step is member k's serial
    step."""

    @pytest.mark.parametrize("plan", [False, True], ids=["sparse", "plan"])
    def test_stacked_step_equals_member_steps(self, mesh3, case, dt, plan):
        states, b = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        f = _f_vertex(mesh3, case)
        cfg = SWConfig(dt=dt, backend="sparse", plan=plan)
        batched = BatchedIntegrator(mesh3, cfg, b, f, N)
        serial = RK4Integrator(mesh3, cfg, b, f)
        packed = State.stack(states)
        diag = batched.diagnostics_for(packed)
        members = [(s, serial.diagnostics_for(s)) for s in states]
        for _ in range(2):
            out = batched.step(packed, diag)
            packed, diag = out.state, out.diagnostics
            refs = [serial.step(s, d) for s, d in members]
            members = [(r.state, r.diagnostics) for r in refs]
            for k, ref in enumerate(refs):
                assert np.array_equal(packed.h[:, k], ref.state.h)
                assert np.array_equal(packed.u[:, k], ref.state.u)
                assert np.array_equal(
                    diag.pv_edge[:, k], ref.diagnostics.pv_edge
                )
                assert np.array_equal(
                    out.reconstruction.uReconstructZonal[:, k],
                    ref.reconstruction.uReconstructZonal,
                )


# ------------------------------------------------- member blocks on threads
def _cpu_list(count: int) -> list[int]:
    """``count`` usable CPU ids (real ones, reused when the host has fewer)."""
    real = sorted(os.sched_getaffinity(0))
    return [real[i % len(real)] for i in range(count)]


@pytest.fixture(scope="module")
def serial_refs(mesh3, dt):
    """Member k's serial ``api.run`` of its ``perturbed:`` token, on demand."""
    from repro.api import run

    refs: dict[tuple[int, bool], object] = {}

    def ref(k: int, plan: bool = False):
        if (k, plan) not in refs:
            refs[k, plan] = run(
                f"perturbed:galewsky:{k}:{SEED}:{AMPLITUDE}", mesh=mesh3,
                config=SWConfig(dt=dt, backend="sparse", plan=plan), steps=3,
            )
        return refs[k, plan]

    return ref


class TestMemberBlocks:
    """Members are stepped member-step by member-step by one worker per
    usable CPU; the schedule moves no bit and keeps every verdict under its
    global index."""

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

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_plan_blocks_stepping_at_once_equal_serial_runs(
        self, mesh3, case, dt, serial_refs, monkeypatch, cpus
    ):
        """Every block thread steps its members with the one shared
        integrator, through its own plan: the RK-substep buffers belong to
        the thread's plan, so no block reads another's provisional state."""
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(cpus))
        n = 4
        ens = run_ensemble(mesh3, case, _config(dt, ensemble=n, plan=True), 3)
        assert [v.status for v in ens.verdicts] == ["ok"] * n
        for k, member in enumerate(ens.members):
            ref = serial_refs(k, plan=True)
            assert np.array_equal(member.state.h, ref.state.h), f"member {k} h"
            assert np.array_equal(member.state.u, ref.state.u), f"member {k} u"
            assert np.array_equal(
                member.diagnostics.pv_edge, ref.diagnostics.pv_edge
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

    def test_block_threads_compile_serial_plans_only(
        self, mesh3, case, dt, monkeypatch
    ):
        """Members step through serial plans: on two CPUs no thread compiles
        a batched one, and a fresh block thread compiles a serial one."""
        import threading

        import repro.engine.plan as plan

        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        monkeypatch.setattr(lanes, "_LANES", {})
        real_compile = plan.compile_plan
        calls = []

        def spy(mesh, config, batch=0):
            calls.append((batch, threading.current_thread() is threading.main_thread()))
            return real_compile(mesh, config, batch=batch)

        monkeypatch.setattr(plan, "compile_plan", spy)
        run_ensemble(mesh3, case, _config(dt, ensemble=4, plan=True), 2)
        assert [batch for batch, _ in calls if batch != 0] == []
        assert (0, False) in calls  # a block thread compiled its own

    def test_a_member_quarantined_at_step_0_is_never_stepped(
        self, mesh3, case, dt, monkeypatch
    ):
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        states, _ = ensemble_initial_states(mesh3, case, N, SEED, AMPLITUDE)
        states[1].h[:] = np.nan
        poisoned = []  # one entry per member step: was the member the NaN one?
        real_step = ensemble_run.rk4_step

        def spy(ranks, block, diags):
            poisoned.append(bool(np.isnan(block[0].h).any()))
            return real_step(ranks, block, diags)

        monkeypatch.setattr(ensemble_run, "rk4_step", spy)
        res = EnsembleRun(
            mesh3, case, _config(dt, guard_policy="halt"), initial_states=states,
        ).execute(STEPS)
        assert res.verdicts[1].failed_step == 0
        assert len(poisoned) == (N - 1) * STEPS
        assert not any(poisoned)

    def test_traced_run_starts_the_workers(self, mesh3, case, dt, monkeypatch):
        """The tracer selects no other schedule: a traced run starts the
        same worker, lands on the untraced run's bits, and every thread's
        span tree is well nested."""
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        config = _config(dt, ensemble=4)
        untraced = run_ensemble(mesh3, case, config, 2)
        handed = []
        submit = lanes.Lane.submit

        def recorded(self, fn, *args):
            handed.append(fn.__name__)
            return submit(self, fn, *args)

        monkeypatch.setattr(lanes.Lane, "submit", recorded)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_ensemble(mesh3, case, config, 2)
        assert handed == ["work"]
        for a, b in zip(traced.members, untraced.members):
            assert np.array_equal(a.state.h, b.state.h)
            assert np.array_equal(a.state.u, b.state.u)
        spans = tracer.spans
        assert spans and all(s.end is not None for s in spans)
        siblings: dict[tuple, list] = {}
        for s in spans:
            siblings.setdefault((s.tags["thread"], s.parent), []).append(s)
            if s.parent is None:
                assert s.depth == 0
                continue
            parent = spans[s.parent]
            assert parent.tags["thread"] == s.tags["thread"]
            assert s.depth == parent.depth + 1
            assert parent.start <= s.start and s.end <= parent.end
        for kids in siblings.values():
            for a, b in zip(kids, kids[1:]):
                assert a.end <= b.start
        # members x steps x RK stages: every member is stepped on its own.
        assert sum(s.name == "compute_tend" for s in spans) == 4 * 2 * 4

    def test_a_raising_task_stops_the_workers_and_reaches_the_caller(
        self, mesh3, case, dt, monkeypatch
    ):
        class Boom(Exception):
            pass

        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        before = os.sched_getaffinity(0)
        for on_caller in (True, False):  # the caller's task, then a lane's
            boom, raised = Boom(f"on the caller: {on_caller}"), []

            def hook(k, step, out):
                caller = threading.current_thread() is threading.main_thread()
                if caller == on_caller and not raised:
                    raised.append(len(log))
                    raise boom
                if caller:
                    time.sleep(0.01)  # the lane takes a member-step early
                return out

            with monkeypatch.context() as patch, pytest.raises(Boom) as caught:
                log = _spy_member_steps(patch, hook)
                run_ensemble(mesh3, case, _config(dt, ensemble=4), 5)
            assert caught.value is boom
            # At most the other worker's step in flight and one it took
            # before the raising worker flagged the stop.
            assert len(log) - raised[0] <= 2 and len(log) < 4 * 5
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


def _spy_member_steps(monkeypatch, hook=None) -> list:
    """Log ``(member, step, on_caller)`` as each ensemble member-step starts;
    ``hook(member, step, out)`` may delay, raise or replace its result."""
    owner: dict[int, tuple[int, int]] = {}
    keep: list = []  # every state stays alive, so no id is reused
    log: list = []
    real_states, real_step = EnsembleRun._member_states, ensemble_run.rk4_step

    def member_states(self):
        states, b = real_states(self)
        keep.extend(states)
        owner.update((id(s), (k, 0)) for k, s in enumerate(states))
        return states, b

    def step(ranks, block, diags):
        k, done = owner[id(block[0])]
        log.append((k, done + 1, threading.current_thread() is threading.main_thread()))
        out = real_step(ranks, block, diags)
        if hook is not None:
            out = hook(k, done + 1, out)
        keep.append(out[0][0])
        owner[id(out[0][0])] = (k, done + 1)
        return out

    monkeypatch.setattr(EnsembleRun, "_member_states", member_states)
    monkeypatch.setattr(ensemble_run, "rk4_step", step)
    return log


class TestMemberSteps:
    """Each worker pulls the next task of the member with the fewest finished
    tasks; members never wait for each other and every result is the one a
    single CPU computes."""

    def test_a_slow_caller_leaves_its_block_to_the_other_cpu(
        self, mesh3, case, dt, serial_refs, monkeypatch
    ):
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        delayed = []

        def hook(k, step, out):
            if threading.current_thread() is threading.main_thread() and not delayed:
                delayed.append(k)
                time.sleep(0.5)
            return out

        log = _spy_member_steps(monkeypatch, hook)
        n = 4
        ens = run_ensemble(mesh3, case, _config(dt, ensemble=n), 3)
        on_lane = {k for k, _, caller in log if not caller}
        assert on_lane & {0, 1} and on_lane & {2, 3}  # both blocks
        assert sorted((k, step) for k, step, _ in log) == [
            (k, step) for k in range(n) for step in (1, 2, 3)
        ]
        for k, member in enumerate(ens.members):
            ref = serial_refs(k)
            assert np.array_equal(member.state.h, ref.state.h), f"member {k} h"
            assert np.array_equal(member.state.u, ref.state.u), f"member {k} u"
            assert np.array_equal(
                member.reconstruction.uReconstructZonal,
                ref.reconstruction.uReconstructZonal,
            )

    def test_a_member_diverging_out_of_step_gets_its_one_cpu_verdict(
        self, mesh3, case, dt, monkeypatch
    ):
        """Member 1 is slow and goes non-finite at step 3 while the others
        are on other steps; rolled back to its step-2 anchor it recovers as
        it does on one CPU."""

        def poison(k, step, out):
            if k != 1:
                return out
            time.sleep(0.05)  # the other members run ahead
            if step != 3:
                return out
            (state,), diags = out
            state = state.copy()
            state.h[0] = np.nan
            return (state,), diags

        config = _config(dt, ensemble=3, guard_policy="rollback", checkpoint_interval=2)
        runs, logs = {}, {}
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(cpus))
                logs[cpus] = _spy_member_steps(patch, poison)
                runs[cpus] = run_ensemble(mesh3, case, config, 5, invariant_interval=1)
        log = [(k, step) for k, step, _ in logs[2]]
        assert any(k != 1 and step > 3 for k, step in log[: log.index((1, 3))])
        one, two = runs[1], runs[2]
        assert two.verdicts == one.verdicts
        assert two.verdicts[1].status == "recovered"
        assert two.verdicts[1].failed_step == 3
        assert "rolled back to step 2" in two.verdicts[1].detail
        assert two.members[1].steps == 3
        for a, b in zip(one.members, two.members):
            assert np.array_equal(a.state.h, b.state.h)
            assert np.array_equal(a.state.u, b.state.u)
            assert a.invariant_history == b.invariant_history
        assert two.invariant_history == one.invariant_history

    @pytest.mark.parametrize("policy", ["halt", "rollback"])
    def test_only_rollback_keeps_the_ic_as_an_anchor(
        self, mesh3, case, dt, monkeypatch, policy
    ):
        """Under ``"halt"`` a member's IC is freed by its first step; under
        ``"rollback"`` it is the anchor a member that diverges before any
        checkpoint restarts from, at ``dt / 2``, as a serial run."""
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(1))
        ic, dead_at_step_2 = [], []
        real_step = ensemble_run.rk4_step

        def step(ranks, block, diags):
            if not ic:
                ic.append((weakref.ref(block[0]), block[0].copy()))
            else:
                dead_at_step_2.append(ic[0][0]() is None)
            out = real_step(ranks, block, diags)
            if len(dead_at_step_2) == 1:  # step 2 goes non-finite
                out[0][0].h[0] = np.nan
            return out

        monkeypatch.setattr(ensemble_run, "rk4_step", step)
        config = _config(dt, ensemble=1, guard_policy=policy)
        res = run_ensemble(mesh3, case, config, STEPS, invariant_interval=1)
        assert dead_at_step_2 == [policy == "halt"]
        assert res.verdicts[0].failed_step == 2
        if policy == "halt":
            assert res.members == [None]
            return
        assert res.verdicts[0].status == "recovered"
        serial_config = SWConfig(dt=dt / 2, backend="sparse")
        _, b = member_initial_state(mesh3, case, 0, SEED, AMPLITUDE)
        ref = ShallowWaterModel.from_state(
            mesh3, serial_config, case, ic[0][1], b, _f_vertex(mesh3, case),
        ).run(steps=STEPS, invariant_interval=1)
        assert np.array_equal(res.members[0].state.h, ref.state.h)
        assert np.array_equal(res.members[0].state.u, ref.state.u)
        assert res.members[0].invariant_history == ref.invariant_history

    def test_more_workers_than_cores_take_every_member_step_once(
        self, mesh3, case, dt, serial_refs, monkeypatch
    ):
        """Three workers on at most two cores, switching every 10 us: a lost
        update of the task table would repeat or skip a member-step."""
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(3))
        log = _spy_member_steps(monkeypatch)
        n, out = 5, []
        runner = threading.Thread(
            target=lambda: out.append(
                run_ensemble(mesh3, case, _config(dt, ensemble=n), 3)
            ),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(out) == 1
        assert sorted((k, step) for k, step, _ in log) == [
            (k, step) for k in range(n) for step in (1, 2, 3)
        ]
        for k, member in enumerate(out[0].members):
            assert np.array_equal(member.state.u, serial_refs(k).state.u)
            assert np.array_equal(member.state.h, serial_refs(k).state.h)

    def test_every_member_step_is_timed(self, mesh3, case, dt, monkeypatch):
        monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: _cpu_list(2))
        registry = MetricsRegistry()
        with use_registry(registry):
            run_ensemble(mesh3, case, _config(dt, ensemble=3), 4)
        (timer,) = registry.series("ensemble.member_step")
        assert timer.count == 3 * 4 and timer.min > 0
        assert registry.series("ensemble.step") == []


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

    def test_ensemble_requires_serial_executor(self, dt):
        with pytest.raises(ValueError, match="parallel='serial'"):
            SWConfig(
                dt=600.0, ensemble=2, backend="sparse",
                parallel="pool", ranks=2,
            )
