"""The shared-memory process-pool executor (repro.parallel.pool / .shm).

The contract under test is the one the lockstep runner already honours:
the pool's gathered prognostic state is **bitwise identical** to the
serial run — now with ranks stepping concurrently in worker processes,
halo exchanges through a shared-memory segment, and worker death healed
by bounded respawn without perturbing a single bit.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
import time
import types
import weakref

import numpy as np
import pytest

import repro.parallel.halo as halo_module
import repro.parallel.pool as pool_module
from repro.constants import GRAVITY
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.report import render_resilience_report
from repro.obs.trace import Tracer, use_tracer
from repro.parallel import (
    DecomposedShallowWater,
    LocalMesh,
    PoolShallowWater,
    SharedState,
    WorkerPoolError,
    build_local_mesh,
    partition_cells,
)
from repro.parallel.shm import SyncBoard
from repro.swm import (
    ShallowWaterModel,
    State,
    SWConfig,
    galewsky_jet,
    isolated_mountain,
    steady_zonal_flow,
    suggested_dt,
)

# Generous for loaded CI machines, tiny against the 120 s default: these
# runs take well under a second per barrier cycle.
TIMEOUT = 30.0

# A killed worker must be recovered from well inside the 5 s sync timeout the
# death tests run with: the parent aborts the survivors' waits on detection.
RECOVERY_BOUND = 2.0


def _serial(mesh, case, cfg, steps):
    model = ShallowWaterModel(mesh, cfg)
    model.initialize(case)
    return model.run(steps=steps)


def _kill(pool, rank: int) -> None:
    """A real worker death: SIGKILL the rank's process and reap it."""
    proc = pool._workers[rank]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(TIMEOUT)
    assert proc.exitcode == -signal.SIGKILL


def _killed_between_calls(mesh, case, cfg):
    """One step, rank 1 killed while idle, three more steps: the gathered
    result, the respawn count and the seconds the second call took."""
    with use_registry(MetricsRegistry()) as registry:
        with PoolShallowWater(mesh, 2, case, cfg, barrier_timeout=5.0) as pool:
            pool.run(1)
            _kill(pool, 1)
            t0 = time.perf_counter()
            pres = pool.run(3)
            took = time.perf_counter() - t0
    return pres, _respawns(registry), took


def _respawns(registry) -> float:
    return sum(
        rec["value"]
        for rec in registry.snapshot()
        if rec["metric"] == "resilience.pool.respawn"
    )


class TestSharedState:
    def test_round_trip_and_slices(self, mesh3, rng):
        h = rng.standard_normal(mesh3.nCells)
        u = rng.standard_normal(mesh3.nEdges)
        shared = SharedState.create(mesh3.nCells, mesh3.nEdges)
        try:
            shared.write_global(h, u)
            rh, ru = shared.read_global()
            assert np.array_equal(rh, h) and np.array_equal(ru, u)

            owner = partition_cells(mesh3, 2)
            lm = build_local_mesh(mesh3, owner, 0)
            local = shared.read_local(lm)
            assert np.array_equal(local.h, h[lm.cells_global])

            # publish modified owned values, then refresh a halo from them
            local.h[: lm.n_owned_cells] += 1.0
            shared.publish_owned(lm, local)
            assert np.array_equal(
                shared.h[lm.cells_global[: lm.n_owned_cells]],
                local.h[: lm.n_owned_cells],
            )
            other = build_local_mesh(mesh3, owner, 1)
            peer = shared.read_local(other)
            halo = State(h=peer.h.copy(), u=peer.u.copy())
            halo.h[other.n_owned_cells :] = 0.0
            shared.refresh_halo(other, halo)
            assert np.array_equal(
                halo.h[other.n_owned_cells :],
                shared.h[other.cells_global[other.n_owned_cells :]],
            )
        finally:
            shared.close()
            shared.unlink()

    def test_pickle_reattaches_by_name(self, mesh3):
        import pickle

        shared = SharedState.create(8, 4)
        try:
            shared.h[:] = np.arange(8.0)
            clone = pickle.loads(pickle.dumps(shared))
            assert clone.name == shared.name
            assert np.array_equal(clone.h, shared.h)
            clone.close()
        finally:
            shared.close()
            shared.unlink()


class TestPoolRuns:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_bitwise_equal_tc2(self, mesh3, n_ranks):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_schedule="static"
        )
        res = _serial(mesh3, case, cfg, steps=5)
        with PoolShallowWater(
            mesh3, n_ranks, case, cfg, barrier_timeout=TIMEOUT
        ) as pool:
            pres = pool.run(5)
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    @pytest.mark.parametrize("halo_schedule", ["static", "dataflow"])
    def test_more_ranks_than_cores_bitwise_and_bounded(self, mesh3, halo_schedule):
        """Four spin-waiting ranks on the two cores of the usual host: the
        waits must hand the core over (yield, then nap), so the run neither
        hangs nor crawls, and no bit moves."""
        case = galewsky_jet()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5),
            backend="sparse", plan=True, halo_schedule=halo_schedule,
        )
        res = _serial(mesh3, case, cfg, steps=20)
        t0 = time.perf_counter()
        with PoolShallowWater(mesh3, 4, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(20)
        assert time.perf_counter() - t0 < TIMEOUT
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_bitwise_equal_tc5_high_order(self, mesh3):
        case = isolated_mountain()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5), thickness_adv_order=4,
            halo_schedule="static",
        )
        res = _serial(mesh3, case, cfg, steps=4)
        with PoolShallowWater(mesh3, 4, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(4)
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_matches_lockstep_and_counts_exchanges(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_schedule="static"
        )
        dec = DecomposedShallowWater(mesh3, 2, case, cfg)
        dres = dec.run(3)
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(3)
            # Figure 2: two exchanges per substage, four substages per step.
            assert pool.exchange_count == 8 * 3
        assert np.array_equal(pres.state.h, dres.state.h)
        assert np.array_equal(pres.state.u, dres.state.u)

    def test_run_result_contract(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=3)
        dec = DecomposedShallowWater(mesh3, 2, case, cfg)
        dres = dec.run(3)
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(3)
        for r in (dres, pres):
            assert r.steps == 3
            assert r.elapsed_seconds == pytest.approx(3 * cfg.dt)
            assert len(r.invariant_history) == 2
            assert r.reconstruction is not None
            # identical states => identical drifts (diagnostics are pure)
            assert r.mass_drift() == pytest.approx(res.mass_drift(), abs=1e-15)
            assert r.energy_drift() == pytest.approx(res.energy_drift(), rel=1e-6)

    def test_step_batches_compose(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=4)
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pool.step()
            pool.run(2)
            pool.step()
            gathered = pool.gather_state()
        assert np.array_equal(gathered.h, res.state.h)
        assert np.array_equal(gathered.u, res.state.u)


class TestPoolRecovery:
    def test_worker_death_is_bitwise_invisible(self, mesh3):
        """A rank that died between two calls is respawned by the next one,
        which then lands bitwise where an unbroken run lands."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=4)
        pres, respawns, took = _killed_between_calls(mesh3, case, cfg)
        # the survivor is aborted when the death is seen, not at the timeout
        assert took < RECOVERY_BOUND
        assert respawns >= 1
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_one_death_respawns_one_rank(self, mesh3, n_ranks):
        """The survivors the abort word releases ack ``broken``: the batch
        is retried, but only the killed rank gets a new process."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=4)
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(mesh3, n_ranks, case, cfg, barrier_timeout=5.0) as pool:
                pool.run(1)
                pids = [proc.pid for proc in pool._workers]
                _kill(pool, 1)
                pres = pool.run(3)
                after = [proc.pid for proc in pool._workers]
            assert _respawns(registry) == 1
        assert after[1] != pids[1]
        assert after[:1] + after[2:] == pids[:1] + pids[2:]
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_respawn_budget_exhausted_raises(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_retries=0
        )
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:
            _kill(pool, 0)
            t0 = time.perf_counter()
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                pool.run(2)
            assert time.perf_counter() - t0 < RECOVERY_BOUND
            assert pool._closed

    def test_idle_death_without_budget_raises(self, mesh3):
        """With ``halo_retries=0`` a rank that died between two calls ends
        the next call with the budget error, not a broken pipe."""
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_retries=0
        )
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:
            pool.run(1)
            _kill(pool, 1)
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                pool.run(3)
            assert pool._closed

    def test_every_rank_dead_between_calls_recovers_bitwise(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=4)
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:
                pool.run(1)
                _kill(pool, 0)
                _kill(pool, 1)
                pres = pool.run(3)
            assert _respawns(registry) == 2
            (row,) = [
                ln for ln in render_resilience_report(registry, "pool").splitlines()
                if "resilience.pool.respawn" in ln
            ]
            assert row.split("|")[-1].strip() == "2"
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_the_respawn_budget_is_per_call(self, mesh3):
        """One retry per call survives one death in each of two calls."""
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6), halo_retries=1
        )
        res = _serial(mesh3, case, cfg, steps=4)
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:
                pool.run(1)
                _kill(pool, 1)
                pool.run(1)
                _kill(pool, 0)
                pres = pool.run(2)
            (retries,) = registry.series("resilience.recovery.retry")
            assert retries.value == 2
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_a_rank_dead_before_the_metrics_merge_is_skipped(self, mesh3):
        """The merge takes the survivors' metrics; the dead rank's died
        with it, and the committed state is still whole in the segment."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        res = _serial(mesh3, case, cfg, steps=1)
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:
                pool.advance(1)
                _kill(pool, 1)
                pool.merge_observability()
                state = pool.gather_state()
            ranks = {
                rec["tags"]["rank"]
                for rec in registry.snapshot()
                if rec["metric"] == "pool.worker.steps"
            }
        assert ranks == {0}
        assert np.array_equal(state.h, res.state.h)
        assert np.array_equal(state.u, res.state.u)

    def test_a_death_after_the_last_batch_does_not_fail_the_run(self, mesh3):
        """A rank killed from the last step's callback, after its batch and
        before the run loop merges metrics: the run ends with its state,
        and the next call respawns the rank and goes on bitwise."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        two = _serial(mesh3, case, cfg, steps=2)
        four = _serial(mesh3, case, cfg, steps=4)
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=5.0) as pool:

            def kill_at_the_end(step, _result):
                if step == 2:
                    _kill(pool, 1)

            model = ShallowWaterModel(mesh3, cfg, executor=pool)
            pres = model.run(steps=2, callback=kill_at_the_end)
            assert pres.steps == 2
            assert np.array_equal(pres.state.h, two.state.h)
            assert np.array_equal(pres.state.u, two.state.u)
            pres = pool.run(2)
        assert np.array_equal(pres.state.h, four.state.h)
        assert np.array_equal(pres.state.u, four.state.u)

    @pytest.mark.parametrize("halo_schedule", ["static", "dataflow"])
    def test_numerical_failure_is_reported_not_respawned(
        self, mesh3, halo_schedule
    ):
        """A blow-up inside a worker is the model failing, not the worker:
        the cause reaches the caller as ``FloatingPointError`` (like serial
        and lockstep), after one attempt and zero respawns."""
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=40.0 * suggested_dt(mesh3, case, GRAVITY),
            halo_schedule=halo_schedule,
        )
        with use_registry(MetricsRegistry()) as registry:
            with pytest.raises(
                FloatingPointError,
                match=r"rank \d failed at step \d+: non-positive h_vertex",
            ):
                with PoolShallowWater(
                    mesh3, 2, case, cfg, barrier_timeout=TIMEOUT
                ) as pool:
                    pool.run(20)
            counted = {
                rec["metric"]: rec["value"]
                for rec in registry.snapshot()
                if rec["metric"].startswith("resilience.")
            }
        assert counted.get("resilience.pool.respawn", 0) == 0
        assert counted.get("resilience.recovery.retry", 0) == 0
        assert pool._closed

    def test_closed_pool_rejects_work(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        pool = PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.run(1)


class TestPoolObservability:
    def test_worker_metrics_and_spans_merge_with_rank_tags(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        with use_registry(MetricsRegistry()) as registry:
            with use_tracer(Tracer(enabled=True)) as tracer:
                with PoolShallowWater(
                    mesh3, 2, case, cfg, barrier_timeout=TIMEOUT
                ) as pool:
                    pool.run(2)
                span_ranks = {
                    s.tags.get("rank")
                    for s in tracer.finished()
                    if "rank" in s.tags
                }
        snap = registry.snapshot()
        exchanges = {
            rec["tags"]["rank"]: rec["value"]
            for rec in snap
            if rec["metric"] == "halo.exchanges" and "rank" in rec["tags"]
        }
        # every rank contributed its 4-per-step exchange count
        assert exchanges == {0: 8.0, 1: 8.0}
        assert span_ranks == {0, 1}

    def test_spawn_span_and_worker_ready_times(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        with use_registry(MetricsRegistry()) as registry:
            with use_tracer(Tracer(enabled=True)) as tracer:
                with PoolShallowWater(
                    mesh3, 2, case, cfg, barrier_timeout=TIMEOUT
                ) as pool:
                    pool.run(1)
        (spawn,) = [s for s in tracer.finished() if s.name == "pool.spawn"]
        children = tracer.children(spawn)
        # the parent builds no local mesh: each worker builds its own
        assert [c.name for c in children] == ["partition", "fork", "ready"]
        assert sum(c.duration for c in children) <= spawn.duration
        ready, local_mesh = (
            {s.tags["rank"]: s.value for s in registry.series(name)}
            for name in ("pool.worker.ready_s", "pool.worker.local_mesh_s")
        )
        assert set(ready) == set(local_mesh) == {0, 1}
        # a worker is ready (local mesh + compile + first diagnostics)
        # inside the parent's fork + ready window
        window = sum(c.duration for c in children[1:])
        assert all(0.0 < seconds <= window for seconds in ready.values())
        assert all(0.0 < local_mesh[r] < ready[r] for r in ready)

    def test_both_schedules_run_one_transport_and_time_their_waits(self, mesh3):
        case = steady_zonal_flow()
        seen = {}
        for halo_schedule in ("static", "dataflow"):
            cfg = SWConfig(
                dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6),
                halo_schedule=halo_schedule,
            )
            with use_registry(MetricsRegistry()) as registry:
                with PoolShallowWater(
                    mesh3, 2, case, cfg, barrier_timeout=TIMEOUT
                ) as pool:
                    pool.run(2)
            seen[halo_schedule] = {
                s.tags["transport"] for s in registry.series("pool.worker.ready_s")
            }
            for name in ("halo.wait_s", "halo.overlap_s"):
                per_rank = {
                    s.tags["rank"]: s.value for s in registry.series(name)
                }
                assert set(per_rank) == {0, 1}, (halo_schedule, name)
                assert all(v > 0.0 for v in per_rank.values())
        assert seen["static"] == seen["dataflow"]
        assert len(seen["static"]) == 1

    def test_every_run_on_one_pool_reports_the_same_halo_series(self, mesh3):
        """Each collection clears the worker's registry; the transport must
        count the next run into series that collection will ship."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        runs = []
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT) as pool:
            for _ in range(3):
                with use_registry(MetricsRegistry()) as registry:
                    pool.run(2)
                runs.append({
                    (s.name, s.tags["rank"]): s.value for s in registry.series()
                    if s.name.startswith(("halo.", "pool.worker.steps"))
                    and "rank" in s.tags
                })
        expected = {
            (name, rank)
            for name in (
                "halo.bytes", "halo.exchanges", "halo.wait_s", "halo.overlap_s",
                "pool.worker.steps",
            )
            for rank in (0, 1)
        }
        assert [set(run) for run in runs] == [expected] * 3
        for counted in ("halo.bytes", "halo.exchanges", "pool.worker.steps"):
            assert len({run[counted, 0] for run in runs}) == 1, counted


class TestSharedStateBuffers:
    def test_double_buffer_parity_and_global_write(self, rng):
        shared = SharedState.create(8, 4, n_buffers=2)
        try:
            h = rng.standard_normal(8)
            u = rng.standard_normal(4)
            shared.write_global(h, u)  # seeds *every* buffer
            for seq in range(4):
                rh, ru = shared.read_global(seq)
                assert np.array_equal(rh, h) and np.array_equal(ru, u)

            # buffers at even/odd parity are distinct storage
            h0, _ = shared.buffer(0)
            h1, _ = shared.buffer(1)
            h1[:] = -1.0
            assert np.array_equal(h0, h)
            assert np.array_equal(shared.buffer(3)[0], h1)
            assert np.array_equal(shared.buffer(2)[0], h0)
        finally:
            shared.close()
            shared.unlink()

    def test_pickle_preserves_buffer_count(self):
        import pickle

        shared = SharedState.create(6, 3, n_buffers=2)
        try:
            clone = pickle.loads(pickle.dumps(shared))
            assert clone.n_buffers == 2
            clone.close()
        finally:
            shared.close()
            shared.unlink()


class TestSyncBoard:
    @pytest.fixture()
    def board(self):
        b = SyncBoard.create(3, multiprocessing.get_context("fork"))
        yield b
        b.close()
        b.unlink()

    def test_publish_ack_progress(self, board):
        ranks = np.array([1, 2], dtype=np.int64)
        # nothing published yet: sequence 0 and empty rank sets never block
        board.await_published(np.empty(0, np.int64), 5, timeout=0.1)
        board.await_acked(ranks, 0, timeout=0.1)

        board.mark_published(1, 1)
        board.mark_published(2, 1)
        board.await_published(ranks, 1, timeout=0.5)
        board.mark_acked(1, 1)
        board.mark_acked(2, 1)
        board.await_acked(ranks, 1, timeout=0.5)

    def test_timeout_raises_broken_barrier(self, board):
        with pytest.raises(threading.BrokenBarrierError, match="timed out"):
            board.await_published(np.array([2], np.int64), 1, timeout=0.05)

    def test_unblocks_cross_process(self, board):
        ctx = multiprocessing.get_context("fork")

        def peer(b):
            time.sleep(0.1)
            b.mark_published(2, 7)

        p = ctx.Process(target=peer, args=(board,))
        p.start()
        try:
            board.await_published(np.array([2], np.int64), 7, timeout=5.0)
        finally:
            p.join()
        assert board.pub[2] == 7

    def test_wait_without_publisher_times_out_on_schedule(self, board):
        timeout = 0.3
        t0 = time.perf_counter()
        with pytest.raises(threading.BrokenBarrierError, match="timed out"):
            board.await_published(np.array([1], np.int64), 1, timeout=timeout)
        assert timeout <= time.perf_counter() - t0 <= timeout + 0.5

    @staticmethod
    def _waiter(board, conn):
        """Child: wait for a publish that never comes; report how it ended."""
        board.rejoin()
        conn.send("waiting")
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            board.await_published(np.array([2], np.int64), 1, timeout=30.0)
            outcome = "returned"
        except threading.BrokenBarrierError as exc:
            outcome = str(exc)
        conn.send(
            (outcome, time.perf_counter() - t0, time.process_time() - cpu0)
        )

    def test_blocked_waiter_leaves_at_reset_and_mostly_slept(self, board):
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        p = ctx.Process(target=self._waiter, args=(board, theirs))
        p.start()
        try:
            assert ours.poll(10.0) and ours.recv() == "waiting"
            time.sleep(0.5)
            t_reset = time.perf_counter()
            board.reset()
            assert ours.poll(5.0)
            outcome, waited, cpu = ours.recv()
            left_after = time.perf_counter() - t_reset
        finally:
            p.join(5.0)
        assert not p.is_alive()
        assert "aborted" in outcome
        assert left_after < 0.5
        # spin, then yield, then nap: a waiter of a late peer is not a
        # busy core (a pure busy-wait would burn its whole wait)
        assert cpu < 0.5 * waited

    def test_counters_and_sequence_rewind_together(self, board, mesh3):
        """After a board reset a rank exchanges again only once it has
        rewound its own sequence: an un-rewound transport is refused."""
        from repro.dataflow.schedule import static_halo_schedule
        from repro.parallel.pool import _BoardTransport

        lm = build_local_mesh(mesh3, partition_cells(mesh3, 2), 0)
        shared = SharedState.create(mesh3.nCells, mesh3.nEdges, n_buffers=2)
        try:
            sync = _BoardTransport(
                0, shared, board, 30.0, lm, static_halo_schedule(), (1,), (1,)
            )
            state = shared.read_local(lm)

            def exchange():
                token = sync.begin("post@s1", [state])
                board.mark_published(1, sync.seq)  # the peer keeps pace
                sync.finish(token)
                board.mark_acked(1, sync.seq)

            exchange()
            exchange()
            assert sync.seq == 2 and board.pub[0] == 2 and board.ack[0] == 2

            board.reset()
            assert np.all(board.pub == 0) and np.all(board.ack == 0)
            t0 = time.perf_counter()
            with pytest.raises(threading.BrokenBarrierError, match="aborted"):
                # seq 3 against zeroed counters: the peer is never "there"
                token = sync.begin("post@s1", [state])
                sync.finish(token)
            assert time.perf_counter() - t0 < 0.5  # not the 30 s timeout

            sync.rewind()
            assert sync.seq == 0
            exchange()
            assert sync.seq == 1 and board.pub[0] == 1 and board.ack[0] == 1
        finally:
            shared.close()
            shared.unlink()

    def test_reset_clears_progress_but_keeps_observations(self, board):
        board.mark_published(0, 3)
        board.mark_acked(1, 2)
        board.observe(0, 0.5)
        board.observe(2, 1.5)
        board.reset()
        assert np.all(board.pub == 0) and np.all(board.ack == 0)
        # observed step times survive: the adaptive timeout must not
        # forget how slow this machine is just because a worker died
        assert board.max_observed() == pytest.approx(1.5)
        board.observe(2, 0.2)  # max-tracked, never shrinks
        assert board.max_observed() == pytest.approx(1.5)


class TestPoolDataflow:
    """The ISSUE acceptance gate: pool under the dataflow halo schedule is
    bitwise identical to serial on every backend while exchanging half the
    sync points."""

    @pytest.mark.parametrize(
        "backend_kw",
        [
            dict(),
            dict(backend="sparse"),
            dict(backend="sparse", plan=True),
        ],
        ids=["numpy", "sparse", "plan"],
    )
    def test_galewsky_bitwise_equal_10_steps_4_ranks(self, mesh3, backend_kw):
        case = galewsky_jet()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5),
            thickness_adv_order=4,
            halo_schedule="dataflow",
            **backend_kw,
        )
        res = _serial(mesh3, case, cfg, steps=10)
        with PoolShallowWater(mesh3, 4, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(10)
            assert pool.schedule.mode == "dataflow"
            assert pool.exchange_count == pool.schedule.exchanges_per_step * 10
            assert pool.exchange_count == 4 * 10  # static would be 8 * 10
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    @pytest.mark.parametrize("halo_schedule", ["static", "dataflow"])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_sliced_operators_keep_every_order_bitwise(self, mesh3, order, halo_schedule):
        """Ranks step on row restrictions of the serial plan's operators
        (composed ones at order 4): pool and lockstep stay bitwise serial at
        every thickness order under both schedules."""
        case = galewsky_jet()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5), backend="sparse",
            plan=True, thickness_adv_order=order, halo_schedule=halo_schedule,
        )
        res = _serial(mesh3, case, cfg, steps=3)
        lockstep = DecomposedShallowWater(mesh3, 3, case, cfg).run(3)
        with PoolShallowWater(mesh3, 3, case, cfg, barrier_timeout=TIMEOUT) as pool:
            pres = pool.run(3)
        for got in (lockstep, pres):
            assert np.array_equal(got.state.h, res.state.h)
            assert np.array_equal(got.state.u, res.state.u)

    def test_worker_death_recovers_bitwise_under_dataflow(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6),
            backend="sparse",
            plan=True,
            halo_schedule="dataflow",
        )
        res = _serial(mesh3, case, cfg, steps=4)
        pres, respawns, took = _killed_between_calls(mesh3, case, cfg)
        # the survivor is aborted when the death is seen, not at the timeout
        assert took < RECOVERY_BOUND
        assert respawns >= 1
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)

    def test_halo_metrics_report_thinner_exchanges(self, mesh3):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6),
            halo_schedule="dataflow",
        )
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(
                mesh3, 2, case, cfg, barrier_timeout=TIMEOUT
            ) as pool:
                pool.run(2)
        snap = registry.snapshot()
        exchanges = {
            rec["tags"]["rank"]: rec["value"]
            for rec in snap
            if rec["metric"] == "halo.exchanges" and "rank" in rec["tags"]
        }
        assert exchanges == {0: 8.0, 1: 8.0}  # 4 per step, not 8
        gauges = {
            rec["metric"]: rec["value"]
            for rec in snap
            if rec["metric"].startswith("halo.") and "rank" not in rec["tags"]
        }
        assert gauges["halo.exchanges_per_step"] == 4.0
        assert gauges["halo.bytes_per_step"] > 0.0


class TestAdaptiveTimeout:
    def test_slow_overlap_window_does_not_trigger_recovery(
        self, mesh3, monkeypatch
    ):
        """Regression: a fixed barrier timeout false-triggered worker
        recovery when one rank's compute window ran long.  The dataflow
        sync scales its timeout by the slowest observed step across ranks,
        so a deliberately skewed-slow rank must ride through a timeout that
        is shorter than its own stage time — zero respawns, bitwise state.
        """
        from repro.engine import default_registry

        # Every rank resolves its kernels by name from the registry.
        kernels = default_registry()._kernels
        real = kernels["compute_solve_diagnostics"]

        def skewed(lm, state, f_vertex, config, **kw):
            time.sleep(0.25 * getattr(lm, "rank", 0))
            return real(lm, state, f_vertex, config, **kw)

        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6),
            halo_schedule="dataflow",
        )
        res = _serial(mesh3, case, cfg, steps=2)
        # workers fork after the patch, so they inherit the skewed kernel
        monkeypatch.setitem(kernels, "compute_solve_diagnostics", skewed)
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(
                mesh3, 3, case, cfg, barrier_timeout=0.2
            ) as pool:
                pres = pool.run(2)
            respawns = sum(
                rec["value"]
                for rec in registry.snapshot()
                if rec["metric"] == "resilience.pool.respawn"
            )
        assert respawns == 0
        assert np.array_equal(pres.state.h, res.state.h)
        assert np.array_equal(pres.state.u, res.state.u)


# ------------------------------------------------------------------ start-up
def _leftovers() -> tuple[list[str], set[str]]:
    """Live pool workers, and the shared-memory segments on this host."""
    workers = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-pool-")
    ]
    segments = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return workers, segments


class TestPoolStartup:
    """Every worker builds its own local mesh; the parent keeps the
    partition, and what fails in a worker before ``ready`` reaches the
    caller at construction with nothing left running."""

    @pytest.mark.parametrize(
        "how,message",
        [
            ("raises", r"(?s)pool rank 1 raised:\nTraceback.*"
                       r"RuntimeError: no integrator on rank 1"),
            ("exits", r"exited before ready \(exit codes \{1: 7\}\)"),
        ],
        ids=["raises", "exits"],
    )
    def test_a_worker_failing_before_ready_closes_the_pool(
        self, mesh3, monkeypatch, how, message
    ):
        real = pool_module.RK4Integrator

        def integrator(lm, *args):
            if lm.rank == 1:
                if how == "exits":
                    os._exit(7)
                raise RuntimeError("no integrator on rank 1")
            return real(lm, *args)

        # workers fork after the patch, so they inherit it
        monkeypatch.setattr(pool_module, "RK4Integrator", integrator)
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        _, segments = _leftovers()
        with pytest.raises(WorkerPoolError, match=message):
            PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT)
        workers, after = _leftovers()
        assert workers == [] and after <= segments

    def test_an_exited_rank_always_reports_its_exit_code(self, mesh3, monkeypatch):
        """A rank's sentinel fires before the process is reaped; its exit code
        is read after the join, so it is 7 in every one of 20 constructions
        (reading it first gave ``{1: None}`` in about 1 of 5)."""
        real = pool_module.RK4Integrator

        def integrator(lm, *args):
            if lm.rank == 1:
                os._exit(7)
            return real(lm, *args)

        monkeypatch.setattr(pool_module, "RK4Integrator", integrator)
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        for _ in range(20):
            with pytest.raises(WorkerPoolError, match=r"\(exit codes \{1: 7\}\)$"):
                PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT)

    def test_an_empty_rank_is_refused_before_any_fork(self, mesh3, monkeypatch):
        # The partitioner is called by the decomposition memo, which must not
        # answer from an earlier test's decomposition of this mesh.
        monkeypatch.setattr(halo_module, "_DECOMPOSITIONS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(
            halo_module, "partition_cells",
            lambda mesh, n_ranks: np.zeros(mesh.nCells, dtype=np.int64),
        )
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        _, segments = _leftovers()
        with pytest.raises(ValueError, match=r"^rank 1 owns no cells$"):
            PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT)
        workers, after = _leftovers()
        assert workers == [] and after <= segments

    def test_the_parent_holds_no_local_mesh(self, mesh3):
        """Nothing reachable from a live pool is a ``LocalMesh``: the
        parent's share of a rank is its partition entry and index plan,
        and the plans are dropped once the neighbour sets are derived."""
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.6))
        opaque = (type, types.ModuleType, types.FunctionType)
        with PoolShallowWater(mesh3, 2, case, cfg, barrier_timeout=TIMEOUT) as pool:
            seen, todo, found = set(), [pool], []
            while todo:
                obj = todo.pop()
                if id(obj) in seen or isinstance(obj, opaque):
                    continue
                seen.add(id(obj))
                if isinstance(obj, LocalMesh):
                    found.append(obj.rank)
                todo.extend(gc.get_referents(obj))
            pool.run(1)
        assert found == []
        assert len(seen) > 100  # the walk reached the pool's members


@pytest.fixture(scope="module")
def random_scvt():
    rng = np.random.default_rng(23)
    points = lloyd_relax(normalize(rng.standard_normal((120, 3))), iterations=60)
    return Mesh.from_points(points.points, name="random120-23")


def _oracle_neighbors(mesh, owner, local_meshes):
    """Per-rank ``(providers, consumers)`` read off parent-built local
    meshes, the way the pool derived them before its workers built their
    own: providers own a halo point of the rank, consumers have one of
    its owned points in their halo."""
    edge_owner = np.full(mesh.nEdges, -1, dtype=np.int64)
    for r, lm in enumerate(local_meshes):
        edge_owner[lm.edges_global[: lm.n_owned_edges]] = r
    providers = []
    for r, lm in enumerate(local_meshes):
        owners = np.concatenate([
            owner[lm.cells_global[lm.n_owned_cells :]],
            edge_owner[lm.edges_global[lm.n_owned_edges :]],
        ])
        owners = np.unique(owners[(owners >= 0) & (owners != r)])
        providers.append(tuple(owners.tolist()))
    return [
        (providers[r], tuple(q for q in range(len(local_meshes)) if r in providers[q]))
        for r in range(len(local_meshes))
    ]


def _oracle_halo_bytes(local_meshes, schedule) -> dict[str, float]:
    """The two halo byte gauges, counted on parent-built local meshes."""
    per_exchange = 8.0 * sum(
        lm.nCells - lm.n_owned_cells + lm.nEdges - lm.n_owned_edges
        for lm in local_meshes
    )
    per_step = 0.0
    for lm in local_meshes:
        for point in schedule.points:
            cells = np.count_nonzero((lm.cell_rings >= 1) & (lm.cell_rings <= point.rings))
            edges = np.count_nonzero(lm.edge_rings[lm.n_owned_edges :] <= point.rings)
            per_step += 8.0 * (
                cells * ("h" in point.fields) + edges * ("u" in point.fields)
            )
    return {"halo.bytes_per_exchange": per_exchange, "halo.bytes_per_step": per_step}


class TestParentDerivedTopology:
    """The parent derives the sync-board neighbour sets and the halo byte
    gauges from index plans alone; they equal what parent-built local
    meshes give."""

    @pytest.mark.parametrize("schedule", ["static", "dataflow"])
    @pytest.mark.parametrize("order,layers", [(2, 2), (4, 3)])
    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    @pytest.mark.parametrize("which", ["icos3", "random"])
    def test_neighbors_and_halo_bytes_match_local_meshes(
        self, mesh3, random_scvt, which, n_ranks, order, layers, schedule
    ):
        mesh = mesh3 if which == "icos3" else random_scvt
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(mesh, case, GRAVITY, cfl=0.6),
            thickness_adv_order=order, apvm_upwinding=0.0, halo_schedule=schedule,
        )
        with use_registry(MetricsRegistry()) as registry:
            with PoolShallowWater(
                mesh, n_ranks, case, cfg, barrier_timeout=TIMEOUT
            ) as pool:
                assert pool.halo_layers == layers
        local_meshes = [
            build_local_mesh(mesh, pool.owner, r, halo_layers=layers)
            for r in range(n_ranks)
        ]
        assert pool._neighbors == _oracle_neighbors(mesh, pool.owner, local_meshes)
        gauges = {
            s.name: s.value for s in registry.series()
            if s.name in ("halo.bytes_per_exchange", "halo.bytes_per_step")
        }
        assert gauges == _oracle_halo_bytes(local_meshes, pool.schedule)
