"""Shared-memory process-pool execution of the decomposed model.

:class:`PoolShallowWater` is the concurrent sibling of
:class:`~repro.parallel.runner.DecomposedShallowWater`: the same
decomposition, the same per-rank local meshes, the same Algorithm-1 step —
but each rank lives in its own persistent worker process and genuinely
steps in parallel, the paper's MPI+OpenMP execution model realized with
``multiprocessing``.  The parent compiles (or loads) the global operators
before it forks; a worker slices its rows of them (lanes whose column it
does not hold dropped).  Selected via ``SWConfig(parallel="pool",
ranks=P)`` through :func:`repro.api.run`.

Execution contract (enforced by the test suite): **the owned portion of
every rank's state is bitwise identical to the serial run**, under both
halo schedules.  Each worker runs the one step program
(:func:`repro.swm.timestep.rk4_step`) on the same
:class:`~repro.parallel.halo.LocalMesh` the lockstep runner builds, and
this module only supplies that program's halo transport
(:class:`_BoardTransport`): pure slice copies through a double-buffered
:class:`~repro.parallel.shm.SharedState` segment, ordered by the
publish/acknowledge counters of a :class:`~repro.parallel.shm.SyncBoard`
(no rank ever parks on a barrier), at the sync points the
:class:`~repro.dataflow.schedule.HaloSchedule` keeps.

Worker death (a process killed mid-step or while idle between calls) is
recoverable: the parent sees the exit at once and resets the sync board,
whose abort word sends the survivors out of their waits (a stuck but
living peer is caught by the sync timeout instead); it then restores the
last committed global state, respawns the dead ranks, reloads every
worker and retries the batch — bounded by ``SWConfig.halo_retries``,
counted under ``resilience.pool.*``, and bitwise-invisible.  A rank whose step raises
``FloatingPointError`` acks ``("failed", step, message)``, and one that
raises during start-up acks ``("error", text)``: either closes the pool
and raises once, with no respawn (the same input would fail the same way).

Per-worker observability is private (each worker installs a fresh metrics
registry and tracer at startup) and is merged into the parent's process-wide
registry/tracer when the run loop finishes, tagged ``rank=r``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
from multiprocessing import connection

import numpy as np

from ..dataflow.schedule import halo_schedule_for
from ..engine.plan import kernel_plan
from ..engine.sparse import _COMPILERS, sparse_operator
from ..mesh.mesh import Mesh
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.trace import Tracer, get_tracer, set_tracer, trace_span
from ..swm.config import SWConfig
from ..swm.model import ShallowWaterModel
from ..swm.state import State
from ..swm.testcases import TestCase, coriolis_at_vertices, initialize
from ..swm.timestep import HaloTransport, RK4Integrator, rk4_step
from .halo import (
    LocalIndexPlan,
    LocalMesh,
    decompose,
    exchange_bytes,
    halo_layers_required,
    ring_halo_indices,
    schedule_exchange_bytes,
)
from .shm import SharedState, SyncBoard

__all__ = ["PoolShallowWater", "WorkerPoolError"]

#: Seconds a worker waits at a halo sync before declaring it broken.  A
#: *floor*: the effective timeout also allows ``TIMEOUT_SAFETY`` times the
#: slowest observed compute interval (:meth:`_BoardTransport.refresh_timeout`).
DEFAULT_BARRIER_TIMEOUT = 120.0


class WorkerPoolError(RuntimeError):
    """A pool step failed beyond the bounded respawn budget."""


# ---------------------------------------------------------------- worker side
class _BoardTransport(HaloTransport):
    """One rank's halo transport, for whichever schedule the config selects.

    Each kept sync point is split into a *publish* half (:meth:`begin`)
    and an *acquire* half (:meth:`finish`) so the step program can slot
    compute between them; a point the schedule elides returns ``None`` from
    :meth:`begin` and costs nothing.  The static schedule is simply the
    one that keeps all eight points at full payload.  Moved bytes and
    wait/overlap seconds feed the ``halo.*`` counters, plus one
    ``halo.sync`` span per exchange.
    """

    #: Slowest observed compute intervals a sync allows (:meth:`refresh_timeout`).
    TIMEOUT_SAFETY = 4.0

    def __init__(
        self, rank, shared, board, timeout, lm, schedule, providers, consumers
    ):
        self.rank = rank
        self.shared = shared
        self.board = board
        self.base_timeout = self.timeout = float(timeout)
        self.lm = lm
        self.providers, self.consumers = providers, consumers
        self.points: dict[str, tuple] = {}
        for p in schedule.points:
            cell_idx, edge_idx = ring_halo_indices(lm, p.rings)
            nbytes = 8.0 * cell_idx.size * ("h" in p.fields)
            nbytes += 8.0 * edge_idx.size * ("u" in p.fields)
            self.points[p.name] = (p.fields, cell_idx, edge_idx, nbytes)
        self.bind_counters()
        self.rewind()

    def bind_counters(self) -> None:
        """Resolve the ``halo.*`` series in the installed registry; again
        after every ``registry.clear()``, which orphans the old objects."""
        registry = get_registry()
        self._bytes = registry.counter("halo.bytes", mode="pool")
        self._exchanges = registry.counter("halo.exchanges", mode="pool")
        self._wait_s = registry.counter("halo.wait_s", mode="pool")
        self._overlap_s = registry.counter("halo.overlap_s", mode="pool")

    def rewind(self) -> None:
        """Restart the exchange sequence after a global (re)load: the parent
        reset the board, and only a rank that adopts its new generation
        together with the zeroed sequence may exchange again."""
        self.seq = 0  # kept exchanges completed since the last global load
        self.board.rejoin()

    def refresh_timeout(self) -> None:
        """Fix this step's sync timeout (once per step, not per wait).

        A sync is declared broken only after the slowest rank has had
        several times its worst observed compute interval to arrive: a long
        overlap window must never read as a dead peer.  Cross-rank maximum:
        a fast rank cannot observe how long its slowest peer computes.
        """
        self.timeout = max(
            self.base_timeout, self.TIMEOUT_SAFETY * self.board.max_observed()
        )

    def begin(self, name: str, states):
        """Publish the rank's owned slices for sync point ``name``.

        Returns an opaque token for :meth:`finish`, or ``None`` when the
        schedule elides the point.  Blocks only until the target buffer's
        previous occupant is drained by every consumer of this rank.
        """
        entry = self.points.get(name)
        if entry is None:
            return None
        (state,) = states
        self.seq += 1
        t0 = time.perf_counter()
        self.board.await_acked(
            self.consumers, self.seq - self.shared.n_buffers, self.timeout
        )
        self.shared.publish_owned(self.lm, state, seq=self.seq, fields=entry[0])
        self.board.mark_published(self.rank, self.seq)
        return (name, state, self.seq, t0, time.perf_counter())

    def writes(self, name: str) -> bool:
        return name in self.points

    def finish(self, token) -> None:
        """Acquire the peers' slices: refresh the halo of ``begin``'s state."""
        name, state, seq, t0, t_pub = token
        fields, cell_idx, edge_idx, nbytes = self.points[name]
        t1 = time.perf_counter()
        self.board.await_published(self.providers, seq, self.timeout)
        self.shared.refresh_halo(
            self.lm, state, seq=seq, fields=fields,
            cell_idx=cell_idx, edge_idx=edge_idx,
        )
        self.board.mark_acked(self.rank, seq)
        t2 = time.perf_counter()
        wait = (t_pub - t0) + (t2 - t1)
        overlap = t1 - t_pub
        self._bytes.inc(nbytes)
        self._exchanges.inc()
        self._wait_s.inc(wait)
        self._overlap_s.inc(overlap)
        tracer = get_tracer()
        if tracer.enabled:
            end = tracer.now()
            tracer.add_span(
                "halo.sync", end - (t2 - t0), end, category="halo",
                sync=name, vars=",".join(fields), bytes_est=nbytes,
                wait_s=round(wait, 9), overlap_s=round(overlap, 9),
            )


def _worker_main(
    rank: int,
    conn,
    shared: SharedState,
    board: SyncBoard,
    barrier_timeout: float,
    mesh: Mesh,
    plan: LocalIndexPlan,
    b_cell: np.ndarray,
    f_vertex: np.ndarray,
    config: SWConfig,
    schedule,
    neighbors: tuple[tuple, tuple],
    trace_enabled: bool,
) -> None:
    """Persistent worker loop: own rank state, obey parent commands.

    Start-up builds this rank's local mesh from its index ``plan``, its
    integrator (slicing the operators the parent compiled) and first
    diagnostics, acked ``("ready", rank)`` — or ``("error", text)`` if it
    raised.  Commands (over the pipe): ``("steps", n)`` advance ``n`` RK-4
    steps, acked ``("ok", n)``, ``("broken", at_step)`` after a broken sync,
    or ``("failed", at_step, message)`` when the step itself raised
    ``FloatingPointError``; ``("load", base_step, dt)`` re-slice the local
    state from the shared segment under the parent's ``dt`` (recovery and
    rollback resynchronization);
    ``("obs",)`` ship-and-clear this worker's metrics snapshot and finished
    tracer spans; ``("stop",)`` exit.  The parent reads states out of the
    shared segment, never a pipe.

    A :class:`_BoardTransport` drives the kept sync points of ``schedule``
    (static or dataflow) against the ``neighbors = (providers, consumers)``
    rank sets; the step is :func:`repro.swm.timestep.rk4_step`.
    """
    t_start = time.perf_counter()
    # A SIGKILLed parent cannot tell its workers anything, and under the
    # fork start method each later worker inherits the pipe write-ends of
    # the earlier ones — so no worker ever sees EOF on its command pipe
    # and the rank set would outlive the run as orphans.  Watch the parent
    # directly instead: when it dies we are re-parented, and this process
    # must go too (the durable-run resume spawns a fresh pool).
    parent_pid = os.getppid()

    def _watch_parent() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(0)
            time.sleep(0.5)

    threading.Thread(
        target=_watch_parent, name="parent-watch", daemon=True
    ).start()

    # Private per-process observability: never double-count series that
    # were forked from the parent.
    registry = MetricsRegistry()
    set_registry(registry)
    set_tracer(Tracer(enabled=trace_enabled))

    try:
        t_mesh = time.perf_counter()  # the mesh view and its operator slices
        lm = LocalMesh(parent=mesh, **vars(plan))
        integ = RK4Integrator(
            lm, config, b_cell[lm.cells_global], f_vertex[lm.vertices_global]
        )
        registry.gauge("pool.worker.local_mesh_s").set(time.perf_counter() - t_mesh)
        sync = _BoardTransport(
            rank, shared, board, barrier_timeout, lm, schedule, *neighbors
        )
        t_diag = time.perf_counter()
        state = shared.read_local(lm)
        diag = integ.diagnostics_for(state)
    except Exception:  # the parent closes the pool and raises the text
        conn.send(("error", traceback.format_exc()))
        return
    # Seed the adaptive-timeout estimate before any peer can wait on this
    # rank: the startup diagnostics is one full compute interval.
    board.observe(rank, time.perf_counter() - t_diag)
    step_no = 0
    registry.gauge(
        "pool.worker.ready_s", transport=type(sync).__name__, schedule=schedule.mode
    ).set(time.perf_counter() - t_start)
    conn.send(("ready", rank))
    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == "steps":
            n = msg[1]
            try:
                for _ in range(n):
                    step_no += 1
                    # Every rank's previous observe is on the board by now.
                    sync.refresh_timeout()
                    t_step = time.perf_counter()
                    with trace_span("pool_step", category="pool", step=step_no):
                        (state,), (diag,) = rk4_step(
                            [integ], [state], [diag], transport=sync
                        )
                    board.observe(rank, time.perf_counter() - t_step)
                    registry.counter("pool.worker.steps").inc()
                conn.send(("ok", n))
            except threading.BrokenBarrierError:
                conn.send(("broken", step_no))
            except FloatingPointError as exc:
                # The model blew up, the worker did not: report the
                # cause instead of dying with it.
                conn.send(("failed", step_no, str(exc)))
        elif cmd == "load":
            integ.config = dataclasses.replace(integ.config, dt=msg[2])
            state = shared.read_local(lm)
            diag = integ.diagnostics_for(state)
            step_no = msg[1]
            sync.rewind()  # the board was reset with the reload
            conn.send(("loaded", rank))
        elif cmd == "obs":
            tracer = get_tracer()
            conn.send((
                "obs",
                registry.snapshot(),
                [s.to_dict() for s in tracer.finished()],
            ))
            registry.clear()
            sync.bind_counters()
            tracer.clear()
        elif cmd == "stop":
            conn.send(("bye", rank))
            break
        else:  # pragma: no cover - protocol error
            conn.send(("error", f"unknown command {cmd!r}"))
            break
    shared.close()
    board.close()
    conn.close()


# ---------------------------------------------------------------- parent side
class PoolShallowWater:
    """P concurrent worker ranks stepping the decomposed shallow-water model.

    Construction partitions the mesh, discretizes the test case globally,
    seeds the shared segment with the initial state and spawns one
    persistent worker per rank (``fork`` start method where available,
    ``spawn`` otherwise — all worker arguments are picklable).  Use as a
    context manager, or call :meth:`close` explicitly.

    Parameters mirror :class:`~repro.parallel.runner.DecomposedShallowWater`
    plus ``barrier_timeout`` (how long a sync waits on a silent peer).
    """

    def __init__(
        self,
        mesh: Mesh,
        n_ranks: int,
        case: TestCase,
        config: SWConfig,
        halo_layers: int | None = None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        self.mesh = mesh
        self.config = config
        self.n_ranks = n_ranks
        self.barrier_timeout = float(barrier_timeout)
        if halo_layers is None:
            halo_layers = halo_layers_required(
                config.thickness_adv_order, config.apvm_upwinding != 0.0
            )
        self.halo_layers = halo_layers
        # One span: three named children; IC, segments, operators are self time.
        with trace_span("pool.spawn", category="pool", ranks=n_ranks):
            with trace_span("partition", category="pool"):
                # Index plans only: each worker builds its own local mesh.
                self.owner, self._plans = decompose(mesh, n_ranks, halo_layers)

            global_state, self.b_cell = initialize(mesh, case)
            self.f_vertex = coriolis_at_vertices(mesh, case, config)

            #: The halo schedule every rank executes (static or dataflow).
            self.schedule = halo_schedule_for(config)

            self._shared = SharedState.create(mesh.nCells, mesh.nEdges, n_buffers=2)
            self._shared.write_global(global_state.h, global_state.u)
            # Kept exchanges completed since the last global load: selects the
            # buffer holding the committed state (`seq % n_buffers`).
            self._exchanges_done = 0
            self._snapshot = self._shared.read_global()

            methods = multiprocessing.get_all_start_methods()
            self._ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._board = SyncBoard.create(n_ranks, self._ctx)
            # Per rank: whose publishes it awaits before reading its halo,
            # and whose acks before overwriting a buffer (full halo depth).
            self._neighbors = [
                (p.providers, tuple(q.rank for q in self._plans if p.rank in q.providers))
                for p in self._plans
            ]
            self._workers: list = [None] * n_ranks
            self._conns: list = [None] * n_ranks
            self._closed = False
            self._steps_done = 0
            self.exchange_count = 0

            registry = get_registry()
            registry.gauge(
                "halo.bytes_per_exchange", ranks=n_ranks, mode="pool"
            ).set(exchange_bytes(self._plans))
            registry.gauge(
                "halo.exchanges_per_step", ranks=n_ranks, mode="pool",
                schedule=self.schedule.mode,
            ).set(self.schedule.exchanges_per_step)
            registry.gauge(
                "halo.bytes_per_step", ranks=n_ranks, mode="pool",
                schedule=self.schedule.mode,
            ).set(schedule_exchange_bytes(self._plans, self.schedule))
            self._respawns = registry.counter("resilience.pool.respawn", ranks=n_ranks)
            self._retries = registry.counter(
                "resilience.recovery.retry", site="pool.step", ranks=n_ranks
            )

            # The global operators, compiled or loaded here once: workers slice them.
            if config.backend == "sparse" and kernel_plan(mesh, config) is None:
                for op in _COMPILERS.keys() - {"velocity_reconstruction"}:
                    sparse_operator(mesh, op)
            with trace_span("fork", category="pool"):
                for r in range(n_ranks):
                    self._spawn(r)
            with trace_span("ready", category="pool"):
                dead = self._await("ready", range(n_ranks))
            if dead:
                # A sentinel fires before the process is reaped: close()
                # joins every worker, and only then is an exit code final.
                self.close()
                codes = {r: self._workers[r].exitcode for r in dead}
                raise WorkerPoolError(f"ranks exited before ready (exit codes {codes})")

    # ----------------------------------------------------------- process mgmt
    def _spawn(self, rank: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                rank, child_conn, self._shared, self._board,
                self.barrier_timeout, self.mesh, self._plans[rank],
                self.b_cell, self.f_vertex, self.config, self.schedule,
                self._neighbors[rank], get_tracer().enabled,
            ),
            daemon=True,
            name=f"repro-pool-rank{rank}",
        )
        proc.start()
        child_conn.close()
        self._workers[rank] = proc
        self._conns[rank] = parent_conn

    def _await(self, expected: str, ranks) -> dict[int, str]:
        """Collect one ack per rank; returns the ranks that acked something
        else, each with the first word of its ack (``"exited"``: it died).

        Blocks on the pending pipes and process sentinels together, so an
        ack and a death are both seen as they happen; the first rank that
        misses resets the board, whose abort word sends every survivor out
        of its wait with a ``("broken", step)`` ack (recovery latency is
        detection latency, not the sync timeout).
        A ``("failed", step, message)`` ack is a numerical failure, not a
        death: the board is reset at once (peers may be blocked on the
        failed rank's next publish), the other acks are collected and
        ``FloatingPointError`` raised; the pool stays up, so a watchdog
        rollback can :meth:`load_state` its anchor.  An ``("error", text)``
        ack — a worker that raised during start-up — tears the pool down
        and raises :class:`WorkerPoolError`.
        """
        pending = set(ranks)
        missed: dict[int, str] = {}
        failure = None
        while pending:
            waitable = {}
            for r in pending:
                waitable[self._conns[r]] = waitable[self._workers[r].sentinel] = r
            for r in sorted({waitable[w] for w in connection.wait(list(waitable))}):
                pending.discard(r)
                conn = self._conns[r]
                try:
                    # Nothing to read means only the sentinel fired.
                    msg = conn.recv() if conn.poll() else ("exited",)
                except (EOFError, OSError):
                    msg = ("exited",)
                if msg[0] == "error":
                    for proc in self._workers:
                        proc.terminate()
                    self.close()
                    raise WorkerPoolError(f"pool rank {r} raised:\n{msg[1]}")
                if msg[0] == "failed" and failure is None:
                    self._board.reset()
                    failure = FloatingPointError(
                        f"pool rank {r} failed at step {msg[1]}: {msg[2]}"
                    )
                elif msg[0] != expected and failure is None:
                    if not missed:
                        self._board.reset()
                    missed[r] = msg[0]
        if failure is not None:
            raise failure
        return missed

    def _broadcast(self, message: tuple, ranks=None) -> None:
        for r in ranks if ranks is not None else range(self.n_ranks):
            with contextlib.suppress(ConnectionError):  # died idle: see _await
                self._conns[r].send(message)

    def _recover(self, missed: dict[int, str]) -> None:
        """Respawn the ranks lost in a failed batch and reload every rank
        from the last committed state.  A survivor the board's abort word
        released acked ``"broken"`` and keeps its process; a rank that
        exited, or acked anything else while alive, is replaced."""
        dead = [
            r for r, reply in missed.items()
            if reply != "broken" or not self._workers[r].is_alive()
        ]
        for r in dead:
            proc = self._workers[r]
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
            self._conns[r].close()
        self._reload(*self._snapshot, self._steps_done, respawn=dead)

    def _reload(self, h, u, step: int, respawn=()) -> None:
        """Write the global state into every buffer of the segment, rewind
        the exchange bookkeeping (buffer selection restarts at seq 0), spawn
        the ranks in ``respawn`` and have every rank re-slice its local
        state at ``step`` under ``config.dt`` (a rollback has halved it)."""
        self._shared.write_global(h, u)
        self._exchanges_done = 0
        self._board.reset()
        self._snapshot = self._shared.read_global()
        self._steps_done = step
        for r in respawn:
            self._respawns.inc()
            self._spawn(r)
        still_dead = self._await("ready", respawn)
        if still_dead:
            raise WorkerPoolError(f"respawned ranks died again: {sorted(still_dead)}")
        self._broadcast(("load", step, self.config.dt))
        lost = self._await("loaded", range(self.n_ranks))
        if lost:
            raise WorkerPoolError(f"ranks lost during reload: {sorted(lost)}")

    # ------------------------------------------------------------------- run
    def step(self) -> None:
        """Advance one RK-4 step across all ranks (concurrently)."""
        self._run_steps(1)

    def run(self, steps: int):
        """Integrate ``steps`` steps through the one run loop; returns the
        gathered :class:`~repro.swm.model.RunResult`."""
        return ShallowWaterModel(self.mesh, self.config, executor=self).run(steps=steps)

    def advance(self, steps: int) -> None:
        """Advance ``steps`` RK-4 steps without gathering."""
        self._run_steps(steps)

    def load_state(self, state: State, step: int = 0) -> None:
        """Replace the global state on every rank (resume and rollback).

        The same reload a worker-death recovery ends with
        (:meth:`_reload`), from a restored checkpoint or rollback anchor
        instead of the last committed state.
        """
        if self._closed:
            raise WorkerPoolError("pool is closed")
        self._reload(state.h, state.u, step)

    def _run_steps(self, steps: int) -> None:
        if self._closed:
            raise WorkerPoolError("pool is closed")
        if steps <= 0:
            raise ValueError("steps must be positive")
        budget = self.config.halo_retries
        attempt = 0
        while True:
            self._broadcast(("steps", steps))
            missed = self._await("ok", range(self.n_ranks))
            if not missed:
                break
            if attempt >= budget:
                self.close()
                raise WorkerPoolError(
                    f"ranks {sorted(missed)} failed and the respawn budget "
                    f"({budget} retries) is exhausted"
                )
            attempt += 1
            self._retries.inc()
            self._recover(missed)
        self._steps_done += steps
        # Every exchange of the batch completed on every rank; the final
        # exchange published each rank's accepted state, so the buffer of
        # the last exchange now holds the committed global state.
        self._exchanges_done += self.schedule.exchanges_per_step * steps
        self.exchange_count += self.schedule.exchanges_per_step * steps
        self._snapshot = self._shared.read_global(self._exchanges_done)

    # ------------------------------------------------------------- gathering
    def gather_state(self) -> State:
        """The global state assembled in the shared segment (private copy)."""
        if self._closed:
            raise WorkerPoolError("pool is closed")
        h, u = self._shared.read_global(self._exchanges_done)
        return State(h=h, u=u)

    def merge_observability(self) -> None:
        """Pull per-worker metrics/spans into the parent registry/tracer."""
        registry = get_registry()
        tracer = get_tracer()
        self._broadcast(("obs",))
        for r in range(self.n_ranks):
            conn = self._conns[r]
            try:  # a rank that died since its last batch took its metrics along
                msg = conn.recv() if conn.poll(self.barrier_timeout) else ("hang",)
            except (EOFError, OSError):
                continue
            if msg[0] != "obs":  # pragma: no cover - hang or protocol error
                continue
            registry.merge_snapshot(msg[1], rank=r)
            tracer.merge_records(msg[2], rank=r)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the workers and release the shared segment (idempotent).

        Every live worker is told to stop before any is joined, so the
        ranks shut down concurrently."""
        if self._closed:
            return
        self._closed = True
        started = [(p, c) for p, c in zip(self._workers, self._conns) if p is not None]
        for proc, conn in started:
            try:
                if proc.is_alive():
                    conn.send(("stop",))
            except OSError:  # the worker died since the check
                pass
        for proc, conn in started:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()
        self._shared.close()
        self._shared.unlink()
        self._board.close()
        self._board.unlink()

    def __enter__(self) -> "PoolShallowWater":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
