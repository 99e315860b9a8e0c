"""Shared-memory process-pool execution of the decomposed model.

:class:`PoolShallowWater` is the concurrent sibling of
:class:`~repro.parallel.runner.DecomposedShallowWater`: the same
partitioning, the same per-rank local meshes, the same Algorithm-1 step —
but each rank lives in its own persistent worker process and genuinely
steps in parallel, the paper's MPI+OpenMP execution model realized with
``multiprocessing``.  Selected via ``SWConfig(parallel="pool", ranks=P)``
through :func:`repro.api.run`.

Execution contract (enforced by the test suite): **the owned portion of
every rank's state is bitwise identical to the serial run**.  This holds
because each worker runs the one step program
(:func:`repro.swm.timestep.rk4_step`) on one
:class:`~repro.swm.timestep.RK4Integrator` built over the same
:class:`~repro.parallel.halo.LocalMesh` the lockstep runner uses, and this
module only supplies that program's halo transport: values move by pure
slice copies through a :class:`~repro.parallel.shm.SharedState` segment at
exactly the Algorithm-1 synchronization points.

Both halo schedules run through one transport (:class:`_BoardTransport`)
over a double-buffered segment and the publish/acknowledge counters of a
:class:`~repro.parallel.shm.SyncBoard`; no rank ever parks on a barrier.
Each kept exchange is split around compute — a rank publishes its owned
slices the moment the substate exists (``begin``), the step program runs
the RK accumulation while its peers drain the exchange, and the halo is
acquired at the last point before it is read (``finish``).  The two
schedules differ only in the :class:`~repro.dataflow.schedule.HaloSchedule`
value handed to the transport, which says which of the 8 sync points exist
and what they move: under the default ``SWConfig(halo_schedule="dataflow")``
(:func:`repro.dataflow.schedule.derive_halo_schedule`) only those whose
halo the step graph cannot prove clean, moving only the variables the
schedule names; under ``halo_schedule="static"`` all of them at full
payload.  The owned state is bitwise identical to the serial run under both.

Worker death (a crashed process, an ``os._exit`` mid-step) is recoverable:
the parent sees the process exit at once and resets the sync board, whose
abort word sends the surviving workers out of their waits to report back
(a stuck but living peer is caught by the sync timeout instead); the
parent then restores the last committed global state into the shared segment,
respawns the dead ranks, reloads every worker and retries the batch —
bounded by ``RecoveryPolicy.halo_retries`` (a dead worker is a lost halo
peer), counted under ``resilience.pool.*``.  A successful retry is
bitwise-invisible, like every other recovery in this repo.  A *numerical*
failure is not a dead worker: a rank whose step raises
``FloatingPointError`` acks ``("failed", step, message)``, and the parent
closes the pool and raises ``FloatingPointError`` naming rank, step and
cause — once, with no respawn (the same input would fail the same way).

Per-worker observability is private (each worker installs a fresh metrics
registry and tracer at startup) and is merged into the parent's process-wide
registry/tracer when the run loop finishes, tagged ``rank=r``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import connection

import numpy as np

from ..dataflow.schedule import halo_schedule_for
from ..mesh.mesh import Mesh
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.trace import Tracer, get_tracer, set_tracer, trace_span
from ..swm.config import SWConfig
from ..swm.model import ShallowWaterModel
from ..swm.state import State
from ..swm.testcases import TestCase, initialize
from ..swm.timestep import HaloTransport, RK4Integrator, rk4_step
from .halo import (
    build_local_mesh,
    exchange_bytes,
    halo_layers_required,
    ring_halo_indices,
    schedule_exchange_bytes,
)
from .partition import partition_cells
from .shm import SharedState, SyncBoard

__all__ = ["PoolShallowWater", "WorkerPoolError"]

#: Seconds a worker waits at a halo sync before declaring it broken.  A
#: *floor*: the effective timeout also allows ``TIMEOUT_SAFETY`` times the
#: slowest observed compute interval (:meth:`_BoardTransport._timeout`).
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

    #: Slowest observed compute intervals a sync allows (:meth:`_timeout`).
    TIMEOUT_SAFETY = 4.0

    def __init__(
        self, rank, shared, board, timeout, lm, schedule, providers, consumers
    ):
        self.rank = rank
        self.shared = shared
        self.board = board
        self.base_timeout = float(timeout)
        self.lm = lm
        self.providers, self.consumers = providers, consumers
        self.points: dict[str, tuple] = {}
        for p in schedule.points:
            cell_idx, edge_idx = ring_halo_indices(lm, p.rings)
            nbytes = 8.0 * (
                (cell_idx.size if "h" in p.fields else 0)
                + (edge_idx.size if "u" in p.fields else 0)
            )
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

    def _timeout(self) -> float:
        # A sync is declared broken only after the slowest rank has had
        # several times its worst observed compute interval to arrive: a long
        # overlap window must never read as a dead peer.  Cross-rank maximum:
        # a fast rank cannot observe how long its slowest peer computes.
        return max(
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
            self.consumers, self.seq - self.shared.n_buffers, self._timeout()
        )
        self.shared.publish_owned(self.lm, state, seq=self.seq, fields=entry[0])
        self.board.mark_published(self.rank, self.seq)
        return (name, state, self.seq, t0, time.perf_counter())

    def finish(self, token) -> None:
        """Acquire the peers' slices: refresh the halo of ``begin``'s state."""
        name, state, seq, t0, t_pub = token
        fields, cell_idx, edge_idx, nbytes = self.points[name]
        t1 = time.perf_counter()
        self.board.await_published(self.providers, seq, self._timeout())
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
    lm,
    b_cell: np.ndarray,
    f_vertex: np.ndarray,
    config: SWConfig,
    schedule,
    neighbors: tuple[tuple, tuple],
    trace_enabled: bool,
    kill_at_step: int | None,
) -> None:
    """Persistent worker loop: own rank state, obey parent commands.

    Commands (over the pipe): ``("steps", n)`` advance ``n`` RK-4 steps,
    acked ``("ok", n)``, ``("broken", at_step)`` after a broken sync, or
    ``("failed", at_step, message)`` when the step itself raised
    ``FloatingPointError``;
    ``("load", base_step)`` re-slice the local state from the shared
    segment (post-recovery resynchronization); ``("obs",)`` ship-and-clear
    this worker's metrics snapshot and finished tracer spans; ``("stop",)``
    exit.  The parent reads states out of the shared segment, never a pipe.

    A :class:`_BoardTransport` drives the kept sync points of ``schedule``
    (static or dataflow) against the ``neighbors = (providers, consumers)``
    rank sets; the step is :func:`repro.swm.timestep.rk4_step`.
    """
    t_start = time.perf_counter()
    from ..resilience.recovery import use_recovery_policy

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

    integ = RK4Integrator(lm, config, b_cell, f_vertex)
    sync = _BoardTransport(
        rank, shared, board, barrier_timeout, lm, schedule, *neighbors
    )
    t_diag = time.perf_counter()
    state = shared.read_local(lm)
    diag = integ.diagnostics_for(state)
    # Seed the adaptive-timeout estimate before any peer can wait on this
    # rank: the startup diagnostics is one full compute interval.
    board.observe(rank, time.perf_counter() - t_diag)
    step_no = 0
    registry.gauge(
        "pool.worker.ready_s", transport=type(sync).__name__, schedule=schedule.mode
    ).set(time.perf_counter() - t_start)
    conn.send(("ready", rank))
    with use_recovery_policy(config.recovery_policy()):
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "steps":
                n = msg[1]
                try:
                    for _ in range(n):
                        step_no += 1
                        if kill_at_step is not None and step_no == kill_at_step:
                            os._exit(3)  # simulated worker crash (tests)
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
                state = shared.read_local(lm)
                diag = integ.diagnostics_for(state)
                step_no = msg[1]
                sync.rewind()  # the board was reset with the reload
                kill_at_step = None  # a test kill fires at most once per spawn
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
    plus ``barrier_timeout`` (how long a sync waits on a silent peer) and the
    test-only ``kill_at`` mapping ``{rank: step}`` that makes a first-
    generation worker exit mid-run to exercise the recovery path.
    """

    def __init__(
        self,
        mesh: Mesh,
        n_ranks: int,
        case: TestCase,
        config: SWConfig,
        halo_layers: int | None = None,
        partition_method: str = "kmeans",
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
        kill_at: dict[int, int] | None = None,
    ) -> None:
        self.mesh = mesh
        self.config = config
        self.n_ranks = n_ranks
        self.barrier_timeout = float(barrier_timeout)
        if halo_layers is None:
            halo_layers = halo_layers_required(
                config.thickness_adv_order, config.apvm_upwinding != 0.0
            )
        kill_at = kill_at or {}
        # One span: four named children; the rest (IC, segments) is self time.
        with trace_span("pool.spawn", category="pool", ranks=n_ranks):
            with trace_span("partition", category="pool"):
                self.owner = partition_cells(mesh, n_ranks, method=partition_method)
            with trace_span("local_mesh", category="pool"):
                self.local_meshes = [
                    build_local_mesh(mesh, self.owner, r, halo_layers=halo_layers)
                    for r in range(n_ranks)
                ]

            global_state, self.b_cell = initialize(mesh, case)
            if case.coriolis is not None:
                self.f_vertex = case.coriolis(mesh.metrics.xVertex)
            else:
                self.f_vertex = config.coriolis(mesh.metrics.latVertex)

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
            self._neighbors = self._neighbor_ranks()
            self._workers: list = [None] * n_ranks
            self._conns: list = [None] * n_ranks
            self._closed = False
            self._steps_done = 0
            self.exchange_count = 0

            registry = get_registry()
            registry.gauge(
                "halo.bytes_per_exchange", ranks=n_ranks, mode="pool"
            ).set(exchange_bytes(self.local_meshes))
            registry.gauge(
                "halo.exchanges_per_step", ranks=n_ranks, mode="pool",
                schedule=self.schedule.mode,
            ).set(self.schedule.exchanges_per_step)
            registry.gauge(
                "halo.bytes_per_step", ranks=n_ranks, mode="pool",
                schedule=self.schedule.mode,
            ).set(schedule_exchange_bytes(self.local_meshes, self.schedule))
            self._respawns = registry.counter("resilience.pool.respawn", ranks=n_ranks)
            self._retries = registry.counter(
                "resilience.recovery.retry", site="pool.step", ranks=n_ranks
            )

            with trace_span("fork", category="pool"):
                for r in range(n_ranks):
                    self._spawn(r, kill_at.get(r))
            with trace_span("ready", category="pool"):
                self._await("ready", range(n_ranks))

    def _neighbor_ranks(self) -> list[tuple[tuple, tuple]]:
        """Per-rank ``(providers, consumers)`` sets for the sync board.

        ``providers[r]`` are the ranks owning any of rank *r*'s halo
        points (whose publishes *r* must await before reading);
        ``consumers[r]`` are the ranks whose halo includes any of *r*'s
        owned points (whose acks *r* must await before overwriting a
        buffer).  Computed at the full halo depth, which bounds every
        ring-limited subset a schedule can refresh.
        """
        edge_owner = np.full(self.mesh.nEdges, -1, dtype=np.int64)
        for r, lm in enumerate(self.local_meshes):
            edge_owner[lm.edges_global[: lm.n_owned_edges]] = r
        providers: list[tuple] = []
        for r, lm in enumerate(self.local_meshes):
            owners = np.concatenate([
                self.owner[lm.cells_global[lm.n_owned_cells :]],
                edge_owner[lm.edges_global[lm.n_owned_edges :]],
            ])
            owners = np.unique(owners[(owners >= 0) & (owners != r)])
            providers.append(tuple(owners.tolist()))
        return [
            (providers[r], tuple(q for q in range(self.n_ranks) if r in providers[q]))
            for r in range(self.n_ranks)
        ]

    # ----------------------------------------------------------- process mgmt
    def _spawn(self, rank: int, kill_at_step: int | None = None) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                rank, child_conn, self._shared, self._board,
                self.barrier_timeout, self.local_meshes[rank],
                self.b_cell[self.local_meshes[rank].cells_global],
                self.f_vertex[self.local_meshes[rank].vertices_global],
                self.config, self.schedule, self._neighbors[rank],
                get_tracer().enabled, kill_at_step,
            ),
            daemon=True,
            name=f"repro-pool-rank{rank}",
        )
        proc.start()
        child_conn.close()
        self._workers[rank] = proc
        self._conns[rank] = parent_conn

    def _await(self, expected: str, ranks) -> list[int]:
        """Collect one ack per rank; returns the ranks that died instead.

        Blocks on the pending pipes and process sentinels together, so an
        ack and a death are both seen as they happen; the first lost rank
        resets the board, whose abort word sends every survivor out of its
        wait (recovery latency is detection latency, not the sync timeout).
        A ``("failed", step, message)`` ack is a numerical failure, not a
        death: the pool is torn down at once (peers may be blocked on the
        failed rank's next publish) and ``FloatingPointError`` raised.
        """
        pending = set(ranks)
        dead: list[int] = []
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
                if msg[0] == "failed":
                    for proc in self._workers:
                        proc.terminate()
                    self.close()
                    raise FloatingPointError(
                        f"pool rank {r} failed at step {msg[1]}: {msg[2]}"
                    )
                if msg[0] != expected:
                    if not dead:
                        self._board.reset()
                    dead.append(r)
        return dead

    def _broadcast(self, message: tuple, ranks=None) -> None:
        for r in ranks if ranks is not None else range(self.n_ranks):
            self._conns[r].send(message)

    def _recover(self, dead: list[int]) -> None:
        """Respawn dead ranks and rewind everyone to the last committed state."""
        for r in set(dead):
            proc = self._workers[r]
            if proc.is_alive():  # acked something unexpected; treat as lost
                proc.terminate()
            proc.join(timeout=10.0)
            self._conns[r].close()
        self._board.reset()
        self._shared.write_global(*self._snapshot)
        self._exchanges_done = 0
        for r in set(dead):
            self._respawns.inc()
            self._spawn(r)
        still_dead = self._await("ready", set(dead))
        if still_dead:
            raise WorkerPoolError(f"respawned ranks died again: {still_dead}")
        survivors = [r for r in range(self.n_ranks) if r not in set(dead)]
        self._broadcast(("load", self._steps_done), survivors)
        lost = self._await("loaded", survivors)
        if lost:
            raise WorkerPoolError(f"ranks lost during recovery reload: {lost}")

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
        """Replace the global state on every rank (resume support).

        Writes ``state`` into the shared segment, rewinds the exchange
        bookkeeping (every buffer of the double-buffered segment gets the
        new state, so buffer selection restarts cleanly at seq 0) and has
        each worker re-slice its local state — the same resynchronization
        the worker-death recovery performs, driven here by a restored
        checkpoint instead of a snapshot.
        """
        if self._closed:
            raise WorkerPoolError("pool is closed")
        self._shared.write_global(state.h, state.u)
        self._exchanges_done = 0
        self._board.reset()
        self._snapshot = self._shared.read_global()
        self._steps_done = step
        self._broadcast(("load", step))
        lost = self._await("loaded", range(self.n_ranks))
        if lost:
            raise WorkerPoolError(f"ranks lost during state load: {lost}")

    def _run_steps(self, steps: int) -> None:
        if self._closed:
            raise WorkerPoolError("pool is closed")
        if steps <= 0:
            raise ValueError("steps must be positive")
        # A dead worker is a lost halo peer; the respawn budget is the same
        # knob that bounds lost-message retries in the lockstep runner.
        budget = self.config.halo_retries
        attempt = 0
        while True:
            self._broadcast(("steps", steps))
            dead = self._await("ok", range(self.n_ranks))
            if not dead:
                break
            if attempt >= budget:
                self.close()
                raise WorkerPoolError(
                    f"ranks {sorted(set(dead))} failed and the respawn budget "
                    f"({budget} retries) is exhausted"
                )
            attempt += 1
            self._retries.inc()
            self._recover(dead)
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
            if not conn.poll(self.barrier_timeout):  # pragma: no cover - hang
                continue
            msg = conn.recv()
            if msg[0] != "obs":  # pragma: no cover - protocol error
                continue
            registry.merge_snapshot(msg[1], rank=r)
            tracer.merge_records(msg[2], rank=r)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the workers and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for r in range(self.n_ranks):
            proc, conn = self._workers[r], self._conns[r]
            if proc is None:
                continue
            try:
                if proc.is_alive():
                    conn.send(("stop",))
                    conn.poll(5.0)
            except (BrokenPipeError, OSError):
                pass
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
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
