"""Shared-memory prognostic state for the process-pool executor.

The pool runner (:mod:`repro.parallel.pool`) holds the *global* prognostic
fields ``h`` (cells) and ``u`` (edges) in one ``multiprocessing.shared_memory``
segment mapped into every worker process.  A halo exchange is then two pure
slice copies per rank — owned slices in, halo slices out — with no
serialization and no parent round-trip, exactly the red synchronization
arrows of Figure 2 priced at memory bandwidth instead of pickling.

Layout: ``n_buffers`` consecutive ``(h, u)`` blocks in one float64 segment
— ``h`` in the first ``n_cells`` slots of each block and ``u`` in the
following ``n_edges``.  The copies are index assignments only (no
arithmetic), so the values that flow through the segment are bitwise
identical to the in-process lockstep exchange
(:class:`repro.parallel.runner.DecomposedShallowWater._exchange`).

The pool double-buffers under both halo schedules: exchange ``i``
(1-based) flows through block ``i % n_buffers``, and the
:class:`SyncBoard` publish/acknowledge counters guarantee a block is
never overwritten while a peer still reads it — the barrier-free
producer/consumer protocol that lets a rank run its RK accumulation while
its peers drain the exchange.

Lifecycle: the parent :meth:`SharedState.create`\\ s and eventually
:meth:`SharedState.unlink`\\ s the segment; workers receive the
``SharedState`` object (inherited directly under ``fork``, re-attached by
name when pickled under ``spawn``) and only ever :meth:`SharedState.close`
their mapping.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

__all__ = ["SharedState", "SyncBoard"]

_FLOAT = np.float64


def _attach_segment(name: str):
    """Map an existing shared-memory segment by name (worker side)."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    # The parent's resource tracker already accounts for this segment;
    # a worker-side attach must not re-register it, or the tracker
    # reports a spurious leak when the worker exits without unlinking.
    try:
        from multiprocessing.resource_tracker import unregister

        unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


class SharedState:
    """The global ``(h, u)`` state in one named shared-memory segment."""

    def __init__(
        self, shm, n_cells: int, n_edges: int, owner: bool, n_buffers: int = 1
    ) -> None:
        self._shm = shm
        self.n_cells = int(n_cells)
        self.n_edges = int(n_edges)
        self.n_buffers = int(n_buffers)
        self._owner = owner
        span = self.n_cells + self.n_edges
        flat = np.ndarray(
            (self.n_buffers * span,), dtype=_FLOAT, buffer=shm.buf
        )
        self._bufs = [
            (flat[b * span : b * span + self.n_cells],
             flat[b * span + self.n_cells : (b + 1) * span])
            for b in range(self.n_buffers)
        ]
        #: Global thickness field of buffer 0, aliased into the segment.
        self.h = self._bufs[0][0]
        #: Global normal-velocity field of buffer 0, aliased into the segment.
        self.u = self._bufs[0][1]

    def buffer(self, seq: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(h, u)`` block of exchange ``seq`` (``seq % n_buffers``)."""
        return self._bufs[int(seq) % self.n_buffers]

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls, n_cells: int, n_edges: int, n_buffers: int = 1
    ) -> "SharedState":
        """Allocate a fresh zeroed segment (parent side; call ``unlink``)."""
        from multiprocessing import shared_memory

        nbytes = 8 * int(n_buffers) * (int(n_cells) + int(n_edges))
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return cls(shm, n_cells, n_edges, owner=True, n_buffers=n_buffers)

    @property
    def name(self) -> str:
        """OS-level segment name (the attach key)."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.h = self.u = self._bufs = None  # release views into the buffer
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; mappings must be closed first)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> tuple:
        # Spawned workers re-attach by name; forked workers never pickle.
        return (self.name, self.n_cells, self.n_edges, self.n_buffers)

    def __setstate__(self, state: tuple) -> None:
        name, n_cells, n_edges, n_buffers = state
        self.__init__(_attach_segment(name), n_cells, n_edges, False, n_buffers)

    # ------------------------------------------------------------ state I/O
    def write_global(self, h: np.ndarray, u: np.ndarray) -> None:
        """Overwrite the whole shared state, in *every* buffer.

        Init and snapshot restore both want all buffers coherent: after a
        reload every rank restarts its exchange sequence at zero, and any
        buffer parity it lands on must hold the committed global state.
        """
        for bh, bu in self._bufs:
            bh[:] = h
            bu[:] = u

    def read_global(self, seq: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Private copies of the full shared fields of exchange ``seq``."""
        bh, bu = self.buffer(seq)
        return bh.copy(), bu.copy()

    def publish_owned(
        self, local_mesh, state, seq: int = 0, fields=("h", "u")
    ) -> None:
        """Phase one of an exchange: write this rank's owned slices.

        ``fields`` names the variables the halo schedule actually moves at
        this sync point; an elided field's block region keeps its previous
        value (nobody reads it — the schedule proved the halo stays clean).
        """
        lm = local_mesh
        bh, bu = self.buffer(seq)
        if "h" in fields:
            bh[lm.cells_global[: lm.n_owned_cells]] = state.h[: lm.n_owned_cells]
        if "u" in fields:
            bu[lm.edges_global[: lm.n_owned_edges]] = state.u[: lm.n_owned_edges]

    def refresh_halo(
        self,
        local_mesh,
        state,
        seq: int = 0,
        fields=("h", "u"),
        cell_idx: np.ndarray | None = None,
        edge_idx: np.ndarray | None = None,
    ) -> None:
        """Phase two of an exchange: read this rank's halo slices.

        ``cell_idx``/``edge_idx`` (local indices) restrict the refresh to
        the schedule's ring-limited halo subset; ``None`` refreshes the
        full halo of the named ``fields``.
        """
        lm = local_mesh
        bh, bu = self.buffer(seq)
        cells = slice(lm.n_owned_cells, None) if cell_idx is None else cell_idx
        edges = slice(lm.n_owned_edges, None) if edge_idx is None else edge_idx
        if "h" in fields:
            state.h[cells] = bh[lm.cells_global[cells]]
        if "u" in fields:
            state.u[edges] = bu[lm.edges_global[edges]]

    def read_local(self, local_mesh, seq: int = 0):
        """This rank's full local state (owned + halo) as private copies."""
        from ..swm.state import State

        lm = local_mesh
        bh, bu = self.buffer(seq)
        return State(
            h=bh[lm.cells_global].copy(), u=bu[lm.edges_global].copy()
        )


#: The wait policy, fixed rather than configured (docs/parallel.md): poll
#: ``SPIN_POLLS`` times back to back, then between ``os.sched_yield()``
#: calls for ``YIELD_SECONDS`` (a runnable peer gets this core at once, so
#: spinning is harmless with more ranks than cores), then between
#: ``NAP_SECONDS`` sleeps (a genuinely late peer costs no busy core).
SPIN_POLLS = 32
YIELD_SECONDS = 2e-3
NAP_SECONDS = 2e-4
_yield = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))  # none on Windows


def _behind(counters: np.ndarray, ranks, seq: int) -> bool:
    """True while any of ``ranks`` has not yet counted up to ``seq``."""
    for r in ranks:
        if counters[r] < seq:
            return True
    return False


class SyncBoard:
    """Publish/acknowledge counters: the pool's one wait primitive.

    Per rank the shared-memory scoreboard holds two monotonically
    increasing ``int64`` exchange counters — ``pub[r]`` (the last exchange
    rank *r* published) and ``ack[r]`` (the last exchange rank *r* finished
    reading) — plus a ``float64`` ``observed[r]`` slot with the longest
    compute interval rank *r* has measured (the cross-rank input to the
    adaptive sync timeout), and one ``int64`` *abort word* shared by all.

    The protocol (``n_buffers`` state buffers, exchange ``seq`` 1-based):

    * a rank may *write* buffer ``seq % n_buffers`` once every consumer of
      its owned points has ``ack >= seq - n_buffers`` (the buffer's
      previous occupant is fully drained);
    * a rank may *read* its halo for exchange ``seq`` once every provider
      of its halo points has ``pub >= seq``.

    A wait never parks the process: it polls the counters (spin, yield,
    nap — the module constants), because balanced peers arrive within
    microseconds of each other and a futex wake-up costs a hundred times
    that.  Ordering does not lean on the polled loads: every counter
    *store* happens under the board's lock and a successful waiter passes
    through that lock once before returning, so "segment written, counter
    stored" and "counter seen, segment read" are a release/acquire pair on
    any architecture.

    A wait that outlives its timeout raises
    :class:`threading.BrokenBarrierError`, which the pool's recovery
    (respawn + rewind) keys on.  So does one that finds the abort word
    moved past the generation this process adopted at :meth:`rejoin`:
    :meth:`reset` bumps it, so survivors of a dead peer leave at once and a
    rank exchanges again only after rewinding to the zeroed counters.
    """

    def __init__(self, shm, lock, n_ranks: int, owner: bool) -> None:
        self._shm = shm
        self._lock = lock
        self.n_ranks = int(n_ranks)
        self._owner = owner
        n = self.n_ranks
        ints = np.ndarray((2 * n + 1,), dtype=np.int64, buffer=shm.buf)
        self.pub, self.ack, self._abort = ints[:n], ints[n : 2 * n], ints[2 * n :]
        self.observed = np.ndarray((n,), _FLOAT, buffer=shm.buf, offset=ints.nbytes)
        #: The abort-word value this process exchanges under (process-local).
        self._generation = 0

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, n_ranks: int, ctx) -> "SyncBoard":
        """Allocate the scoreboard (parent side; ``ctx`` a mp context)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=8 * (3 * int(n_ranks) + 1))
        return cls(shm, ctx.Lock(), n_ranks, owner=True)  # a new segment is zeroed

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.pub = self.ack = self.observed = self._abort = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> tuple:
        # The lock pickles as a Process argument; the segment re-attaches by name.
        return (self._shm.name, self.n_ranks, self._lock)

    def __setstate__(self, state: tuple) -> None:
        name, n_ranks, lock = state
        self.__init__(_attach_segment(name), lock, n_ranks, owner=False)

    # -------------------------------------------------------------- protocol
    def reset(self) -> None:
        """Rewind every exchange counter to zero and bump the abort word.

        ``observed`` survives on purpose: the compute-interval estimates
        stay valid across a respawn and keep the adaptive timeout armed.
        """
        with self._lock:
            self.pub[:] = 0
            self.ack[:] = 0
            self._abort[0] += 1

    def rejoin(self) -> None:
        """Adopt the current generation (a rank whose sequence is at zero)."""
        self._generation = int(self._abort[0])

    def _wait(self, counters, ranks, seq: int, timeout: float, what: str) -> None:
        for _ in range(SPIN_POLLS):
            if not _behind(counters, ranks, seq):
                break
        else:
            t0 = time.perf_counter()
            while _behind(counters, ranks, seq):
                waited = time.perf_counter() - t0
                aborted = self._abort[0] != self._generation
                if aborted or waited > timeout:
                    why = "aborted" if aborted else f"timed out after {timeout:.1f}s"
                    raise threading.BrokenBarrierError(
                        f"halo sync {why} waiting for {what}"
                    )
                if waited < YIELD_SECONDS:
                    _yield()
                else:
                    time.sleep(NAP_SECONDS)
        # The acquire half of the ordering argument in the class docstring.
        with self._lock:
            pass

    def await_acked(self, ranks, seq: int, timeout: float) -> None:
        """Block until every rank in ``ranks`` has acknowledged ``seq``."""
        if seq > 0:
            self._wait(self.ack, ranks, seq, timeout, f"acks >= {seq}")

    def await_published(self, ranks, seq: int, timeout: float) -> None:
        """Block until every rank in ``ranks`` has published ``seq``."""
        self._wait(self.pub, ranks, seq, timeout, f"pubs >= {seq}")

    def mark_published(self, rank: int, seq: int) -> None:
        """Announce this rank's owned slices of exchange ``seq`` are written."""
        with self._lock:
            self.pub[rank] = seq

    def mark_acked(self, rank: int, seq: int) -> None:
        """Announce this rank has finished reading exchange ``seq``."""
        with self._lock:
            self.ack[rank] = seq

    # ------------------------------------------------------ adaptive timeout
    def observe(self, rank: int, seconds: float) -> None:
        """Record a compute interval (max-tracked per rank)."""
        if seconds > self.observed[rank]:
            self.observed[rank] = float(seconds)

    def max_observed(self) -> float:
        """The slowest compute interval any rank has reported."""
        return float(self.observed.max())
