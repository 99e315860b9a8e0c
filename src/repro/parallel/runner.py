"""Functional multi-rank execution of the shallow-water model.

``DecomposedShallowWater`` runs P ranks inside one process, lockstep, with
real halo exchanges of the prognostic state — a *functional* stand-in for the
paper's MPI layer (no MPI runtime is available here; see DESIGN.md).  It
owns no RK loop and no run loop (:meth:`repro.swm.model.ShallowWaterModel.run`
drives it through ``advance`` / ``gather_state`` / ``load_state``): every
rank is an :class:`~repro.swm.timestep.RK4Integrator`
on its local mesh, all of them are handed to the one step program
(:func:`repro.swm.timestep.rk4_step`), and this class is that program's
:class:`~repro.swm.timestep.HaloTransport` — an in-process copy between the
ranks' arrays.  The number-for-number contract, enforced by the test suite:
**the owned portion of every rank's state is bitwise identical to the serial
run**, because

* initial conditions are discretized globally and sliced,
* every kernel computes each owned output point from the same inputs in the
  same floating-point order as the serial kernels (the local meshes preserve
  the per-row neighbour order), and
* halo values of the state are refreshed from their owners at exactly the
  synchronization points of Algorithm 1 / Figure 2 (before ``compute_tend``
  and after ``compute_next_substep_state`` / the final accumulation), while
  halo *diagnostics* are recomputed redundantly, like MPAS does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..mesh.mesh import Mesh
from ..obs.metrics import get_registry
from ..obs.trace import trace_span
from ..resilience.faults import FaultInjected, fault_site
from ..resilience.recovery import active_recovery_policy
from ..swm.config import SWConfig
from ..swm.model import ShallowWaterModel
from ..swm.state import Diagnostics, State
from ..swm.testcases import TestCase, initialize
from ..swm.timestep import HaloTransport, RK4Integrator, rk4_step
from ..dataflow.schedule import halo_schedule_for
from .halo import (
    build_local_mesh,
    exchange_bytes,
    halo_layers_required,
    ring_halo_indices,
    schedule_exchange_bytes,
)
from .partition import partition_cells

__all__ = ["DecomposedShallowWater"]


class DecomposedShallowWater(HaloTransport):
    """P-rank lockstep shallow-water integration with halo exchanges."""

    def __init__(
        self,
        mesh: Mesh,
        n_ranks: int,
        case: TestCase,
        config: SWConfig,
        halo_layers: int | None = None,
        partition_method: str = "kmeans",
    ) -> None:
        self.mesh = mesh
        self.config = config
        self.n_ranks = n_ranks
        if halo_layers is None:
            halo_layers = halo_layers_required(
                config.thickness_adv_order, config.apvm_upwinding != 0.0
            )
        self.owner = partition_cells(mesh, n_ranks, method=partition_method)

        global_state, global_b = initialize(mesh, case)
        if case.coriolis is not None:
            f_vertex_global = case.coriolis(mesh.metrics.xVertex)
        else:
            f_vertex_global = config.coriolis(mesh.metrics.latVertex)
        self.b_cell = global_b
        self.f_vertex = f_vertex_global

        #: One integrator per rank, on its local mesh; the ranks' current
        #: states and diagnostics sit alongside in ``states`` / ``diags``.
        self.ranks: list[RK4Integrator] = []
        for r in range(n_ranks):
            lm = build_local_mesh(mesh, self.owner, r, halo_layers=halo_layers)
            self.ranks.append(
                RK4Integrator(
                    lm, config, global_b[lm.cells_global],
                    f_vertex_global[lm.vertices_global],
                )
            )
        self.load_state(global_state)
        self.exchange_count = 0
        self.schedule = halo_schedule_for(config)
        meshes = [rk.mesh for rk in self.ranks]
        # Per kept sync point: each rank's halo indices within the point's
        # ring depth, and the bytes refreshing them moves.
        self._sync_idx: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._sync_bytes: dict[str, float] = {}
        for point in self.schedule.points:
            self._sync_idx[point.name] = [
                ring_halo_indices(lm, point.rings) for lm in meshes
            ]
            self._sync_bytes[point.name] = schedule_exchange_bytes(
                meshes, replace(self.schedule, points=(point,))
            )
        #: Oracle hook for the schedule-soundness test: a ``(sync, field)``
        #: pair whose halo refresh is skipped — a needed refresh then shows
        #: up as an owned-state diff against serial.
        self._skip_refresh: tuple[str, str] | None = None
        # Cache the counter series so the hot path pays two adds per exchange.
        registry = get_registry()
        self._halo_bytes = registry.counter("halo.bytes", ranks=n_ranks)
        self._halo_exchanges = registry.counter("halo.exchanges", ranks=n_ranks)
        registry.gauge("halo.bytes_per_exchange", ranks=n_ranks).set(
            exchange_bytes(meshes)
        )

    # ------------------------------------------------------------- exchange
    def _exchange(self, states: list[State], sync: str) -> None:
        """Refresh halo values of ``h``/``u`` from their owning ranks.

        ``sync`` names the Algorithm-1 synchronization point: one the
        :class:`~repro.dataflow.schedule.HaloSchedule` elides returns
        immediately (no exchange, no fault site); a kept one refreshes the
        fields its :class:`~repro.dataflow.schedule.SyncPoint` names, at the
        halo points within its ring depth.

        Each executed exchange is one ``halo.exchange`` fault site (a
        dropped MPI message).  A faulted exchange is re-attempted up to
        ``RecoveryPolicy.halo_retries`` times with exponential backoff; the
        simulated backoff seconds are accounted into the
        ``resilience.halo.backoff_s`` counter so the scaling step model can
        price recovery, not just success.  Retries exhausted, the injected
        fault propagates — a halo the ranks never agree on is not
        recoverable by degradation.
        """
        point = self.schedule.entry(sync)
        if point is None:
            return  # elided by the schedule: provably clean
        attempt = 0
        while True:
            try:
                fault_site("halo.exchange", ranks=self.n_ranks)
                break
            except FaultInjected:
                policy = active_recovery_policy()
                if attempt >= policy.halo_retries:
                    raise
                registry = get_registry()
                registry.counter(
                    "resilience.recovery.retry", site="halo.exchange",
                    ranks=self.n_ranks,
                ).inc()
                registry.counter(
                    "resilience.halo.backoff_s", ranks=self.n_ranks
                ).inc(policy.halo_backoff_s * 2.0**attempt)
                attempt += 1
        fields = point.fields
        skip = self._skip_refresh
        if skip is not None and skip[0] == sync:
            fields = tuple(f for f in fields if f != skip[1])
        bytes_moved = self._sync_bytes[sync]
        with trace_span(
            "halo_exchange", category="halo", sync=sync,
            ranks=self.n_ranks, bytes_est=bytes_moved,
        ):
            gh = np.empty(self.mesh.nCells)
            gu = np.empty(self.mesh.nEdges)
            for rk, st in zip(self.ranks, states):
                lm = rk.mesh
                gh[lm.cells_global[: lm.n_owned_cells]] = st.h[: lm.n_owned_cells]
                gu[lm.edges_global[: lm.n_owned_edges]] = st.u[: lm.n_owned_edges]
            for r, (rk, st) in enumerate(zip(self.ranks, states)):
                lm = rk.mesh
                cell_idx, edge_idx = self._sync_idx[sync][r]
                if "h" in fields:
                    st.h[cell_idx] = gh[lm.cells_global[cell_idx]]
                if "u" in fields:
                    st.u[edge_idx] = gu[lm.edges_global[edge_idx]]
        self.exchange_count += 1
        self._halo_bytes.inc(bytes_moved)
        self._halo_exchanges.inc()

    # ----------------------------------------------------------------- step
    def begin(self, sync: str, states: list[State]) -> None:
        """The lockstep halo transport: the whole exchange, in place, now."""
        self._exchange(states, sync)

    def step(self) -> None:
        """One RK-4 step across all ranks (the shared step program)."""
        self.states, self.diags = rk4_step(
            self.ranks, self.states, self.diags, transport=self
        )

    def run(self, steps: int):
        """Integrate ``steps`` steps through the one run loop; returns the
        gathered :class:`~repro.swm.model.RunResult`."""
        return ShallowWaterModel(self.mesh, self.config, executor=self).run(steps=steps)

    def advance(self, steps: int) -> None:
        """Advance ``steps`` steps without gathering."""
        for _ in range(steps):
            self.step()

    def merge_observability(self) -> None:
        """Nothing to merge: the ranks record into this process's registry."""

    def close(self) -> None:
        """Nothing to release (the pool executor has workers to stop)."""

    def load_state(self, state: State, step: int = 0) -> None:
        """Replace every rank's local state from a restored global ``state``.

        Each rank slices its owned + halo points from the global arrays and
        computes its diagnostics — the initial condition in ``__init__``, a
        restored checkpoint or a rollback later (``step`` is the pool
        executor's label; the lockstep runner keeps no step counter).
        """
        self.states: list[State] = [
            State(
                h=state.h[rk.mesh.cells_global].copy(),
                u=state.u[rk.mesh.edges_global].copy(),
            )
            for rk in self.ranks
        ]
        self.diags: list[Diagnostics] = [
            rk.diagnostics_for(st) for rk, st in zip(self.ranks, self.states)
        ]

    # ------------------------------------------------------------- gathering
    def gather_state(self) -> State:
        """Assemble the global state from the owned slices of all ranks."""
        gh = np.full(self.mesh.nCells, np.nan)
        gu = np.full(self.mesh.nEdges, np.nan)
        for rk, st in zip(self.ranks, self.states):
            lm = rk.mesh
            gh[lm.cells_global[: lm.n_owned_cells]] = st.h[: lm.n_owned_cells]
            gu[lm.edges_global[: lm.n_owned_edges]] = st.u[: lm.n_owned_edges]
        if np.any(np.isnan(gh)) or np.any(np.isnan(gu)):
            raise AssertionError("ownership does not cover the mesh")
        return State(h=gh, u=gu)
