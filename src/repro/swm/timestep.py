"""RK-4 time stepping, structured exactly as Algorithm 1 of the paper.

Every line of Algorithm 1 is a named kernel here so that the pattern catalog
(:mod:`repro.patterns`), the data-flow graph (:mod:`repro.dataflow`) and the
hybrid schedulers (:mod:`repro.hybrid`) can refer to the same units the paper
uses:

====  =============================  ====================================
line  kernel                         role
====  =============================  ====================================
3     ``compute_tend``               RHS evaluation
4     ``enforce_boundary_edge``      zero tendencies on boundary edges
6     ``compute_next_substep_state`` provisional state for the next stage
7/11  ``compute_solve_diagnostics``  diagnostics of the new (sub)state
8/10  ``accumulative_update``        accumulate the RK-weighted tendency
12    ``mpas_reconstruct``           cell-centre velocity vectors
====  =============================  ====================================

:func:`rk4_step` is the only place in the package where the four RK stages
are written out.  Serial, ensemble (one member at a time on each block
thread), lockstep and both pool schedules all execute it; they differ in how many
ranks they hand it and in the :class:`HaloTransport` that moves halo values
at the eight synchronization points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.mesh import Mesh
from ..obs.instrument import kernel_span, pattern_span
from .config import SWConfig
from .state import Diagnostics, Reconstruction, State

__all__ = [
    "RK4Integrator",
    "HaloTransport",
    "rk4_step",
    "StepResult",
    "RK_SUBSTEP_WEIGHTS",
    "RK_ACCUMULATE_WEIGHTS",
]

#: Provisional-state weights (fraction of dt) for stages 1..3 (Alg. 1 line 6).
RK_SUBSTEP_WEIGHTS: tuple[float, float, float] = (0.5, 0.5, 1.0)

#: Accumulation weights (fraction of dt) for stages 1..4 (Alg. 1 lines 8/10).
RK_ACCUMULATE_WEIGHTS: tuple[float, float, float, float] = (
    1.0 / 6.0,
    1.0 / 3.0,
    1.0 / 3.0,
    1.0 / 6.0,
)


@dataclass
class StepResult:
    """State and diagnostics after one full RK-4 step."""

    state: State
    diagnostics: Diagnostics
    reconstruction: Reconstruction


def compute_next_substep_state(
    state: State, tend_h: np.ndarray, tend_u: np.ndarray, weight_dt: float
) -> State:
    """Provisional state for the next RK stage (local X-type computation)."""
    with pattern_span("X2", n_points=state.h.size):
        h = state.h + weight_dt * tend_h
    with pattern_span("X3", n_points=state.u.size):
        u = state.u + weight_dt * tend_u
    return State(h=h, u=u)


def accumulative_update(
    acc: State, tend_h: np.ndarray, tend_u: np.ndarray, weight_dt: float
) -> None:
    """Accumulate the RK-weighted tendency into ``acc`` in place."""
    with pattern_span("X4", n_points=acc.h.size):
        acc.h += weight_dt * tend_h
    with pattern_span("X5", n_points=acc.u.size):
        acc.u += weight_dt * tend_u


class HaloTransport:
    """What the step program needs from a halo exchange.

    The program calls :meth:`begin` at each of the eight named Algorithm-1
    synchronization points (``"pre@s1"`` .. ``"post@s4"``) with the states
    whose halos must be current before their next read — one per rank the
    program is stepping — and :meth:`finish` on the returned token at the
    last point before that read.  ``begin`` returning ``None`` means nothing
    is in flight: the point was elided, or the exchange already completed.

    This base class is the serial transport (one rank, no halo).  The
    decomposed executors subclass it: lockstep exchanges in place at
    ``begin`` (:class:`repro.parallel.runner.DecomposedShallowWater`), the
    pool publishes at ``begin`` and acquires at ``finish`` under either
    halo schedule (:mod:`repro.parallel.pool`).
    """

    def begin(self, sync: str, states: list[State]):
        return None

    def finish(self, token) -> None:
        raise RuntimeError("no halo exchange is in flight")


_SERIAL = HaloTransport()


class RK4Integrator:
    """One rank's Algorithm-1 kernels, bound to its mesh and fixed fields.

    The six kernels are resolved by *name* from the engine's
    :func:`~repro.engine.default_registry` (or an explicit ``registry``), so
    an instrumented or substituted kernel table drives the exact same
    program.  :meth:`step` is one serial step with its reconstruction; the
    run loop and the decomposed executors hand integrators (one per rank,
    built on its :class:`~repro.parallel.halo.LocalMesh`) to :func:`rk4_step`.

    Parameters
    ----------
    mesh : Mesh
    config : SWConfig
    b_cell : (nCells,) array
        Bottom topography.
    f_vertex : (nVertices,) array
        Coriolis parameter at vorticity points.
    boundary_mask : (nEdges,) bool array, optional
        Edges on which ``enforce_boundary_edge`` zeroes the tendency.
    registry : KernelRegistry, optional
        Kernel table to resolve the Algorithm-1 names from; defaults to the
        process-wide engine registry.
    """

    def __init__(
        self,
        mesh: Mesh,
        config: SWConfig,
        b_cell: np.ndarray,
        f_vertex: np.ndarray,
        boundary_mask: np.ndarray | None = None,
        registry=None,
    ) -> None:
        from ..engine import default_registry

        reg = registry if registry is not None else default_registry()
        self._compute_tend = reg.kernel("compute_tend")
        self._enforce_boundary_edge = reg.kernel("enforce_boundary_edge")
        self._compute_next_substep_state = reg.kernel("compute_next_substep_state")
        self._compute_solve_diagnostics = reg.kernel("compute_solve_diagnostics")
        self._accumulative_update = reg.kernel("accumulative_update")
        self._mpas_reconstruct = reg.kernel("mpas_reconstruct")
        self.mesh = mesh
        self.config = config
        self.b_cell = np.asarray(b_cell, dtype=np.float64)
        self.f_vertex = np.asarray(f_vertex, dtype=np.float64)
        if self.b_cell.shape != (mesh.nCells,):
            raise ValueError("b_cell must have shape (nCells,)")
        if self.f_vertex.shape != (mesh.nVertices,):
            raise ValueError("f_vertex must have shape (nVertices,)")
        self.boundary_mask = (
            np.zeros(mesh.nEdges, dtype=bool)
            if boundary_mask is None
            else np.asarray(boundary_mask, dtype=bool)
        )
        if config.plan:
            # Compile (and warm the cache for) the fused plan up front so
            # the first step does not pay compilation inside the timed loop.
            from ..engine.plan import compiled_plan

            compiled_plan(mesh, config)

    def diagnostics_for(self, state: State) -> Diagnostics:
        """Diagnostics consistent with an arbitrary state (e.g. the IC)."""
        return self._compute_solve_diagnostics(
            self.mesh, state, self.f_vertex, self.config
        )

    def reconstruct(self, u: np.ndarray) -> Reconstruction:
        """Cell-centre velocity vectors of ``u`` (Algorithm 1, line 12)."""
        config = self.config
        with kernel_span("mpas_reconstruct", backend=config.backend):
            # Looked up per call (not cached on self): a config mutation such
            # as the rollback handler halving dt maps to a different plan key
            # and must recompile transparently.
            from ..engine.plan import kernel_plan

            plan = kernel_plan(self.mesh, config)
            if plan is not None:
                return plan.reconstruct(u)
            return self._mpas_reconstruct(self.mesh, u, backend=config.backend)

    def step(self, state: State, diag: Diagnostics) -> StepResult:
        """Advance one full time step (Algorithm 1, inner loop).

        ``diag`` must be consistent with ``state`` (as produced by the
        previous step, or by :meth:`diagnostics_for` for the first one).
        """
        (acc,), (new_diag,) = rk4_step([self], [state], [diag])
        return StepResult(
            state=acc, diagnostics=new_diag, reconstruction=self.reconstruct(acc.u)
        )


def rk4_step(
    ranks: list[RK4Integrator],
    states: list[State],
    diags: list[Diagnostics],
    transport: HaloTransport = _SERIAL,
) -> tuple[list[State], list[Diagnostics]]:
    """The RK-4 step program: Algorithm 1 lines 2-11, written once.

    Every executor runs this function and differs only in ``ranks`` and
    ``transport``: the serial integrator and a pool worker pass one rank,
    the lockstep runner passes them all (each phase then sweeps the ranks
    in order, so an exchange sees every rank's published state).  Returns
    the accepted ``(states, diagnostics)``, one per rank; the inputs are
    not modified.  ``mpas_reconstruct`` (line 12) is not part of the
    program — :meth:`RK4Integrator.reconstruct` runs it where a result is read.

    Per stage the order is the one every transport can share: tendency,
    provisional state, ``transport.begin``, accumulation, diagnostics —
    with ``transport.finish`` at the last point before the halo is read.
    The accumulation is independent of the provisional state, so running it
    inside the exchange window moves no bit relative to Algorithm 1's
    textual order.
    """
    config = ranks[0].config
    dt, backend = config.dt, config.backend
    provis = [s.copy() for s in states]
    provis_diag = list(diags)
    acc = [s.copy() for s in states]

    def accumulate(stage, tends, weight_dt):
        for rk, a, (tend_h, tend_u) in zip(ranks, acc, tends):
            with kernel_span("accumulative_update", stage=stage, backend=backend):
                rk._accumulative_update(a, tend_h, tend_u, weight_dt)

    for stage in range(4):
        token = transport.begin(f"pre@s{stage + 1}", provis)
        if token is not None:
            transport.finish(token)
        tends = []
        for rk, pv, pd in zip(ranks, provis, provis_diag):
            with kernel_span("compute_tend", stage=stage, backend=backend):
                tend_h, tend_u = rk._compute_tend(rk.mesh, pv, pd, rk.b_cell, config)
            with kernel_span("enforce_boundary_edge", stage=stage, backend=backend):
                rk._enforce_boundary_edge(tend_u, rk.boundary_mask)
            tends.append((tend_h, tend_u))
        w_acc = RK_ACCUMULATE_WEIGHTS[stage] * dt
        if stage < 3:
            w_sub = RK_SUBSTEP_WEIGHTS[stage] * dt
            provis = []
            for rk, s, (tend_h, tend_u) in zip(ranks, states, tends):
                with kernel_span(
                    "compute_next_substep_state", stage=stage, backend=backend
                ):
                    provis.append(
                        rk._compute_next_substep_state(s, tend_h, tend_u, w_sub)
                    )
            token = transport.begin(f"post@s{stage + 1}", provis)
            accumulate(stage, tends, w_acc)
        else:
            # The last stage publishes the accumulated state itself.
            accumulate(stage, tends, w_acc)
            provis = acc
            token = transport.begin("post@s4", provis)

        if token is not None:
            transport.finish(token)
        provis_diag = []
        for rk, pv in zip(ranks, provis):
            with kernel_span(
                "compute_solve_diagnostics", stage=stage, backend=backend
            ):
                provis_diag.append(rk.diagnostics_for(pv))
    return acc, provis_diag
