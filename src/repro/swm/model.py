"""High-level shallow-water model driver: the three-phase MPAS procedure.

``ShallowWaterModel`` wraps initialization (mesh + test case + Coriolis),
time-integration (RK-4 stepping with invariant records, guards, checkpoints
and callbacks) and finalization (the :class:`RunResult`), mirroring the MPAS
running procedure described in Section II-B of the paper.  It is the only
run driver in the package: ``config.parallel`` selects what advances the
state — one :class:`~repro.swm.timestep.RK4Integrator`, or the decomposed
ranks of :class:`~repro.parallel.runner.DecomposedShallowWater` /
:class:`~repro.parallel.pool.PoolShallowWater` — and :meth:`ShallowWaterModel.
run` is the one loop around it, for plain and durable runs alike.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..constants import SECONDS_PER_DAY
from ..mesh.mesh import Mesh
from .config import SWConfig
from .error import ErrorNorms, Invariants, error_norms, invariants
from .state import Diagnostics, Reconstruction, State
from .testcases import TestCase, coriolis_at_vertices, initialize
from .timestep import RK4Integrator, StepResult, rk4_step

__all__ = ["ShallowWaterModel", "RunResult", "suggested_dt"]


def suggested_dt(mesh: Mesh, case: TestCase, gravity: float, cfl: float = 0.5) -> float:
    """Gravity-wave CFL time step estimate for a test case on a mesh.

    ``dt = cfl * min(dcEdge) / (|U| + sqrt(g * max(h)))``.

    The wave speed is ``sqrt(g h)`` with ``h`` the *fluid thickness* — the
    shallow-water phase speed depends on the depth of the moving layer,
    not on the bottom elevation beneath it, so topography enters only
    through its effect on ``h`` itself.  (An earlier version used
    ``max(h + b)``, which needlessly shrank ``dt`` for any case whose
    topographic peak coincides with the thickness maximum.)
    """
    met = mesh.metrics
    h = case.thickness(met.xCell)
    vel = case.velocity(met.xCell)
    c = np.sqrt(gravity * float(np.max(h)))
    umax = float(np.max(np.linalg.norm(vel, axis=1)))
    return cfl * float(np.min(met.dcEdge)) / (umax + c)


@dataclass
class RunResult:
    """Outcome of a model run."""

    state: State
    diagnostics: Diagnostics
    reconstruction: Reconstruction | None
    steps: int
    elapsed_seconds: float  # simulated time
    invariant_history: list[Invariants] = field(default_factory=list)

    def _drift_endpoints(self) -> tuple[Invariants, Invariants]:
        """The (start, end) invariant records a drift is measured between.

        Every executor records at least the run endpoints; a result that
        carries fewer than two entries (e.g. hand-built) cannot answer a
        drift question — raise actionably instead of ``IndexError``.
        """
        if len(self.invariant_history) < 2:
            raise ValueError(
                "this RunResult carries no start/end invariant records "
                f"({len(self.invariant_history)} of the 2 required), so "
                "mass_drift()/energy_drift() are undefined; every executor "
                "records the endpoints — rebuild the result through "
                "repro.api.run or repro.jobs.result()"
            )
        return self.invariant_history[0], self.invariant_history[-1]

    def mass_drift(self) -> float:
        """Relative mass change over the run (should be ~ round-off)."""
        first, last = self._drift_endpoints()
        return abs(last.mass - first.mass) / abs(first.mass)

    def energy_drift(self) -> float:
        """Relative total-energy change over the run."""
        first, last = self._drift_endpoints()
        return abs(last.total_energy - first.total_energy) / abs(
            first.total_energy
        )


class ShallowWaterModel:
    """Initialization / time-integration / finalization driver.

    The model holds the *global* view of a run whatever executes it: the
    fixed fields, an :class:`RK4Integrator` on the whole mesh (the serial
    executor; for decomposed runs the source of the gathered state's
    diagnostics and reconstruction) and :attr:`state` / :attr:`diagnostics`,
    which a decomposed run gathers and recomputes only when they are read.
    Assigning :attr:`state` (a rollback, a restored checkpoint) reloads the
    ranks before the next step.  Use as a context manager, or call
    :meth:`close`, when ``config.parallel="pool"`` (it owns the workers).
    """

    def __init__(self, mesh: Mesh, config: SWConfig, executor=None) -> None:
        self.mesh = mesh
        #: A private copy: a rollback halves its ``dt``, never the caller's.
        self.config = dataclasses.replace(config)
        self.case: TestCase | None = None
        self.b_cell: np.ndarray | None = None
        self.integrator: RK4Integrator | None = None
        #: The decomposed executor, once spawned (``None`` in serial runs);
        #: passing one drives ranks somebody else built (their ``run()``).
        self.executor = None
        #: Step number the current state is labelled with.
        self.step = 0
        self._state: State | None = None
        self._diag: Diagnostics | None = None
        self._ranks_current = False  # the executor holds ``_state``
        if executor is not None:
            self._adopt(executor)

    def _prime(self, state: State | None, b_cell, f_vertex) -> None:
        self.integrator = RK4Integrator(self.mesh, self.config, b_cell, f_vertex)
        self.b_cell = self.integrator.b_cell
        # Diagnostics are computed where they are first read (run: inside its lane).
        self._state, self._diag = state, None

    def _adopt(self, ranks) -> None:
        """Drive ``ranks``: their fixed fields are the run's, and the global
        state is gathered from them when somebody reads it."""
        self.executor = ranks
        self.config = ranks.config  # what the ranks step under
        self._prime(None, ranks.b_cell, ranks.f_vertex)
        self._ranks_current = True

    def _spawn(self):
        """Build the decomposed executor ``config.parallel`` names."""
        from ..parallel import DecomposedShallowWater, PoolShallowWater

        if self.case is None:
            raise RuntimeError(
                "a decomposed run builds its ranks from the test case: call "
                "initialize(case), or pass case=... to from_checkpoint()"
            )
        config = self.config
        kind = PoolShallowWater if config.parallel == "pool" else DecomposedShallowWater
        return kind(self.mesh, config.ranks, self.case, config)

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> State | None:
        """The global prognostic state (gathered from the ranks on demand)."""
        if self._state is None and self.executor is not None:
            self._state = self.executor.gather_state()
        return self._state

    @state.setter
    def state(self, value: State) -> None:
        self._state, self._diag, self._ranks_current = value, None, False

    @property
    def diagnostics(self) -> Diagnostics | None:
        """Diagnostics of :attr:`state` (a pure function of it)."""
        if self._diag is None and self.state is not None:
            self._diag = self.integrator.diagnostics_for(self._state)
        return self._diag

    @diagnostics.setter
    def diagnostics(self, value: Diagnostics) -> None:
        self._diag = value

    def reconstruction(self) -> Reconstruction:
        """Cell-centre velocities of the current state (``mpas_reconstruct``)."""
        return self.integrator.reconstruct(self.state.u)

    def invariants(self) -> Invariants:
        """Conserved integrals of the current state."""
        return invariants(
            self.mesh, self.state, self.diagnostics, self.b_cell, self.config.gravity
        )

    # ---------------------------------------------------------------- phases
    def initialize(self, case: TestCase) -> State:
        """Phase 1: discretize the test case and prime the diagnostics."""
        self.case = case
        if self.config.parallel == "serial":
            state, b = initialize(self.mesh, case)
            self._prime(state, b, coriolis_at_vertices(self.mesh, case, self.config))
        else:  # the ranks discretize (globally, then slice)
            self._adopt(self._spawn())
        self.step = 0
        return self.state

    def _lane(self):
        """The serial executor's second lane (:func:`~repro.engine.lanes.
        second_core`) when its plan has stages to hand over; a decomposed
        run engages none (a pinned pool parent would pin its ranks too)."""
        from ..engine.lanes import second_core
        from ..engine.plan import kernel_plan

        if self.config.parallel != "serial":
            return nullcontext()
        plan = kernel_plan(self.mesh, self.config)
        return second_core(plan is not None and plan.lanes == 2)

    def advance(self, steps: int) -> None:
        """Advance ``steps`` RK-4 steps on the executor ``config.parallel`` names."""
        if self.executor is None and self.config.parallel != "serial":
            self.executor = self._spawn()
        if self.executor is None:
            with self._lane():  # a no-op inside run(), which holds it already
                state, diag = self.state, self.diagnostics
                for _ in range(steps):
                    (state,), (diag,) = rk4_step([self.integrator], [state], [diag])
                    self._state, self._diag = state, diag
        else:
            if not self._ranks_current:
                self.executor.load_state(self._state, step=self.step)
                self._ranks_current = True
            self.executor.advance(steps)
            self._state = self._diag = None
        self.step += steps

    def run(
        self,
        steps: int | None = None,
        days: float | None = None,
        invariant_interval: int = 0,
        callback=None,
        start_step: int = 0,
        on_checkpoint=None,
    ) -> RunResult:
        """Phase 2: integrate for ``steps`` steps or ``days`` simulated days.

        The one run loop, whatever ``config.parallel`` says.  It advances in
        chunks up to the next step somebody observes — multiples of
        ``invariant_interval``, of ``config.checkpoint_interval`` when the
        rollback anchor or ``on_checkpoint`` reads it, every step when a
        ``callback`` or the watchdog is present, otherwise the whole horizon
        (a plain pool run is one command round trip) — and only then gathers
        the state, so every observer sees the serial run's values.

        ``invariant_interval > 0`` records the conserved integrals every that
        many steps (plus at start and end).  ``callback(step, result)`` runs
        after each step when given, with a :class:`StepResult` of the
        gathered state.

        ``start_step`` labels the current state as already being at that
        step (a resumed run): step numbering, invariant records and the
        checkpoint cadence all continue from it.  ``on_checkpoint(step,
        model)`` fires at every multiple of ``config.checkpoint_interval``
        after ``start_step``: the durable run's hook
        (:meth:`repro.resilience.durable.DurableRun.checkpoint`), the only
        writer of restart files during a run.

        With ``config.guard_interval > 0`` the numerical watchdog
        (:class:`repro.resilience.guards.Watchdog`) checks the new state
        every that many steps.  A violation raises
        :class:`~repro.resilience.guards.NumericalBlowup` under ``guard_policy
        == "halt"``, without a ``checkpoint_interval`` or once
        ``max_rollbacks`` are spent; otherwise (``"rollback"``) the run
        returns to its in-memory anchor — ``(step, state, simulated time)``,
        taken at ``start_step`` and at every multiple of
        ``config.checkpoint_interval`` — and halves ``dt`` on the model's
        private config.  A rollback re-runs the remaining *step count* under
        the smaller ``dt``, so the simulated horizon shrinks;
        ``RunResult.elapsed_seconds`` reports the time actually covered by
        the surviving trajectory.
        """
        if (steps is None) == (days is None):
            raise ValueError("specify exactly one of steps/days")
        if steps is None:
            steps = int(round(days * SECONDS_PER_DAY / self.config.dt))
        if self.integrator is None:
            raise RuntimeError("initialize() must be called before run()")

        from ..obs.metrics import get_registry
        from ..resilience.faults import fault_site
        from ..resilience.guards import NumericalBlowup, Watchdog

        config = self.config
        total = start_step + steps
        watchdog = (
            Watchdog.from_config(self.mesh, self.b_cell, config)
            if config.guard_interval
            else None
        )
        anchored = watchdog is not None and config.guard_policy == "rollback"
        interval = config.checkpoint_interval if anchored or on_checkpoint else 0
        # Intervals at which somebody reads the state (the horizon is one).
        every = int(callback is not None or watchdog is not None)
        observed = (every, invariant_interval, interval)

        # One lane engagement per run: IC diagnostics, every chunk, the result.
        with self._lane():
            history: list[Invariants] = []
            history_steps: list[int] = []

            def record(step: int) -> None:
                history.append(self.invariants())
                history_steps.append(step)

            self.step = start_step
            record(start_step)
            elapsed = 0.0
            # A step never writes its input state: the anchor is a reference.
            anchor = (start_step, self.state, elapsed) if anchored and interval else None
            rollbacks = 0
            while self.step < total:
                done = self.step
                stop = min([total] + [(done // k + 1) * k for k in observed if k])
                for step in range(done + 1, stop + 1):
                    fault_site("process.crash", step=step)
                report = None
                try:
                    self.advance(stop - done)
                except FloatingPointError as exc:
                    # A violently unstable step fails *inside* the RK stages
                    # before any end-of-step guard can see it.
                    if watchdog is None:
                        raise
                    report = watchdog.in_step_failure(stop, exc)
                else:
                    elapsed += (stop - done) * config.dt
                    if watchdog is not None and stop % config.guard_interval == 0:
                        report = watchdog.check(
                            stop, self.state, self.diagnostics, config.dt
                        )
                if report is not None:
                    if anchor is None or rollbacks >= config.max_rollbacks:
                        raise NumericalBlowup(report)
                    # Abandon the poisoned trajectory: state (which reloads the
                    # ranks), invariant records and the clock rewind together.
                    self.step, self.state, elapsed = anchor
                    config.dt /= 2.0
                    rollbacks += 1
                    get_registry().counter("resilience.checkpoint.rollback").inc()
                    while history_steps and history_steps[-1] > self.step:
                        history_steps.pop()
                        history.pop()
                    continue
                if invariant_interval and stop % invariant_interval == 0:
                    record(stop)
                if interval and stop % interval == 0:
                    if anchor is not None:
                        anchor = (stop, self.state, elapsed)
                    if on_checkpoint is not None:
                        on_checkpoint(stop, self)
                if callback is not None:
                    callback(stop, StepResult(
                        self.state, self.diagnostics, self.reconstruction()
                    ))
            if self.executor is not None:
                self.executor.merge_observability()
            if history_steps[-1] != total:
                record(total)
            return self.result(steps, elapsed, history)

    def result(
        self, steps: int, elapsed_seconds: float, history: list[Invariants]
    ) -> RunResult:
        """Phase 3: the :class:`RunResult` of the current state."""
        return RunResult(
            state=self.state,
            diagnostics=self.diagnostics,
            reconstruction=self.reconstruction(),
            steps=steps,
            elapsed_seconds=elapsed_seconds,
            invariant_history=history,
        )

    def close(self) -> None:
        """Release the executor (the pool's workers and segments)."""
        if self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "ShallowWaterModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def from_state(
        cls,
        mesh: Mesh,
        config: SWConfig,
        case: TestCase | None,
        state: State,
        b_cell: np.ndarray,
        f_vertex: np.ndarray,
    ) -> "ShallowWaterModel":
        """A runnable model primed with an arbitrary prognostic state.

        The ensemble driver uses this to detach one member from the lockstep
        (serial reference runs, rollback continuations): the returned model
        behaves exactly like one that reached ``state`` by integration,
        because the end-of-step diagnostics are a pure function of the
        state (the same contract :meth:`from_checkpoint` relies on).
        """
        model = cls(mesh, config)
        model.case = case
        state.validate_shapes(mesh.nCells, mesh.nEdges)
        model._prime(state, b_cell, f_vertex)
        return model

    # ------------------------------------------------------------ checkpoints
    def save_checkpoint(self, path, fields: bool = True) -> tuple[int, str]:
        """Write a restart file: prognostic state + the run's fixed fields.

        The continuation contract (tested): restoring and running N steps is
        bitwise identical to having run N more steps without the restart —
        the end-of-step diagnostics are a pure function of the state, so
        only ``h``, ``u``, ``b``, ``f`` and the configuration need storing
        (exactly MPAS's restart-stream content for this core).
        ``fields=False`` leaves out the never-changing ``b`` and ``f`` — a
        durable run's step files, whose run directory holds them once.

        The write is crash-atomic and single-pass — see
        :func:`repro.resilience.checkpoint.write_restart`, whose
        ``(bytes, sha256)`` of the published file is returned.
        """
        from ..resilience.checkpoint import write_restart

        if self.state is None:
            raise RuntimeError("nothing to checkpoint: initialize() first")
        fixed = {"b_cell": self.b_cell, "f_vertex": self.integrator.f_vertex}
        return write_restart(path, self.state, self.config, **(fixed if fields else {}))

    @classmethod
    def from_checkpoint(
        cls, mesh: Mesh, path, case: TestCase | None = None, fixed=None
    ) -> "ShallowWaterModel":
        """Rebuild a runnable model from a restart file (same mesh).

        ``case`` is what a decomposed configuration re-derives its ranks
        from when the run continues; the restored state is loaded into them.
        A file without ``b_cell`` / ``f_vertex`` (a durable run's step file)
        takes them from ``fixed()``: restore it with
        :meth:`repro.resilience.durable.DurableRun.restore`.
        """
        import json

        with np.load(path) as data:
            config = SWConfig.from_dict(json.loads(str(data["config"])))
            state = State(h=data["h"].copy(), u=data["u"].copy())
            held = data if "b_cell" in data.files else fixed()
            b_cell, f_vertex = held["b_cell"].copy(), held["f_vertex"].copy()
        return cls.from_state(mesh, config, case, state, b_cell, f_vertex)

    # ----------------------------------------------------------- finalization
    def exact_error(self) -> ErrorNorms:
        """Error norms against the exact solution (test cases that have one)."""
        if self.case is None or self.case.exact_thickness is None:
            raise ValueError("current test case has no exact solution")
        href = self.case.exact_thickness(self.mesh.metrics.xCell)
        return error_norms(self.mesh, self.state.h, href)

    def total_height(self) -> np.ndarray:
        """``h + b`` — the Figure 5 field."""
        return self.state.h + self.b_cell
