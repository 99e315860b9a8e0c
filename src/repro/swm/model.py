"""High-level shallow-water model driver: the three-phase MPAS procedure.

``ShallowWaterModel`` wraps initialization (mesh + test case + Coriolis),
time-integration (RK-4 stepping with optional per-step callbacks) and
finalization (summary of invariants and errors), mirroring the MPAS running
procedure described in Section II-B of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import SECONDS_PER_DAY
from ..mesh.mesh import Mesh
from .config import SWConfig
from .error import ErrorNorms, Invariants, error_norms, invariants
from .state import Diagnostics, Reconstruction, State
from .testcases import TestCase, initialize
from .timestep import RK4Integrator, StepResult

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
    """Initialization / time-integration / finalization driver."""

    def __init__(self, mesh: Mesh, config: SWConfig) -> None:
        self.mesh = mesh
        self.config = config
        self.case: TestCase | None = None
        self.state: State | None = None
        self.diagnostics: Diagnostics | None = None
        self.b_cell: np.ndarray | None = None
        self.integrator: RK4Integrator | None = None

    # ---------------------------------------------------------------- phases
    def initialize(self, case: TestCase) -> State:
        """Phase 1: discretize the test case and prime the diagnostics."""
        self.case = case
        state, b = initialize(self.mesh, case)
        if case.coriolis is not None:
            f_vertex = case.coriolis(self.mesh.metrics.xVertex)
        else:
            f_vertex = self.config.coriolis(self.mesh.metrics.latVertex)
        self.integrator = RK4Integrator(self.mesh, self.config, b, f_vertex)
        self.b_cell = b
        self.state = state
        self.diagnostics = self.integrator.diagnostics_for(state)
        return state

    def run(
        self,
        steps: int | None = None,
        days: float | None = None,
        invariant_interval: int = 0,
        callback=None,
        checkpoint_dir=None,
        start_step: int = 0,
        checkpoint_keep: int | None = None,
        on_checkpoint=None,
    ) -> RunResult:
        """Phase 2: integrate for ``steps`` steps or ``days`` simulated days.

        ``invariant_interval > 0`` records the conserved integrals every that
        many steps (plus at start and end).  ``callback(step, result)`` runs
        after each step when given.

        ``start_step`` labels the current state as already being at that
        step (a resumed run): step numbering, invariant records and the
        checkpoint cadence all continue from it, so an interrupted run
        restarted from a checkpoint writes checkpoints at the *same* steps
        an uninterrupted run would.  ``checkpoint_keep`` overrides the
        checkpointer's retention (durable runs keep everything);
        ``on_checkpoint(step, path, written)`` fires after every checkpoint
        write with the ``(bytes, sha256)`` the writer returned — the durable
        manifest's commit hook, which therefore never re-reads the file.

        The run executes under the recovery policy built from the config's
        retry knobs (:meth:`SWConfig.recovery_policy`).  With
        ``config.guard_interval > 0`` the numerical watchdog
        (:class:`repro.resilience.guards.Watchdog`) checks the new state
        every that many steps; a violation either raises
        :class:`~repro.resilience.guards.NumericalBlowup` (``guard_policy ==
        "halt"``, or rollbacks exhausted/unavailable) or restores the newest
        auto-checkpoint and halves ``dt`` (``"rollback"``).  With
        ``config.checkpoint_interval > 0`` restart files are written every
        that many steps (plus at step 0) into ``checkpoint_dir`` (default: a
        run-scoped temporary directory).  A rollback re-runs the remaining
        *step count* under the smaller ``dt``, so the simulated horizon
        shrinks; ``RunResult.elapsed_seconds`` reports the time actually
        covered by the surviving trajectory.
        """
        if (steps is None) == (days is None):
            raise ValueError("specify exactly one of steps/days")
        if steps is None:
            steps = int(round(days * SECONDS_PER_DAY / self.config.dt))
        if self.state is None or self.integrator is None:
            raise RuntimeError("initialize() must be called before run()")

        from ..resilience.checkpoint import AutoCheckpointer
        from ..resilience.faults import fault_site
        from ..resilience.guards import NumericalBlowup, Watchdog
        from ..resilience.recovery import use_recovery_policy

        config = self.config
        total = start_step + steps
        watchdog = (
            Watchdog.from_config(self.mesh, self.b_cell, config)
            if config.guard_interval
            else None
        )
        checkpointer = None
        if config.checkpoint_interval:
            kw = {} if checkpoint_keep is None else {"keep": checkpoint_keep}
            checkpointer = AutoCheckpointer(
                self, config.checkpoint_interval, directory=checkpoint_dir, **kw
            )

        state, diag = self.state, self.diagnostics
        history: list[Invariants] = []
        history_steps: list[int] = []

        def record(step: int) -> None:
            history.append(
                invariants(self.mesh, state, diag, self.b_cell, config.gravity)
            )
            history_steps.append(step)

        record(start_step)
        elapsed_at_ckpt: dict[int, float] = {}
        if checkpointer is not None:
            # A resumed run must not roll forward onto stale checkpoints a
            # previous process wrote beyond our restart point.
            checkpointer.discard_after(start_step)
            if checkpointer.last_step != start_step:
                checkpointer.save(start_step)
                if on_checkpoint is not None:
                    on_checkpoint(
                        start_step, checkpointer.last_path,
                        checkpointer.last_written,
                    )
            elapsed_at_ckpt[checkpointer.last_step] = 0.0
        recon = None
        elapsed = 0.0
        rollbacks = 0
        step = start_step + 1
        with use_recovery_policy(config.recovery_policy()):
            while step <= total:
                fault_site("process.crash", step=step)
                report = None
                result: StepResult | None = None
                try:
                    result = self.integrator.step(state, diag)
                except FloatingPointError as exc:
                    # A violently unstable step fails *inside* the RK stages
                    # before any end-of-step guard can see it.
                    if watchdog is None:
                        raise
                    report = watchdog.in_step_failure(step, exc)
                else:
                    state, diag, recon = (
                        result.state, result.diagnostics, result.reconstruction,
                    )
                    self.state, self.diagnostics = state, diag
                    elapsed += config.dt
                    if watchdog is not None and step % config.guard_interval == 0:
                        report = watchdog.check(step, state, diag, config.dt)
                if report is not None:
                    if (
                        config.guard_policy != "rollback"
                        or checkpointer is None
                        or rollbacks >= config.max_rollbacks
                    ):
                        raise NumericalBlowup(report)
                    rolled_to = checkpointer.rollback()
                    config.dt /= 2.0
                    rollbacks += 1
                    # Abandon the poisoned trajectory: state, invariant
                    # records and the clock all rewind to the checkpoint.
                    state, diag = self.state, self.diagnostics
                    while history_steps and history_steps[-1] > rolled_to:
                        history_steps.pop()
                        history.pop()
                    elapsed = elapsed_at_ckpt[rolled_to]
                    step = rolled_to + 1
                    continue
                if invariant_interval and step % invariant_interval == 0:
                    record(step)
                if checkpointer is not None and checkpointer.maybe_save(step):
                    elapsed_at_ckpt[step] = elapsed
                    if on_checkpoint is not None:
                        on_checkpoint(
                            step, checkpointer.last_path,
                            checkpointer.last_written,
                        )
                if callback is not None:
                    callback(step, result)
                step += 1
        if history_steps[-1] != total:
            record(total)

        self.state, self.diagnostics = state, diag
        return RunResult(
            state=state,
            diagnostics=diag,
            reconstruction=recon,
            steps=steps,
            elapsed_seconds=elapsed,
            invariant_history=history,
        )

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

        The ensemble driver uses this to detach one member from a batch
        (serial reference runs, rollback continuations): the returned model
        behaves exactly like one that reached ``state`` by integration,
        because the end-of-step diagnostics are a pure function of the
        state (the same contract :meth:`from_checkpoint` relies on).
        """
        model = cls(mesh, config)
        model.case = case
        state.validate_shapes(mesh.nCells, mesh.nEdges)
        model.b_cell = np.asarray(b_cell, dtype=np.float64)
        model.integrator = RK4Integrator(
            mesh, config, model.b_cell, np.asarray(f_vertex, dtype=np.float64)
        )
        model.state = state
        model.diagnostics = model.integrator.diagnostics_for(state)
        return model

    # ------------------------------------------------------------ checkpoints
    def save_checkpoint(self, path) -> tuple[int, str]:
        """Write a restart file: prognostic state + the run's fixed fields.

        The continuation contract (tested): restoring and running N steps is
        bitwise identical to having run N more steps without the restart —
        the end-of-step diagnostics are a pure function of the state, so
        only ``h``, ``u``, ``b``, ``f`` and the configuration need storing
        (exactly MPAS's restart-stream content for this core).

        The write is crash-atomic and single-pass — see
        :func:`repro.resilience.checkpoint.write_restart`, whose
        ``(bytes, sha256)`` of the published file is returned.
        """
        from ..resilience.checkpoint import write_restart

        if self.state is None:
            raise RuntimeError("nothing to checkpoint: initialize() first")
        return write_restart(
            path, self.state, self.b_cell, self.integrator.f_vertex, self.config
        )

    @classmethod
    def from_checkpoint(cls, mesh: Mesh, path) -> "ShallowWaterModel":
        """Rebuild a runnable model from a restart file (same mesh)."""
        import json
        from pathlib import Path

        with np.load(Path(path)) as data:
            config = SWConfig.from_dict(json.loads(str(data["config"])))
            model = cls(mesh, config)
            state = State(h=data["h"].copy(), u=data["u"].copy())
            state.validate_shapes(mesh.nCells, mesh.nEdges)
            model.b_cell = data["b_cell"].copy()
            model.integrator = RK4Integrator(
                mesh, config, model.b_cell, data["f_vertex"].copy()
            )
        model.state = state
        model.diagnostics = model.integrator.diagnostics_for(state)
        return model

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
