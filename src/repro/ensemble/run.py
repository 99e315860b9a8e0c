"""The ensemble run loop: N members, one step program, per-member verdicts.

:class:`EnsembleRun` advances N perturbed-IC members, each its own serial
:class:`~repro.swm.state.State` stepped by
:func:`~repro.swm.timestep.rk4_step` on a serial compiled plan, and keeps
per-member invariant trajectories and watchdog verdicts.  A member is a chain
of tasks: its IC diagnostics, each RK-4 step (with its finite / E1 verdict,
invariant record and rollback anchor), then its reconstruction.  One worker
per usable CPU (``os.sched_getaffinity``: the caller and the persistent
pinned lanes of :mod:`repro.engine.lanes`, :func:`_sweep`) takes the next
task of the member with the fewest finished tasks that no other worker
holds, so members never wait for each other and a call has one join.  A
member's task is its serial step whichever CPU runs it, under the config the
run was given (backend, ``plan``), so the schedule moves no bit.  After the
join the caller settles the verdicts in member order.  Divergence handling
reuses the resilience stack's policy knobs:

``guard_policy="halt"`` (default)
    A member that goes non-finite or trips the ``E1`` stability guard is
    *quarantined*: its verdict becomes ``"diverged"``, its result slot
    ``None``, and it is never stepped again while the others go on.
``guard_policy="rollback"``
    The diverged member is *detached*: its state is restored from its
    newest in-memory anchor (taken every ``checkpoint_interval`` steps, or
    the IC), ``dt`` is halved for that member alone, and it finishes as a
    serial :class:`~repro.swm.model.ShallowWaterModel` continuation — the
    serial run's rollback semantics, applied per member.

Healthy members are returned as ordinary per-member
:class:`~repro.swm.model.RunResult`\\ s whose state/diagnostics/invariants
are **bitwise identical** to a serial run of the same member (each member
is stepped by the serial program from the shared IC builders of
:mod:`~repro.ensemble.members`) — e.g. ``repro.api.run`` of the
``"perturbed:<base>:<k>:<seed>"`` scenario token.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..engine.lanes import claimed, second_core
from ..engine.plan import kernel_plan
from ..mesh.mesh import Mesh
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..resilience.guards import NumericalBlowup
from ..swm.config import SWConfig
from ..swm.error import Invariants, invariants
from ..swm.model import RunResult, ShallowWaterModel
from ..swm.state import State
from ..swm.testcases import TestCase, coriolis_at_vertices
from ..swm.timestep import RK4Integrator, rk4_step
from .members import ensemble_initial_states

__all__ = ["MemberVerdict", "EnsembleResult", "EnsembleRun", "run_ensemble"]


@dataclass(frozen=True)
class MemberVerdict:
    """Outcome of one ensemble member."""

    member: int
    status: str  # "ok", "diverged" or "recovered"
    failed_step: int | None = None
    detail: str = ""


@dataclass
class EnsembleResult:
    """Outcome of an ensemble run: one result and one verdict per member.

    ``members[k]`` is ``None`` exactly when ``verdicts[k].status ==
    "diverged"`` (the member was quarantined and produced no trajectory).
    """

    members: list[RunResult | None]
    verdicts: list[MemberVerdict]
    steps: int
    invariant_history: list[Invariants] = field(default_factory=list)

    @property
    def n_members(self) -> int:
        """Ensemble width (including diverged members)."""
        return len(self.members)

    def survivors(self) -> list[int]:
        """Indices of members that produced a result."""
        return [k for k, r in enumerate(self.members) if r is not None]

    def mean_invariants(self) -> list[Invariants]:
        """Ensemble-mean invariant trajectory over the ``"ok"`` members.

        Averages record-by-record across the ``"ok"`` members (detached
        continuations record on their own clock and are excluded).
        Deterministic for a fixed member order, so the golden suite can
        pin it bitwise.
        """
        full = [
            r.invariant_history
            for r, v in zip(self.members, self.verdicts)
            if r is not None and v.status == "ok"
        ]
        if not full:
            return []
        length = len(full[0])
        return [
            Invariants(
                mass=float(np.mean([h[i].mass for h in full])),
                total_energy=float(np.mean([h[i].total_energy for h in full])),
                potential_enstrophy=float(
                    np.mean([h[i].potential_enstrophy for h in full])
                ),
            )
            for i in range(length)
        ]

    def summary_rows(self) -> list[tuple]:
        """``(member, status, steps, mass_drift, failed_step)`` per member."""
        rows = []
        for k, (res, verdict) in enumerate(zip(self.members, self.verdicts)):
            if res is None:
                rows.append((k, verdict.status, 0, float("nan"), verdict.failed_step))
            else:
                rows.append(
                    (k, verdict.status, res.steps, res.mass_drift(),
                     verdict.failed_step)
                )
        return rows

    def summary_table(self) -> str:
        """A fixed-width member table (the CLI / report rendering)."""
        lines = [
            "member  status     steps  mass_drift    failed_at",
            "------  ---------  -----  ------------  ---------",
        ]
        for member, status, steps, drift, failed in self.summary_rows():
            failed_s = "-" if failed is None else str(failed)
            drift_s = "-" if drift != drift else f"{drift:.3e}"
            lines.append(
                f"{member:6d}  {status:9s}  {steps:5d}  {drift_s:>12s}  {failed_s:>9s}"
            )
        return "\n".join(lines)


def _usable_cpus() -> list[int]:
    """The CPUs this thread may run on: the one input to the worker count."""
    return sorted(os.sched_getaffinity(0))


def _sweep(cpus: list[int], work, lane_wanted: bool) -> None:
    """Run ``work(i)`` for every ``i < len(cpus)`` at once.

    ``work(0)`` runs on the calling thread, pinned to ``cpus[0]`` until every
    call is done (its previous affinity is restored even when one raises);
    ``work(i)`` runs on the lane pinned to ``cpus[i]``
    (:func:`repro.engine.lanes.claimed`).  While another thread holds one of
    those lanes only ``work(0)`` runs.  A lone ``work(0)`` runs with the
    caller's second lane engaged for its plan when ``lane_wanted``
    (:func:`repro.engine.lanes.second_core`).  An exception reaches the
    caller unchanged, after the other calls returned.
    """
    if len(cpus) > 1:
        with claimed(cpus) as lanes:
            if lanes is not None:
                for i, lane in enumerate(lanes, 1):
                    lane.submit(work, i)
                work(0)
                for lane in lanes:
                    lane.join()
                return
    with second_core(lane_wanted):
        work(0)


class EnsembleRun:
    """One ensemble run: build members, step them on every CPU, judge them.

    Parameters
    ----------
    mesh, case, config
        The shared scenario.  ``config.ensemble`` must be >= 1 and is the
        member count; ``config.ensemble_seed`` / ``config.
        ensemble_amplitude`` control the per-member IC perturbation.
    initial_states
        Optional explicit member ICs (parameter sweeps, tests).  Length
        must equal ``config.ensemble``; topography still comes from the
        case.
    """

    def __init__(
        self,
        mesh: Mesh,
        case: TestCase,
        config: SWConfig,
        initial_states: list[State] | None = None,
    ) -> None:
        if config.ensemble < 1:
            raise ValueError(
                "EnsembleRun requires config.ensemble >= 1 "
                f"(got {config.ensemble!r}); plain runs go through repro.api.run"
            )
        if initial_states is not None and len(initial_states) != config.ensemble:
            raise ValueError(
                f"initial_states has {len(initial_states)} members, "
                f"config.ensemble is {config.ensemble}"
            )
        self.mesh = mesh
        self.case = case
        self.config = config
        self._explicit_states = initial_states

    # ------------------------------------------------------------- plumbing
    def _member_states(self) -> tuple[list[State], np.ndarray]:
        from ..swm.testcases import initialize

        if self._explicit_states is not None:
            _, b = initialize(self.mesh, self.case)
            return [s.copy() for s in self._explicit_states], b
        return ensemble_initial_states(
            self.mesh,
            self.case,
            self.config.ensemble,
            self.config.ensemble_seed,
            self.config.ensemble_amplitude,
        )

    def _member_config(self, **overrides) -> SWConfig:
        """The config of one detached member: a serial run of one."""
        return dataclasses.replace(
            self.config, ensemble=0, parallel="serial", ranks=1, **overrides
        )

    # ------------------------------------------------------------ execution
    def execute(self, steps: int, invariant_interval: int = 0) -> EnsembleResult:
        """Advance all members ``steps`` steps; one verdict per member.

        The one step loop outside :meth:`ShallowWaterModel.run`: judging
        members one by one (a diverged member is quarantined or detached,
        the others keep stepping) is a different contract from the
        watchdog's halt-or-rollback of a whole run.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        registry = get_registry()
        registry.gauge("ensemble.members").set(self.config.ensemble)
        config = self.config
        n = config.ensemble
        states, b = self._member_states()
        diags: list = [None] * n
        f_vertex = coriolis_at_vertices(self.mesh, self.case, config)
        integ = RK4Integrator(self.mesh, config, b, f_vertex)
        # One worker per usable CPU (no member's step reads another member).
        cpus = _usable_cpus()[:n]
        workers = len(cpus)

        # Member k's task done[k]: 0 its IC diagnostics, 1 .. steps its RK-4
        # steps, steps + 1 its reconstruction.
        done, held = [0] * n, [False] * n
        failed_step: list[int | None] = [None] * n
        histories: list[list[Invariants]] = [[] for _ in range(n)]
        results: list[RunResult | None] = [None] * n
        # In-memory rollback anchors (step, state), refreshed on the serial
        # checkpoint cadence.  References suffice: a step never writes its
        # input state.
        rollback = config.guard_policy == "rollback"
        anchors = [(0, state) for state in states] if rollback else []
        step_timer = registry.timer("ensemble.member_step")
        lock, stopped = threading.Lock(), []

        def run_task(k: int) -> None:
            """Run member ``k``'s next task on the calling thread's plan."""
            task, state = done[k], states[k]
            if task > steps:
                results[k] = RunResult(
                    state=state,
                    diagnostics=diags[k],
                    reconstruction=integ.reconstruct(state.u),
                    steps=steps,
                    elapsed_seconds=steps * config.dt,
                    invariant_history=histories[k],
                )
                return
            try:
                if task == 0:
                    diags[k] = integ.diagnostics_for(state)
                else:
                    start = time.perf_counter()
                    (state,), (diags[k],) = rk4_step([integ], [state], [diags[k]])
                    step_timer.observe(time.perf_counter() - start)
                    states[k] = state
            except FloatingPointError:  # the E1 guard
                state = None
            if state is None or not (
                np.isfinite(state.h).all() and np.isfinite(state.u).all()
            ):
                failed_step[k], states[k], diags[k] = task, None, None
                return
            interval = config.checkpoint_interval
            if rollback and task and interval and task % interval == 0:
                anchors[k] = (task, state)
            if task in (0, steps) or (
                invariant_interval and task % invariant_interval == 0
            ):
                histories[k].append(
                    invariants(self.mesh, state, diags[k], b, config.gravity)
                )

        def work(worker: int) -> None:
            """Run member tasks until no member is ready: the live member
            with the fewest finished tasks that no other worker holds, ties
            to the worker's own contiguous block, then to the lowest index."""
            lo, hi = worker * n // workers, (worker + 1) * n // workers
            k = None
            try:
                while True:
                    with lock:
                        if k is not None:
                            done[k], held[k] = done[k] + 1, False
                        ready = [
                            j for j in range(n) if not held[j]
                            and failed_step[j] is None and done[j] <= steps + 1
                        ]
                        if stopped or not ready:
                            return
                        k = min(ready, key=lambda j: (done[j], not lo <= j < hi, j))
                        held[k] = True
                    run_task(k)
            except BaseException:
                stopped.append(worker)  # the other workers take no more tasks
                raise

        plan = kernel_plan(self.mesh, config)
        _sweep(cpus, work, plan is not None and plan.lanes == 2)

        verdicts: list[MemberVerdict] = []
        detail = [""] * n
        for k, step in enumerate(failed_step):
            status = "ok"
            if step is None:
                registry.counter("ensemble.member.steps", member=str(k)).inc(steps)
            else:
                registry.counter("ensemble.member.diverged", member=str(k)).inc()
                status = "diverged"
                if rollback:
                    results[k] = self._detach(
                        k, *anchors[k], b, f_vertex, steps, invariant_interval,
                        detail,
                    )
                    status = "diverged" if results[k] is None else "recovered"
                else:
                    detail[k] = (
                        "member went non-finite or non-positive "
                        f"at step {step} (guard_policy='halt')"
                    )
            verdicts.append(MemberVerdict(k, status, step, detail[k]))
        out = EnsembleResult(members=results, verdicts=verdicts, steps=steps)
        if None in failed_step:  # the first healthy member's trajectory
            out.invariant_history = histories[failed_step.index(None)]
        registry.gauge("ensemble.survivors").set(len(out.survivors()))
        return out

    def _detach(
        self,
        member: int,
        snapshot_step: int,
        snapshot: State,
        b: np.ndarray,
        f_vertex: np.ndarray,
        steps: int,
        invariant_interval: int,
        verdict_detail: list[str],
    ) -> RunResult | None:
        """Finish one diverged member serially from its last snapshot.

        The PR 3 rollback semantics applied per member: restore the
        member's ``snapshot`` state, halve its (private) ``dt`` and
        integrate the remaining steps through the serial model.
        Returns ``None`` when the continuation blows up too.
        """
        remaining = steps - snapshot_step
        config = self._member_config(dt=self.config.dt / 2.0)
        detail = (
            f"rolled back to step {snapshot_step}, continuing serially "
            f"with dt={config.dt:.6g} for {remaining} steps"
        )
        verdict_detail[member] = detail
        if remaining < 1:
            return None
        tracer = get_tracer()
        with tracer.span("ensemble.detach", category="ensemble", member=member):
            # The run computes the snapshot's diagnostics before step 1 and
            # raises here if the snapshot is already poisoned (divergence
            # before the first refresh) — the member is then unrecoverable.
            try:
                model = ShallowWaterModel.from_state(
                    self.mesh, config, self.case, snapshot, b, f_vertex,
                )
                res = model.run(
                    steps=remaining, invariant_interval=invariant_interval
                )
            except (NumericalBlowup, FloatingPointError) as exc:
                verdict_detail[member] = f"{detail}; continuation failed: {exc}"
                return None
        get_registry().counter(
            "ensemble.member.steps", member=str(member)
        ).inc(res.steps)
        return res


def run_ensemble(
    mesh: Mesh,
    case: TestCase,
    config: SWConfig,
    steps: int,
    invariant_interval: int = 0,
    initial_states: list[State] | None = None,
) -> EnsembleResult:
    """Build and execute one :class:`EnsembleRun` (the package-level entry).

    The public, token-friendly wrapper (case names, ``days``, mesh levels)
    is :func:`repro.api.run_ensemble`.
    """
    return EnsembleRun(mesh, case, config, initial_states=initial_states).execute(
        steps, invariant_interval=invariant_interval
    )
