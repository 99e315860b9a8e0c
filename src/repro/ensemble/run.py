"""The lockstep ensemble driver: N members, one step program, per-member
verdicts.

:class:`EnsembleRun` advances N perturbed-IC members in lockstep, each its
own serial :class:`~repro.swm.state.State` stepped by
:func:`~repro.swm.timestep.rk4_step` on a serial compiled plan, and keeps
per-member invariant trajectories and watchdog verdicts.  The members are
split into one contiguous block per usable CPU (``os.sched_getaffinity``);
each step advances the blocks at once, block 0 on the calling thread and
the others on the persistent pinned lanes of :mod:`repro.engine.lanes`
(with a compiled plan of their own under ``plan=True``: :func:`_sweep`),
each thread stepping the live members of its block one after another; the
caller then judges every member.  A member's step is its serial step
wherever it runs, under the config the run was given (backend, ``plan``),
so the split moves no bit.  Divergence handling reuses the resilience
stack's policy knobs:

``guard_policy="halt"`` (default)
    A member that goes non-finite or trips the ``E1`` stability guard is
    *quarantined*: its verdict becomes ``"diverged"``, its result slot
    ``None``, and it is never stepped again while the others go on.
``guard_policy="rollback"``
    The diverged member is *detached*: its state is restored from the
    newest in-memory snapshot (taken every ``checkpoint_interval`` steps,
    or the IC), ``dt`` is halved for that member alone, and it finishes as
    a serial :class:`~repro.swm.model.ShallowWaterModel` continuation —
    the PR 3 rollback semantics, applied per member.

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
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..engine.lanes import claimed
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
        """Ensemble-mean invariant trajectory over the lockstep survivors.

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
    """The CPUs this thread may run on: the one input to the block count."""
    return sorted(os.sched_getaffinity(0))


def _advance(integ: RK4Integrator, members: list) -> list:
    """Step each ``(state, diag)`` of a block in turn (the task a block's
    thread runs).

    A member takes one RK-4 step, or gets its first diagnostics when its
    ``diag`` is ``None``, on the calling thread's own serial plan.  Its slot
    in ``members`` is emptied first, so its old fields can be freed as soon
    as it is stepped.  A member whose call trips the E1 guard
    (``FloatingPointError``) comes back as ``None``; the members after it
    are stepped all the same.
    """
    out = []
    for j, (state, diag) in enumerate(members):
        members[j] = None
        try:
            if diag is None:
                out.append((state, integ.diagnostics_for(state)))
            else:
                (state,), (diag,) = rk4_step([integ], [state], [diag])
                out.append((state, diag))
        except FloatingPointError:
            out.append(None)
    return out


def _sweep(cpus: list[int], task, *columns) -> list:
    """``list(map(task, *columns))`` with the calls running at once.

    Call 0 runs on the calling thread, pinned to ``cpus[0]`` until every
    call is done (its previous affinity is restored even when one raises);
    call ``i`` runs on the lane pinned to ``cpus[i]``
    (:func:`repro.engine.lanes.claimed`), or on the caller too while another
    thread holds that lane.  An exception reaches the caller unchanged,
    after the other calls finished.
    """
    jobs = list(zip(*columns))
    if len(jobs) == 1:
        return [task(*jobs[0])]
    with claimed(cpus[: len(jobs)]) as lanes:
        if lanes is None:
            return [task(*job) for job in jobs]
        for lane, job in zip(lanes, jobs[1:]):
            lane.submit(task, *job)
        first = task(*jobs[0])
        return [first] + [lane.join() for lane in lanes]


class EnsembleRun:
    """Driver for one ensemble: build members, advance lockstep, judge them.

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
        get_registry().gauge("ensemble.members").set(self.config.ensemble)
        config = self.config
        n = config.ensemble
        states, b = self._member_states()
        diags: list = [None] * n
        f_vertex = coriolis_at_vertices(self.mesh, self.case, config)
        integ = RK4Integrator(self.mesh, config, b, f_vertex)
        # One contiguous member block per usable CPU, stepped concurrently
        # (no member's step reads another member).  The tracer is
        # single-threaded: one block.
        cpus = _usable_cpus()
        if get_tracer().enabled:
            cpus = cpus[:1]
        n_blocks = min(len(cpus), n)
        spans = [(i * n // n_blocks, (i + 1) * n // n_blocks) for i in range(n_blocks)]

        alive = np.ones(n, dtype=bool)
        failed_step = [None] * n
        verdict_detail = [""] * n
        histories: list[list[Invariants]] = [[] for _ in range(n)]
        history_steps: list[int] = []
        detached: dict[int, RunResult | None] = {}

        def sweep() -> list[int]:
            """Advance every live member in place and return them in order; a
            member the E1 guard stopped is left ``None``."""
            blocks = [[k for k in range(lo, hi) if alive[k]] for lo, hi in spans]
            members = [[(states[k], diags[k]) for k in block] for block in blocks]
            stepped = [k for block in blocks for k in block]
            # The block lists keep the only references, so a block thread
            # frees a member's old fields as soon as it has stepped it.
            for k in stepped:
                states[k] = diags[k] = None
            outcomes = _sweep(cpus, _advance, [integ] * n_blocks, members)
            for k, member in zip(stepped, chain.from_iterable(outcomes)):
                if member is not None:
                    states[k], diags[k] = member
            return stepped

        def record(step: int) -> None:
            history_steps.append(step)
            for k in np.flatnonzero(alive):
                histories[k].append(
                    invariants(self.mesh, states[k], diags[k], b, config.gravity)
                )

        def judge(step: int, stepped: list[int]) -> None:
            for k in stepped:
                state = states[k]
                if (
                    state is not None
                    and np.isfinite(state.h).all()
                    and np.isfinite(state.u).all()
                ):
                    continue
                alive[k] = False
                failed_step[k] = step
                states[k] = diags[k] = None
                get_registry().counter(
                    "ensemble.member.diverged", member=str(k)
                ).inc()
                if config.guard_policy == "rollback":
                    detached[k] = self._detach(
                        k, snapshot_step, snapshot[k], b,
                        f_vertex, steps, invariant_interval, verdict_detail,
                    )
                else:
                    verdict_detail[k] = (
                        "member went non-finite or non-positive "
                        f"at step {step} (guard_policy='halt')"
                    )

        # In-memory rollback anchors, refreshed on the serial checkpoint
        # cadence.  References suffice: a step never writes its input state.
        snapshot_step, snapshot = 0, list(states)
        judge(0, sweep())
        record(0)
        step_timer = get_registry().timer("ensemble.step")
        for step in range(1, steps + 1):
            with step_timer.time():
                stepped = sweep()
            judge(step, stepped)
            if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                snapshot_step, snapshot = step, list(states)
            if invariant_interval and step % invariant_interval == 0:
                record(step)
        if history_steps[-1] != steps:
            record(steps)
        del snapshot

        results: list[RunResult | None] = [None] * n
        verdicts: list[MemberVerdict] = []
        for k in np.flatnonzero(alive):
            get_registry().counter("ensemble.member.steps", member=str(k)).inc(steps)
            results[k] = RunResult(
                state=states[k],
                diagnostics=diags[k],
                reconstruction=integ.reconstruct(states[k].u),
                steps=steps,
                elapsed_seconds=steps * config.dt,
                invariant_history=histories[k],
            )
        for k in range(n):
            status = "ok" if alive[k] else "diverged"
            if detached.get(k) is not None:
                results[k], status = detached[k], "recovered"
            verdicts.append(
                MemberVerdict(k, status, failed_step[k], verdict_detail[k])
            )
        out = EnsembleResult(members=results, verdicts=verdicts, steps=steps)
        if alive.any():  # the first lockstep survivor's trajectory
            out.invariant_history = histories[int(np.argmax(alive))]
        get_registry().gauge("ensemble.survivors").set(len(out.survivors()))
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
