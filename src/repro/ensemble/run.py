"""The lockstep ensemble driver: N members, one step program, per-member
verdicts.

:class:`EnsembleRun` packs N perturbed-IC members into batched states
(``State.stack``) and advances them with the plain
:class:`~repro.swm.timestep.RK4Integrator` — the one step program is
shape-agnostic over the trailing member axis and runs every kernel through
the batched execution plan — keeping per-member invariant trajectories and
watchdog verdicts.  The members are split into one contiguous column block
per usable CPU (``os.sched_getaffinity``); each step advances the blocks at
once, block 0 on the calling thread and the others on persistent pinned
worker threads with a compiled plan of their own (:func:`_sweep`), and the
caller then judges every member.  Columns are independent, so the split
moves no bit.  The integrator always executes with ``plan=True``, even
for configs with ``plan=False``: the default ``plan_fuse="exact"`` program
replays the unfused sparse backend's arithmetic bitwise, so members of a
``backend="sparse"`` run match their serial unfused reference exactly as
well.  Divergence handling reuses the resilience stack's policy knobs:

``guard_policy="halt"`` (default)
    A member whose column goes non-finite or trips the ``E1`` stability
    guard is *quarantined*: its verdict becomes ``"diverged"``, its result
    slot ``None``, and the batch keeps stepping — columns are independent
    under every batched stage, so the poison cannot spread.
``guard_policy="rollback"``
    The diverged member is *detached*: its column is restored from the
    newest in-memory snapshot (taken every ``checkpoint_interval`` steps,
    or the IC), ``dt`` is halved for that member alone, and it finishes as
    a serial :class:`~repro.swm.model.ShallowWaterModel` continuation —
    the PR 3 rollback semantics, applied per member, while the healthy
    members never stall.

Healthy members are returned as ordinary per-member
:class:`~repro.swm.model.RunResult`\\ s whose state/diagnostics/invariants
are **bitwise identical** to a serial run of the same member (the batched
plan's per-column contract plus the shared IC builders of
:mod:`~repro.ensemble.members`) — e.g. ``repro.api.run`` of the
``"perturbed:<base>:<k>:<seed>"`` scenario token.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from ..engine.split import placements_active
from ..mesh.mesh import Mesh
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..resilience.guards import NumericalBlowup, member_finite_mask
from ..swm.config import SWConfig
from ..swm.error import Invariants, invariants
from ..swm.model import RunResult, ShallowWaterModel
from ..swm.state import State
from ..swm.testcases import TestCase
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


def _advance(integ: RK4Integrator, packed: State, diag, unstable):
    """One RK-4 step of one member block (the task a block's thread runs)."""
    (packed,), (diag,) = rk4_step([integ], [packed], [diag], unstable=unstable)
    return packed, diag


#: CPU -> the one-thread executor pinned to it, created on first use and kept:
#: a fresh unpinned thread shares the caller's core longer than a short run lasts.
_WORKERS: dict = {}


def _sweep(cpus: list[int], task, *columns) -> list:
    """``list(map(task, *columns))`` with the calls running at once.

    Call 0 runs on the calling thread, pinned to ``cpus[0]`` until every
    call is done (its previous affinity is restored even when one raises);
    call ``i`` runs on the persistent worker thread pinned to ``cpus[i]``.  An
    exception reaches the caller unchanged, after the other calls finished.
    """
    jobs = list(zip(*columns))
    if len(jobs) == 1:
        return [task(*jobs[0])]
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        futures = []
        for cpu, job in zip(cpus[1:], jobs[1:]):
            if cpu not in _WORKERS:
                _WORKERS[cpu] = ThreadPoolExecutor(
                    1, f"ensemble-cpu{cpu}", os.sched_setaffinity, (0, {cpu})
                )
            futures.append(_WORKERS[cpu].submit(task, *job))
        try:
            first = task(*jobs[0])
        finally:
            wait(futures)
        return [first] + [future.result() for future in futures]
    finally:
        os.sched_setaffinity(0, before)


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
        registry=None,
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
        self.registry = registry
        self._explicit_states = initial_states

    # ------------------------------------------------------------- plumbing
    def _f_vertex(self) -> np.ndarray:
        if self.case.coriolis is not None:
            return self.case.coriolis(self.mesh.metrics.xVertex)
        return self.config.coriolis(self.mesh.metrics.latVertex)

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
        """A private config copy for one detached member (never shared: the
        serial model mutates ``dt`` on rollback)."""
        return dataclasses.replace(
            self.config, ensemble=0, parallel="serial", ranks=1, **overrides
        )

    # ------------------------------------------------------------ execution
    def execute(self, steps: int, invariant_interval: int = 0) -> EnsembleResult:
        """Advance all members ``steps`` steps; one verdict per member.

        The one step loop outside :meth:`ShallowWaterModel.run`: judging
        members one by one (a diverged column is quarantined or detached,
        the batch keeps stepping) is a different contract from the
        watchdog's halt-or-rollback of a whole run.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        get_registry().gauge("ensemble.members").set(self.config.ensemble)
        config = self.config
        n = config.ensemble
        states, b = self._member_states()
        f_vertex = self._f_vertex()
        integ = RK4Integrator(
            self.mesh, dataclasses.replace(config, plan=True), b, f_vertex,
            registry=self.registry,
        )
        # One contiguous member block per usable CPU, stepped concurrently
        # (columns are independent: a block is bitwise its columns of the whole
        # batch).  The tracer and split placements are single-threaded: one block.
        cpus = _usable_cpus()
        if get_tracer().enabled or placements_active():
            cpus = cpus[:1]
        n_blocks = min(len(cpus), n)
        spans = [(i * n // n_blocks, (i + 1) * n // n_blocks) for i in range(n_blocks)]
        #: member -> (its block, its column there)
        home = [(i, k - lo) for i, (lo, hi) in enumerate(spans) for k in range(lo, hi)]
        packed = [State.stack(states[lo:hi]) for lo, hi in spans]
        unstable = np.zeros(n, dtype=bool)
        flags = [unstable[lo:hi] for lo, hi in spans]  # views into the one mask
        del states
        diag = _sweep(cpus, integ.diagnostics_for, packed, flags)

        alive = np.ones(n, dtype=bool)
        failed_step = [None] * n
        verdict_detail = [""] * n
        histories: list[list[Invariants]] = [[] for _ in range(n)]
        history_steps: list[int] = []
        detached: dict[int, RunResult | None] = {}

        def record(step: int) -> None:
            history_steps.append(step)
            for k in np.flatnonzero(alive):
                i, col = home[k]
                histories[k].append(
                    invariants(
                        self.mesh, packed[i].member(col), diag[i].member(col), b,
                        config.gravity,
                    )
                )

        def judge(step: int) -> None:
            poisoned = np.concatenate([member_finite_mask(p) for p in packed])
            for k in np.flatnonzero((unstable | poisoned) & alive):
                alive[k] = False
                failed_step[k] = step
                get_registry().counter(
                    "ensemble.member.diverged", member=str(int(k))
                ).inc()
                if config.guard_policy == "rollback":
                    i, col = home[k]
                    detached[int(k)] = self._detach(
                        int(k), snapshot_step, snapshot[i].member(col), b,
                        f_vertex, steps, invariant_interval, verdict_detail,
                    )
                else:
                    verdict_detail[k] = (
                        "member went non-finite or non-positive "
                        f"at step {step} (guard_policy='halt')"
                    )

        # In-memory rollback anchors (every block's columns); refreshed on
        # the serial checkpoint cadence.
        snapshot_step = 0
        snapshot = [p.copy() for p in packed]
        judge(0)
        record(0)
        step_timer = get_registry().timer("ensemble.step")
        for step in range(1, steps + 1):
            with step_timer.time():
                packed, diag = map(list, zip(*_sweep(
                    cpus, _advance, [integ] * n_blocks, packed, diag, flags
                )))
            judge(step)
            if config.checkpoint_interval and step % config.checkpoint_interval == 0:
                snapshot_step, snapshot = step, [p.copy() for p in packed]
            if invariant_interval and step % invariant_interval == 0:
                record(step)
        if history_steps[-1] != steps:
            record(steps)
        del snapshot

        results: list[RunResult | None] = [None] * n
        verdicts: list[MemberVerdict] = []
        for i, (lo, hi) in enumerate(spans):
            recon = integ.reconstruct(packed[i].u)
            for k in np.flatnonzero(alive[lo:hi]) + lo:
                get_registry().counter(
                    "ensemble.member.steps", member=str(k)
                ).inc(steps)
                results[k] = RunResult(
                    state=packed[i].member(k - lo),
                    diagnostics=diag[i].member(k - lo),
                    reconstruction=recon.member(k - lo),
                    steps=steps,
                    elapsed_seconds=steps * config.dt,
                    invariant_history=histories[k],
                )
            # The members hold contiguous copies: drop the block's arrays
            # before the next block's copies are made.
            packed[i] = diag[i] = recon = None
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
        member's column (``snapshot``, a serial state), halve its (private)
        ``dt`` and integrate the remaining steps through the serial model —
        the batch never waits.
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
            # from_state primes the diagnostics, which raises right here if
            # the snapshot itself is already poisoned (divergence before the
            # first refresh) — the member is then unrecoverable.
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
    registry=None,
) -> EnsembleResult:
    """Build and execute one :class:`EnsembleRun` (the package-level entry).

    The public, token-friendly wrapper (case names, ``days``, mesh levels)
    is :func:`repro.api.run_ensemble`.
    """
    return EnsembleRun(
        mesh, case, config, initial_states=initial_states, registry=registry
    ).execute(steps, invariant_interval=invariant_interval)
