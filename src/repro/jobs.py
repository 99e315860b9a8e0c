"""The job queue: deferred, deduplicated, checkpoint-backed runs.

A service that owns many runs does not want ``run()``'s synchronous
contract; it wants to *describe* work, hand it in, and collect results
later — possibly from a different process than the one that submitted.
This module is that surface, three functions over
:class:`~repro.api.RunRequest`:

:func:`submit`
    Register a request and return a :class:`JobHandle`.  Submission never
    integrates anything.  Two submissions whose requests share a
    :meth:`~repro.api.RunRequest.key` — same mesh fingerprint, same case,
    same config, same horizon — return the *same* handle: the work is
    deduplicated, not queued twice.
:func:`status`
    ``"pending"`` (nothing ran yet), ``"running"`` (a durable job with
    committed checkpoints short of its horizon — e.g. the driving process
    died mid-run), ``"completed"`` or ``"failed"``.
:func:`result`
    The job's :class:`~repro.swm.model.RunResult`, computing it now if
    needed (lazy, synchronous).  For durable jobs this is crash-tolerant:
    a partially-run directory resumes from its newest committed
    checkpoint, and a *completed* job whose in-memory result is gone
    (process restart, or retention — below) reconstructs it from the final
    checkpoint — the manifest is the source of truth, not this process's
    memory.

Durability is opt-in per request: a ``run_dir`` on the request routes the
job through the PR 8 :mod:`~repro.resilience.durable` machinery (manifest
+ committed checkpoints), and :func:`status`/:func:`result` accept the
bare run directory in place of a handle, so a fresh process can pick up a
job it never submitted.  Requests without ``run_dir`` live only in this
process (fine for scripts and tests, gone on restart).

Retention: a level-5 :class:`~repro.swm.model.RunResult` is about 2 MB,
so a process that completes durable jobs all day must not pin every one.
Only the :data:`RETAINED_DURABLE_RESULTS` most recently completed durable
jobs keep their result in memory; an older one answers :func:`result` by
rebuilding from its run directory (bitwise state, diagnostics and
reconstruction; of the invariant history only the two endpoints).
In-process jobs cannot be rebuilt and keep their result until
:func:`reset`.

Ensemble requests (``config.ensemble >= 1``) are jobbable in-process:
``result()`` returns the :class:`~repro.ensemble.run.EnsembleResult`.
Durable ensemble jobs are not supported yet — one manifest describes one
trajectory.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .obs.metrics import get_registry

__all__ = ["JobHandle", "JobError", "submit", "status", "result", "reset"]


class JobError(RuntimeError):
    """A job cannot be submitted, inspected or completed as asked."""


@dataclass(frozen=True, eq=False)
class JobHandle:
    """One submitted job: its identity, its request, its (optional) home.

    Frozen like the request it wraps; the mutable execution record lives
    in the queue, keyed by ``id``.
    """

    id: str
    request: object  # the normalized RunRequest
    run_dir: Path | None = None


@dataclass
class _Job:
    handle: JobHandle
    state: str = "pending"  # pending | completed | failed
    result: object = None
    error: BaseException | None = None


# The in-process queue: content key -> job, id -> job.  Durable jobs are
# *also* recorded here (fast path), but their ground truth is the
# manifest on disk — see _durable_status/_durable_result.
_BY_KEY: dict[tuple, _Job] = {}
_BY_ID: dict[str, _Job] = {}
_IDS = itertools.count(1)

#: How many completed *durable* jobs keep their result in memory (newest
#: last in ``_RETAINED``); older ones are rebuilt from disk when asked.
RETAINED_DURABLE_RESULTS = 4
_RETAINED: deque[_Job] = deque()


def reset() -> None:
    """Forget every in-process job record (tests; simulates eviction).

    Durable jobs survive this by design: their run directories still
    resolve through :func:`status`/:func:`result`.
    """
    _BY_KEY.clear()
    _BY_ID.clear()
    _RETAINED.clear()


def submit(request=None, **kwargs) -> JobHandle:
    """Register one run request; return its (possibly pre-existing) handle.

    Accepts a :class:`~repro.api.RunRequest` or its keyword fields
    (``submit(case="galewsky", steps=10)``).  Submission is cheap-ish —
    the request is normalized (mesh build hits the cache) but *nothing is
    integrated*.  A request whose :meth:`~repro.api.RunRequest.key`
    matches an earlier submission returns that submission's handle.

    A durable request (``run_dir``) additionally creates the run
    directory's manifest right now, so the job is discoverable from disk
    before any step runs; re-submitting over an existing directory
    attaches to it instead of failing.
    """
    from .api import RunRequest

    if request is None:
        request = RunRequest(**kwargs)
    elif kwargs:
        raise JobError("pass a RunRequest or keyword fields, not both")
    if not isinstance(request, RunRequest):
        raise JobError(
            f"submit() takes a RunRequest (or its keyword fields), "
            f"got {type(request).__name__}"
        )
    req = request.normalize()
    key = req.key()
    existing = _BY_KEY.get(key)
    if existing is not None:
        get_registry().counter("jobs.deduplicated").inc()
        return existing.handle

    run_dir = None if req.run_dir is None else Path(req.run_dir)
    if run_dir is not None:
        if req.config.ensemble:
            raise JobError(
                "durable ensemble jobs are not supported: one manifest "
                "describes one trajectory — drop run_dir or submit the "
                "members as separate requests"
            )
        _ensure_manifest(req, run_dir)

    handle = JobHandle(id=f"job-{next(_IDS):04d}", request=req, run_dir=run_dir)
    job = _Job(handle=handle)
    _BY_KEY[key] = job
    _BY_ID[handle.id] = job
    get_registry().counter("jobs.submitted").inc()
    return handle


def status(job) -> str:
    """The job's lifecycle state: pending / running / completed / failed.

    ``job`` is a :class:`JobHandle` or, for durable jobs, the run
    directory itself — any process can ask, not just the submitter.
    """
    record, run_dir = _resolve(job)
    if run_dir is not None:
        return _durable_status(run_dir)
    if record is None:
        raise JobError(f"unknown job {job!r} (not submitted in this process)")
    return record.state


def result(job):
    """The job's result, computing or recovering it now if necessary.

    Synchronous and idempotent: the first call on a pending job runs it
    (durable jobs resume from their newest committed checkpoint if a
    previous driver died mid-run); later calls return the cached result.
    A completed *durable* job with no result in memory — submitted by a
    process that has since exited, or older than the newest
    :data:`RETAINED_DURABLE_RESULTS` completions — reconstructs its
    :class:`~repro.swm.model.RunResult` from the final checkpoint.
    """
    record, run_dir = _resolve(job)
    if record is not None and record.result is not None:
        return record.result
    if record is not None and record.state == "failed":
        raise record.error
    if run_dir is not None:
        mesh = None if record is None else record.handle.request.mesh
        value = _durable_result(run_dir, mesh)
        if record is not None:
            record.state, record.result = "completed", value
            _RETAINED.append(record)
            while len(_RETAINED) > RETAINED_DURABLE_RESULTS:
                _RETAINED.popleft().result = None
        return value
    if record is None:
        raise JobError(f"unknown job {job!r} (not submitted in this process)")
    try:
        value = _run_now(record.handle.request)
    except Exception as exc:
        record.state, record.error = "failed", exc
        raise
    record.state, record.result = "completed", value
    return value


# ---------------------------------------------------------------- internals
def _resolve(job) -> tuple[_Job | None, Path | None]:
    """``(in-process record or None, durable run_dir or None)``."""
    if isinstance(job, JobHandle):
        return _BY_ID.get(job.id), job.run_dir
    if isinstance(job, str) and job in _BY_ID:
        return _BY_ID[job], _BY_ID[job].handle.run_dir
    if isinstance(job, (str, Path)):
        return None, Path(job)
    raise JobError(
        f"expected a JobHandle, a job id, or a durable run directory, "
        f"got {job!r}"
    )


def _run_now(req):
    """Execute a normalized request in-process (plain or ensemble)."""
    if req.config.ensemble:
        from .api import run_ensemble

        return run_ensemble(
            case=req.case,
            mesh=req.mesh,
            config=req.config,
            steps=req.steps,
            invariant_interval=req.invariant_interval,
        )
    from .api import _execute

    return _execute(req)


def _ensure_manifest(req, run_dir: Path) -> None:
    """Create the durable run directory now (or attach to a matching one)."""
    from .resilience.durable import DurableRun, ManifestError

    config = req.config
    if config.checkpoint_interval < 1:
        # Mirror run_durable: a durable run without checkpoints would be
        # an ordinary run with extra paperwork.
        config = dataclasses.replace(config, checkpoint_interval=1)
    if (run_dir / "manifest.json").exists():
        existing = DurableRun.open(run_dir)
        existing.validate_compatible(
            config=config, mesh=req.mesh, case_token=req.case_token
        )
        if int(existing.manifest["steps"]) != int(req.steps):
            raise ManifestError(
                f"job horizon {req.steps} does not match the durable run in "
                f"{run_dir} (manifest: {existing.manifest['steps']}); point "
                f"the request at a fresh directory"
            )
        if existing.invariant_interval != req.invariant_interval:
            raise ManifestError(
                f"invariant_interval {req.invariant_interval} does not match "
                f"the durable run in {run_dir} (manifest: "
                f"{existing.invariant_interval}); use a fresh directory"
            )
        return
    DurableRun.create(
        run_dir, req.case_token, req.mesh, config, req.steps, req.invariant_interval
    )


def _durable_status(run_dir: Path) -> str:
    from .resilience.durable import DurableRun

    run = DurableRun.open(run_dir)
    if run.manifest.get("completed"):
        return "completed"
    if run.manifest["checkpoints"]:
        return "running"
    return "pending"


def _durable_result(run_dir: Path, mesh=None):
    """Drive or recover a durable job from its run directory; ``mesh`` is
    the submitter's (a bare directory rebuilds it from the manifest)."""
    from .resilience.durable import DurableRun, resume_durable

    run = DurableRun.open(run_dir)
    if run.manifest.get("completed"):
        return _reconstruct_completed(run, mesh)
    if run.manifest["checkpoints"]:
        # A previous driver made progress and died; roll forward from the
        # newest committed checkpoint (bitwise identical to never dying).
        get_registry().counter("jobs.resumed").inc()
        return resume_durable(
            run_dir, mesh=mesh, invariant_interval=run.invariant_interval
        )
    # Fresh directory: drive the run from step 0 under this manifest.
    mesh = run.resolve_mesh(mesh)
    from .api import resolve_case
    from .resilience.durable import _drive
    from .swm.config import SWConfig

    config = SWConfig.from_dict(run.manifest["config"])
    case = resolve_case(run.manifest["case"])
    total = int(run.manifest["steps"])
    return _drive(run, mesh, case, config, 0, total, None, run.invariant_interval)


def _reconstruct_completed(run, mesh=None):
    """A completed job's result, rebuilt from its final checkpoint.

    ``resume_durable`` (rightly) refuses completed runs, but a service
    asking for the result of a finished job after a restart deserves an
    answer, not an error: the final committed checkpoint holds the
    prognostic state, and the end-of-step diagnostics are a pure function
    of it (the restart contract), so everything except the in-run
    invariant history is recoverable bitwise.  The *endpoint* invariants
    are recomputed too — the initial condition re-discretizes from the
    manifest's case token and the final state comes off the checkpoint,
    so ``mass_drift()``/``energy_drift()`` answer identically to the
    original driver (which recorded the same two states).
    """
    from .api import resolve_case
    from .resilience.durable import ManifestError
    from .swm.model import ShallowWaterModel
    from .swm.testcases import initialize

    total = int(run.manifest["steps"])
    found = run.latest_valid_checkpoint()
    if found is None or found[0] != total:
        at = "none" if found is None else f"step {found[0]}"
        raise ManifestError(
            f"the completed run in {run.directory} has no valid final "
            f"checkpoint (newest: {at}, want step {total}); the result "
            f"cannot be reconstructed"
        )
    _, ckpt = found
    mesh = run.resolve_mesh(mesh)
    get_registry().counter("jobs.reconstructed").inc()
    final = ShallowWaterModel.from_checkpoint(mesh, ckpt)
    case = resolve_case(run.manifest["case"])
    start = ShallowWaterModel.from_state(
        mesh, final.config, case, initialize(mesh, case)[0],
        final.b_cell, final.integrator.f_vertex,
    )
    return final.result(
        total, total * final.config.dt, [start.invariants(), final.invariants()]
    )
