"""The public, stable entry points of the reproduction.

Everything a caller needs for a model run lives here, one import away::

    from repro.api import SWConfig, build_mesh, run

    result = run("galewsky", mesh=build_mesh(level=3), days=1.0)
    print(result.mass_drift())

The surface is *job-oriented*: every run is described by a frozen
:class:`RunRequest` (what to integrate, on which mesh, for how long), and
the execution entry points are thin consumers of it:

:func:`build_mesh`
    The cached SCVT mesh at a refinement level.
:func:`resolve_case`
    A :class:`~repro.swm.testcases.TestCase` from a name (``"galewsky"``,
    ``"tc5"``), a Williamson number, or an already-built case.
:class:`RunRequest`
    The declarative run description — ``normalize()`` resolves tokens and
    defaults into a concrete request, ``validate()`` rejects bad
    combinations actionably, ``key()`` is the content identity jobs
    deduplicate on.
:func:`run`
    Normalize one request and execute it synchronously through
    :meth:`~repro.swm.model.ShallowWaterModel.run` on the executor
    ``SWConfig.parallel`` names: ``"serial"`` (one integrator),
    ``"lockstep"`` (P decomposed ranks, one process) or ``"pool"``
    (P concurrent shared-memory worker processes).  All three return the
    same :class:`~repro.swm.model.RunResult` and produce bitwise-identical
    prognostic state, invariant records and guard verdicts.
:func:`run_ensemble`
    N perturbed-IC members advanced lockstep through one batched execution
    plan (:mod:`repro.ensemble`); member ``k`` is bitwise identical to a
    serial :func:`run` of the same member.
:func:`submit` / :func:`status` / :func:`result`
    The job queue (:mod:`repro.jobs`): deduplicating deferred execution,
    durable (checkpoint-backed) when the request carries a ``run_dir`` —
    a job whose process died resumes from its newest committed
    checkpoint, and a completed job evicted from memory reconstructs its
    result from the final checkpoint.

The deeper layers (``repro.engine``, ``repro.patterns``, ``repro.hybrid``,
``repro.obs``, ...) remain importable directly; this module adds no new
behaviour, only a front door.
"""

from __future__ import annotations

import dataclasses

from .engine.plan import ExecutionPlan, compiled_plan
from .mesh.cache import cached_mesh
from .mesh.mesh import Mesh
from .swm.config import SWConfig
from .swm.error import ErrorNorms, Invariants, error_norms
from .swm import scenarios as _scenarios
from .swm.model import RunResult, ShallowWaterModel, suggested_dt
from .swm.state import State
from .swm.testcases import TEST_CASES, TestCase

__all__ = [
    "SWConfig",
    "ExecutionPlan",
    "compiled_plan",
    "TestCase",
    "RunResult",
    "State",
    "Mesh",
    "Invariants",
    "ErrorNorms",
    "error_norms",
    "suggested_dt",
    "build_mesh",
    "resolve_case",
    "run",
    "RunRequest",
    "run_ensemble",
    "EnsembleResult",
    "JobHandle",
    "submit",
    "status",
    "result",
]

#: Williamson-numbered case aliases accepted by :func:`resolve_case`
#: (a derived view; the source of truth is :data:`repro.swm.scenarios.
#: SCENARIOS` — kept for backwards compatibility with pre-registry callers).
CASE_NAMES = {
    alias: sc.number
    for sc in _scenarios.SCENARIOS
    if sc.number is not None and sc.number in TEST_CASES
    for alias in sc.all_names
}


def build_mesh(
    level: int = 3,
    lloyd_iterations: int = 4,
    radius: float | None = None,
    use_disk: bool = True,
) -> Mesh:
    """The quasi-uniform SCVT mesh at icosahedral refinement ``level``.

    Levels 3/4/5 have 642 / 2562 / 10242 cells.  Built at most once:
    meshes are cached in memory and (``use_disk``) on disk.
    """
    kwargs = {} if radius is None else {"radius": radius}
    return cached_mesh(
        level, lloyd_iterations=lloyd_iterations, use_disk=use_disk, **kwargs
    )


def resolve_case(case: TestCase | str | int) -> TestCase:
    """A :class:`TestCase` from a name, a Williamson number, or itself.

    A thin veneer over the scenario library
    (:func:`repro.swm.scenarios.resolve`): accepts every catalogue name
    and alias (``"galewsky"``, ``"tc5"``, ``"dam_break"``, ...; see
    :func:`repro.swm.scenarios.known_names`), Williamson numbers, and the
    parametric seeded perturbed-IC tokens
    (``"perturbed:<base>:<member>:<seed>[:<amplitude>]"``) whose initial
    conditions match the same-seed :mod:`repro.ensemble` member bitwise.
    """
    return _scenarios.resolve(case)


@dataclasses.dataclass(frozen=True, eq=False)
class RunRequest:
    """One declarative, immutable run description.

    The request is the unit the whole execution surface agrees on:
    :func:`run` executes one synchronously, :func:`submit` queues one, and
    two requests with the same :meth:`key` are the *same work* (the job
    queue runs them once).

    A raw request may hold tokens (a case name, a mesh level, no config);
    :meth:`normalize` resolves it into a concrete one — mesh built,
    config defaulted to the CFL-safe ``suggested_dt``, ``days`` converted
    to ``steps`` — without mutating the original.  ``frozen`` is the
    point: a request can be stored in a queue and consulted later,
    certain that nobody rewrote its fields (``eq=False`` keeps hashing by
    identity — meshes and configs are not themselves hashable).
    """

    case: TestCase | str | int | None = None
    mesh: Mesh | None = None
    config: SWConfig | None = None
    steps: int | None = None
    days: float | None = None
    level: int = 3
    invariant_interval: int = 0
    run_dir: object = None  # path-like; makes the run durable

    # -------------------------------------------------------------- derived
    @property
    def case_token(self):
        """The re-resolvable case identity (name/number), or ``None``.

        Durable runs and job manifests persist this — an ad-hoc
        :class:`TestCase` object has no stable on-disk identity.
        """
        return self.case if isinstance(self.case, (str, int)) else None

    def validate(self) -> None:
        """Reject an unrunnable request with an actionable message.

        Cheap (no mesh build, no case resolution): checks the field
        *combinations* — the deep per-field checks live in
        :meth:`SWConfig.validate` and :func:`resolve_case`, which
        :meth:`normalize` invokes.
        """
        if self.case is None:
            raise ValueError("case is required (or pass resume=...)")
        if (self.steps is None) == (self.days is None):
            raise ValueError("specify exactly one of steps/days")
        if self.steps is not None and int(self.steps) < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps!r}")
        if self.days is not None and float(self.days) <= 0.0:
            raise ValueError(f"days must be > 0, got {self.days!r}")
        if self.invariant_interval < 0:
            raise ValueError(
                f"invariant_interval must be >= 0, got {self.invariant_interval!r}"
            )
        if self.run_dir is not None and isinstance(self.case, TestCase):
            # ManifestError, not ValueError: the durable layer owns this
            # contract and callers already catch it there.
            from .resilience.durable import ManifestError

            raise ManifestError(
                "durable requests (run_dir=...) need the case as a name or "
                "Williamson number, re-resolvable at resume time"
            )
        if self.config is not None:
            self.config.validate()

    def normalize(self) -> "RunRequest":
        """The concrete request this one describes (a new object).

        Resolves every default: the mesh is built (``level``), the config
        gains the CFL-safe ``suggested_dt`` for the case and mesh, and
        ``days`` collapses into ``steps``.  The case *token* is kept (not
        replaced by the resolved object) so durable runs can persist it.
        Normalizing a normalized request is the identity transformation.
        """
        self.validate()
        case = resolve_case(self.case)
        mesh = self.mesh if self.mesh is not None else build_mesh(self.level)
        config = self.config
        if config is None:
            from .constants import GRAVITY

            config = SWConfig(dt=suggested_dt(mesh, case, GRAVITY))
        steps = self.steps
        if steps is None:
            from .constants import SECONDS_PER_DAY

            steps = int(round(self.days * SECONDS_PER_DAY / config.dt))
        return dataclasses.replace(
            self,
            mesh=mesh,
            config=config,
            steps=int(steps),
            days=None,
        )

    def key(self) -> tuple:
        """The content identity of this request (the job-dedup key).

        ``(mesh fingerprint, case identity, sorted config fields, steps,
        invariant_interval, run_dir)`` of the *normalized* request — two
        requests with equal keys integrate the identical trajectory, so
        the job queue runs them once.  An ad-hoc :class:`TestCase` object
        contributes its Python identity (never falsely deduplicated).
        """
        req = self.normalize()
        from .engine.sparse import mesh_fingerprint

        if req.case_token is not None:
            # Canonicalize through the catalogue so aliases of the same
            # case ("tc2", 2, "steady_zonal_flow") share one key.
            case_key = ("token", resolve_case(req.case_token).name)
        else:
            case_key = ("object", req.case.name, id(req.case))
        return (
            mesh_fingerprint(req.mesh),
            case_key,
            tuple(sorted(dataclasses.asdict(req.config).items())),
            req.steps,
            req.invariant_interval,
            None if req.run_dir is None else str(req.run_dir),
        )


def _execute(req: RunRequest, callback=None) -> RunResult:
    """Execute one *normalized* request synchronously."""
    config = req.config
    if config.ensemble:
        raise ValueError(
            "config.ensemble > 0 describes an ensemble: call "
            "repro.api.run_ensemble (or `python -m repro run --ensemble N`)"
        )
    if req.run_dir is not None:
        from .resilience.durable import run_durable

        return run_durable(
            req.run_dir, req.case_token, req.mesh, config, req.steps,
            invariant_interval=req.invariant_interval, callback=callback,
        )
    with ShallowWaterModel(req.mesh, config) as model:
        model.initialize(resolve_case(req.case))
        return model.run(
            steps=req.steps,
            invariant_interval=req.invariant_interval,
            callback=callback,
        )


def run(
    case: TestCase | str | int | None = None,
    mesh: Mesh | None = None,
    config: SWConfig | None = None,
    steps: int | None = None,
    days: float | None = None,
    level: int = 3,
    invariant_interval: int = 0,
    callback=None,
    run_dir=None,
    resume=None,
) -> RunResult:
    """Initialize, integrate and finalize one shallow-water run.

    A thin wrapper since the job redesign: the arguments become a
    :class:`RunRequest`, which is normalized and executed synchronously.

    Parameters
    ----------
    case : TestCase, str or int
        What to integrate (see :func:`resolve_case`).
    mesh : Mesh, optional
        Defaults to ``build_mesh(level)``.
    config : SWConfig, optional
        Defaults to a second-order configuration with the CFL-safe
        ``suggested_dt`` for the case and mesh.  ``config.parallel``
        selects the executor; ``config.ranks`` the decomposition width.
    steps, days : exactly one required
        Integration length in RK-4 steps or simulated days.
    invariant_interval, callback
        Forwarded to :meth:`~repro.swm.model.ShallowWaterModel.run`; every
        executor records the serial run's invariants and hands the callback
        the serial run's states (gathered from the ranks at those steps).
    run_dir : path-like, optional
        Make the run *durable*: checkpoints land in this directory under a
        crash-consistent manifest, so a killed run can be continued with
        ``resume=`` — bitwise identically to never having been killed.
        Requires ``case`` as a name/number (re-resolvable at resume time).
    resume : path-like, optional
        Continue the durable run in this directory to its recorded
        horizon.  Everything (case, config, steps, state) is restored from
        the directory; ``case``/``config``/``steps``/``days`` must be left
        unset (an incompatible override raises
        :class:`~repro.resilience.durable.ManifestError`).

    Returns the same :class:`RunResult` shape for every executor; the
    prognostic state is bitwise identical across all three modes.
    """
    if resume is not None:
        if case is not None or config is not None or steps is not None or days is not None:
            raise ValueError(
                "resume=... restores case/config/steps from the run "
                "directory manifest; do not pass them"
            )
        from .resilience.durable import resume_durable

        return resume_durable(
            resume, mesh=mesh,
            invariant_interval=invariant_interval, callback=callback,
        )
    req = RunRequest(
        case=case,
        mesh=mesh,
        config=config,
        steps=steps,
        days=days,
        level=level,
        invariant_interval=invariant_interval,
        run_dir=run_dir,
    ).normalize()
    return _execute(req, callback=callback)


def run_ensemble(
    case: TestCase | str | int | None = None,
    mesh: Mesh | None = None,
    config: SWConfig | None = None,
    steps: int | None = None,
    days: float | None = None,
    level: int = 3,
    invariant_interval: int = 0,
    ensemble: int | None = None,
    perturb_seed: int | None = None,
    perturb_amplitude: float | None = None,
    initial_states=None,
):
    """Integrate N perturbed-IC ensemble members lockstep through one plan.

    Accepts the same tokens as :func:`run` plus the ensemble knobs
    (``ensemble``/``perturb_seed``/``perturb_amplitude`` override the
    corresponding ``config.ensemble*`` fields; a default config comes out
    ``backend="sparse"`` as batching requires).  Member ``k`` of the
    result is **bitwise identical** to a serial :func:`run` started from
    :func:`repro.ensemble.member_initial_state` with the same seed.

    Returns an :class:`~repro.ensemble.run.EnsembleResult` — one
    :class:`RunResult` (or ``None``) plus one verdict per member.
    """
    from .ensemble.run import run_ensemble as _run

    overrides = {}
    if ensemble is not None:
        overrides["ensemble"] = int(ensemble)
    if perturb_seed is not None:
        overrides["ensemble_seed"] = int(perturb_seed)
    if perturb_amplitude is not None:
        overrides["ensemble_amplitude"] = float(perturb_amplitude)
    if config is None:
        if case is None:
            raise ValueError("case is required (or pass resume=...)")
        rcase = resolve_case(case)
        rmesh = mesh if mesh is not None else build_mesh(level)
        from .constants import GRAVITY

        config = SWConfig(
            dt=suggested_dt(rmesh, rcase, GRAVITY), backend="sparse", **overrides
        )
        mesh = rmesh
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    if config.ensemble < 1:
        raise ValueError(
            "run_ensemble needs an ensemble width: pass ensemble=N (or a "
            "config with config.ensemble >= 1); single runs go through "
            "repro.api.run"
        )
    req = RunRequest(
        case=case, mesh=mesh, config=config, steps=steps, days=days,
        level=level, invariant_interval=invariant_interval,
    ).normalize()
    return _run(
        req.mesh,
        resolve_case(req.case),
        req.config,
        req.steps,
        invariant_interval=req.invariant_interval,
        initial_states=initial_states,
    )


# The job queue and ensemble result type build on this module's surface;
# imported last so repro.jobs can in turn import RunRequest from here
# without a cycle.
from .ensemble.run import EnsembleResult  # noqa: E402
from .jobs import JobHandle, result, status, submit  # noqa: E402
