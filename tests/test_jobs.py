"""The job-oriented API surface: RunRequest, submit/status/result, dedup.

Three layers of guarantees:

* **RunRequest** — validation rejects unrunnable combinations with
  actionable messages; ``normalize()`` is idempotent and resolves every
  token; ``key()`` identifies identical work (and only identical work).
* **In-process jobs** — submission never integrates; duplicate requests
  share one handle and one execution; results are lazy and cached.
* **Durable jobs** — submission creates the manifest on disk, any process
  can drive/inspect the job from the run directory alone, and a completed
  job whose in-memory record is gone (restart) reconstructs its result
  from the final checkpoint, bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.jobs as jobs
from repro.api import (
    RunRequest,
    SWConfig,
    resolve_case,
    result,
    run,
    status,
    submit,
    suggested_dt,
)
from repro.constants import GRAVITY
from repro.jobs import JobError, JobHandle
from repro.resilience.durable import DurableRun, ManifestError

STEPS = 4


@pytest.fixture(scope="module")
def dt(mesh3):
    return suggested_dt(mesh3, resolve_case("tc2"), GRAVITY, cfl=0.6)


@pytest.fixture(autouse=True)
def fresh_queue():
    jobs.reset()
    yield
    jobs.reset()


# ----------------------------------------------------------------- requests
class TestRunRequestValidation:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({}, "case is required"),
            ({"case": "tc2"}, "exactly one of steps/days"),
            ({"case": "tc2", "steps": 2, "days": 1.0}, "exactly one of steps/days"),
            ({"case": "tc2", "steps": 0}, "steps must be >= 1"),
            ({"case": "tc2", "days": 0.0}, "days must be > 0"),
            ({"case": "tc2", "steps": 2, "invariant_interval": -1},
             "invariant_interval must be >= 0"),
        ],
    )
    def test_rejections_are_actionable(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunRequest(**kwargs).validate()

    def test_durable_request_needs_a_case_token(self, tmp_path):
        req = RunRequest(
            case=resolve_case("tc2"), steps=2, run_dir=tmp_path / "d"
        )
        with pytest.raises(ManifestError, match="name or Williamson number"):
            req.validate()

    def test_config_validation_is_invoked(self):
        cfg = SWConfig(dt=600.0)
        cfg.dt = -1.0
        with pytest.raises(ValueError, match="dt must be positive"):
            RunRequest(case="tc2", steps=2, config=cfg).validate()


class TestRunRequestNormalize:
    def test_resolves_every_default(self, mesh3, dt):
        req = RunRequest(case="tc2", mesh=mesh3, steps=3).normalize()
        assert req.mesh is mesh3
        assert req.config is not None and req.config.dt > 0
        assert req.steps == 3 and req.days is None
        assert req.case_token == "tc2"

    def test_days_collapse_into_steps(self, mesh3, dt):
        cfg = SWConfig(dt=dt)
        req = RunRequest(case="tc2", mesh=mesh3, config=cfg, days=0.25).normalize()
        assert req.steps == int(round(0.25 * 86400.0 / dt))

    def test_idempotent(self, mesh3):
        one = RunRequest(case="tc2", mesh=mesh3, steps=3).normalize()
        two = one.normalize()
        assert two.steps == one.steps
        assert two.mesh is one.mesh
        assert two.config is one.config

    def test_original_is_untouched(self, mesh3):
        raw = RunRequest(case="tc2", mesh=mesh3, steps=3)
        raw.normalize()
        assert raw.config is None

    def test_frozen(self, mesh3):
        req = RunRequest(case="tc2", mesh=mesh3, steps=3)
        with pytest.raises(AttributeError):
            req.steps = 99


class TestRunRequestKey:
    def test_same_work_same_key(self, mesh3, dt):
        a = RunRequest(case="tc2", mesh=mesh3, config=SWConfig(dt=dt), steps=3)
        b = RunRequest(case="tc2", mesh=mesh3, config=SWConfig(dt=dt), steps=3)
        assert a.key() == b.key()

    def test_alias_tokens_share_one_key(self, mesh3, dt):
        cfg = SWConfig(dt=dt)
        t = RunRequest(case=2, mesh=mesh3, config=cfg, steps=3).key()
        s = RunRequest(case="tc2", mesh=mesh3, config=cfg, steps=3).key()
        a = RunRequest(
            case="steady_zonal_flow", mesh=mesh3, config=cfg, steps=3
        ).key()
        assert t == s == a

    def test_different_work_different_key(self, mesh3, dt):
        cfg = SWConfig(dt=dt)
        base = RunRequest(case="tc2", mesh=mesh3, config=cfg, steps=3)
        assert base.key() != RunRequest(
            case="tc2", mesh=mesh3, config=cfg, steps=4
        ).key()
        assert base.key() != RunRequest(
            case="tc5", mesh=mesh3, config=cfg, steps=3
        ).key()
        assert base.key() != RunRequest(
            case="tc2", mesh=mesh3, config=SWConfig(dt=dt / 2.0), steps=3
        ).key()


# ----------------------------------------------------------- in-process jobs
class TestInProcessJobs:
    def test_submit_is_lazy_and_dedups(self, mesh3, dt):
        cfg = SWConfig(dt=dt)
        h1 = submit(RunRequest(case="tc2", mesh=mesh3, config=cfg, steps=STEPS))
        h2 = submit(case="tc2", mesh=mesh3, config=cfg, steps=STEPS)
        assert isinstance(h1, JobHandle)
        assert h1.id == h2.id, "identical requests must share one job"
        assert status(h1) == "pending"

    def test_result_runs_once_and_caches(self, mesh3, dt):
        cfg = SWConfig(dt=dt)
        h = submit(case="tc2", mesh=mesh3, config=cfg, steps=STEPS)
        res = result(h)
        assert status(h) == "completed"
        assert result(h) is res
        direct = run("tc2", mesh=mesh3, config=SWConfig(dt=dt), steps=STEPS)
        assert np.array_equal(res.state.h, direct.state.h)

    def test_ensemble_request_yields_ensemble_result(self, mesh3):
        case = resolve_case("galewsky")
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5),
            backend="sparse", ensemble=2, ensemble_seed=1,
        )
        h = submit(case="galewsky", mesh=mesh3, config=cfg, steps=2)
        res = result(h)
        assert res.n_members == 2
        assert [v.status for v in res.verdicts] == ["ok", "ok"]

    def test_unknown_job_is_an_error(self):
        with pytest.raises(JobError, match="unknown job"):
            status(JobHandle(id="job-9999", request=None))
        with pytest.raises(JobError, match="expected a JobHandle"):
            status(42)

    def test_submit_rejects_mixed_arguments(self, mesh3, dt):
        req = RunRequest(case="tc2", mesh=mesh3, config=SWConfig(dt=dt), steps=2)
        with pytest.raises(JobError, match="not both"):
            submit(req, steps=3)
        with pytest.raises(JobError, match="RunRequest"):
            submit("tc2")


# -------------------------------------------------------------- durable jobs
class TestDurableJobs:
    def _request(self, mesh, dt, run_dir, steps=STEPS):
        return RunRequest(
            case="tc2", mesh=mesh,
            config=SWConfig(dt=dt, checkpoint_interval=2),
            steps=steps, run_dir=run_dir,
        )

    def test_submit_creates_manifest_without_running(self, mesh3, dt, tmp_path):
        d = tmp_path / "job"
        h = submit(self._request(mesh3, dt, d))
        assert (d / "manifest.json").exists()
        assert status(h) == "pending"
        manifest = DurableRun.open(d).manifest
        assert manifest["completed"] is False
        assert manifest["checkpoints"] == []
        assert manifest["steps"] == STEPS

    def test_result_drives_then_any_process_reads_completed(
        self, mesh3, dt, tmp_path
    ):
        d = tmp_path / "job"
        h = submit(self._request(mesh3, dt, d))
        res = result(h)
        assert res.steps == STEPS
        # Another process never saw the handle; the directory is enough.
        assert status(d) == "completed"
        assert status(str(d)) == "completed"

    def test_fresh_process_drives_job_from_disk_alone(self, mesh3, dt, tmp_path):
        d = tmp_path / "job"
        submit(self._request(mesh3, dt, d))
        jobs.reset()  # the submitting "process" is gone
        res = result(d)
        direct = run(
            "tc2", mesh=mesh3,
            config=SWConfig(dt=dt, checkpoint_interval=2), steps=STEPS,
        )
        assert np.array_equal(res.state.h, direct.state.h)
        assert np.array_equal(res.state.u, direct.state.u)

    def test_resume_drives_a_never_driven_directory(self, mesh3, dt, tmp_path):
        """``run(resume=d)`` on a directory ``submit`` created starts from the
        initial condition, and ``result`` drives one through the same call
        without counting it as a resumed job."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        direct = run(
            "tc2", mesh=mesh3,
            config=SWConfig(dt=dt, checkpoint_interval=2), steps=STEPS,
        )
        d, fresh = tmp_path / "job", tmp_path / "fresh"
        submit(self._request(mesh3, dt, d))
        submit(self._request(mesh3, dt, fresh, steps=STEPS - 1))
        jobs.reset()
        metrics = MetricsRegistry()
        with use_registry(metrics):
            resumed = run(resume=d, mesh=mesh3)
            result(fresh)
        assert np.array_equal(resumed.state.h, direct.state.h)
        assert np.array_equal(resumed.state.u, direct.state.u)
        assert status(d) == status(fresh) == "completed"
        steps = [c["step"] for c in DurableRun.open(d).manifest["checkpoints"]]
        assert steps == [0, 2, 4]
        assert metrics.series("jobs.resumed") == []

    def test_evicted_completed_job_reconstructs_bitwise(self, mesh3, dt, tmp_path):
        d = tmp_path / "job"
        h = submit(self._request(mesh3, dt, d))
        res = result(h)
        jobs.reset()  # eviction: in-memory record gone, directory remains
        rec = result(d)
        assert np.array_equal(rec.state.h, res.state.h)
        assert np.array_equal(rec.state.u, res.state.u)
        assert np.array_equal(
            rec.reconstruction.uReconstructZonal,
            res.reconstruction.uReconstructZonal,
        )
        assert rec.steps == res.steps

    def test_evicted_completed_job_answers_drift_questions(
        self, mesh3, dt, tmp_path
    ):
        """Regression: reconstructed results used to carry an empty
        invariant history, so ``mass_drift()``/``energy_drift()`` crashed
        with ``IndexError``.  The reconstruction now recomputes the
        endpoint invariants (IC re-discretized from the manifest's case
        token, final state off the checkpoint), so a fresh process gets
        the *same* drift numbers the original driver saw — bitwise."""
        d = tmp_path / "job"
        h = submit(self._request(mesh3, dt, d))
        res = result(h)
        jobs.reset()  # eviction: in-memory record gone, directory remains
        rec = result(d)
        assert len(rec.invariant_history) == 2
        assert rec.mass_drift() == res.mass_drift()
        assert rec.energy_drift() == res.energy_drift()

    def test_job_path_records_the_requested_invariants(self, mesh3, dt, tmp_path):
        """Regression: ``result()`` on a fresh durable job drove the run
        through ``_durable_result``, which dropped ``invariant_interval``
        and returned only the two endpoint records.  The interval now
        lives in the manifest, so the job path — even from a process that
        knows only the directory — matches ``run(..., run_dir=d)``."""
        cfg = SWConfig(dt=dt, checkpoint_interval=2)
        direct = run(
            "tc2", mesh=mesh3, config=cfg, steps=STEPS,
            invariant_interval=1, run_dir=tmp_path / "direct",
        )
        d = tmp_path / "job"
        submit(
            case="tc2", mesh=mesh3, config=cfg, steps=STEPS,
            invariant_interval=1, run_dir=d,
        )
        jobs.reset()  # the submitting "process" is gone
        res = result(d)
        assert len(res.invariant_history) == STEPS + 1
        assert res.invariant_history == direct.invariant_history
        assert DurableRun.open(d).invariant_interval == 1

    def test_manifest_without_the_field_reads_as_zero(self, mesh3, dt, tmp_path):
        d = tmp_path / "job"
        submit(self._request(mesh3, dt, d))
        drun = DurableRun.open(d)
        del drun.manifest["invariant_interval"]  # a pre-existing manifest
        drun.save()
        assert DurableRun.open(d).invariant_interval == 0
        jobs.reset()
        with pytest.raises(ManifestError, match="invariant_interval"):
            submit(
                case="tc2", mesh=mesh3,
                config=SWConfig(dt=dt, checkpoint_interval=2),
                steps=STEPS, invariant_interval=1, run_dir=d,
            )
        assert len(result(d).invariant_history) == 2

    def test_resubmit_attaches_and_mismatch_rejected(self, mesh3, dt, tmp_path):
        d = tmp_path / "job"
        submit(self._request(mesh3, dt, d))
        jobs.reset()
        h2 = submit(self._request(mesh3, dt, d))  # re-attach, same work
        assert status(h2) == "pending"
        jobs.reset()
        with pytest.raises(ManifestError, match="horizon"):
            submit(self._request(mesh3, dt, d, steps=STEPS + 1))

    def test_partial_run_resumes_from_checkpoint(self, mesh3, dt, tmp_path):
        """A driver that died mid-run left committed checkpoints; result()
        rolls forward from the newest one, bitwise."""
        from repro.resilience.durable import resume_durable

        d = tmp_path / "job"
        submit(self._request(mesh3, dt, d))
        jobs.reset()
        # Simulate the dead driver: integrate only half the horizon under
        # the job's manifest, leaving its checkpoints committed.
        drun = DurableRun.open(d)
        drun.manifest["steps"] = STEPS // 2
        drun.save()
        resume_durable(d, mesh=mesh3)
        drun = DurableRun.open(d)
        drun.manifest["steps"] = STEPS
        drun.manifest["completed"] = False
        drun.save()
        assert status(d) == "running"
        res = result(d)
        direct = run(
            "tc2", mesh=mesh3,
            config=SWConfig(dt=dt, checkpoint_interval=2), steps=STEPS,
        )
        assert np.array_equal(res.state.h, direct.state.h)
        assert status(d) == "completed"

    def test_completed_durable_results_are_bounded(self, mesh3, dt, tmp_path):
        """Regression: the queue pinned the RunResult of every completed
        job for the life of the process (2 MB each at level 5).  Only the
        newest few completed durable jobs keep theirs; an older handle
        still answers — rebuilt from its run directory, bitwise."""

        def held() -> int:
            return sum(j.result is not None for j in jobs._BY_ID.values())

        handles = [
            submit(case="tc2", mesh=mesh3, config=SWConfig(dt=dt),
                   steps=1 + k % 2, run_dir=tmp_path / f"job-{k}")
            for k in range(12)
        ]
        first = result(handles[0])
        first_h, first_u = first.state.h.copy(), first.state.u.copy()
        for h in handles[1:]:
            result(h)
        assert held() <= jobs.RETAINED_DURABLE_RESULTS < len(handles)
        assert result(handles[-1]) is result(handles[-1])  # newest: cached
        assert status(handles[0]) == "completed"
        again = result(handles[0])
        assert again is not first
        assert np.array_equal(again.state.h, first_h)
        assert np.array_equal(again.state.u, first_u)
        assert len(again.invariant_history) == 2  # endpoints only
        assert held() <= jobs.RETAINED_DURABLE_RESULTS

    def test_in_process_results_are_never_dropped(self, mesh3, dt):
        handles = [
            submit(case="tc2", mesh=mesh3, config=SWConfig(dt=dt), steps=k)
            for k in range(1, jobs.RETAINED_DURABLE_RESULTS + 3)
        ]
        first = result(handles[0])
        for h in handles[1:]:
            result(h)
        assert result(handles[0]) is first

    def test_custom_mesh_job_runs_in_the_submitting_process(self, tmp_path):
        """Regression: ``result(handle)`` ignored the mesh the handle's
        request holds and always rebuilt one from the manifest's level, so
        a job on a ``Mesh.from_points`` mesh raised ``ManifestError:
        records no mesh level`` although ``run(..., run_dir=d)`` works."""
        from repro.geometry import lloyd_relax, normalize
        from repro.mesh import Mesh

        pts = normalize(np.random.default_rng(11).standard_normal((120, 3)))
        mesh = Mesh.from_points(
            lloyd_relax(pts, iterations=40).points, name="random120-11"
        )
        cfg = SWConfig(
            dt=suggested_dt(mesh, resolve_case("tc2"), GRAVITY, cfl=0.5)
        )
        direct = run("tc2", mesh=mesh, config=cfg, steps=2,
                     run_dir=tmp_path / "direct")
        h = submit(case="tc2", mesh=mesh, config=cfg, steps=2,
                   run_dir=tmp_path / "job")
        res = result(h)
        assert np.array_equal(res.state.h, direct.state.h)
        assert np.array_equal(res.state.u, direct.state.u)
        # A bare directory has no mesh to offer and none to rebuild from.
        jobs.reset()
        with pytest.raises(ManifestError, match="no mesh level"):
            result(tmp_path / "job")

    def test_durable_ensemble_rejected(self, mesh3, tmp_path):
        case = resolve_case("galewsky")
        cfg = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5),
            backend="sparse", ensemble=2,
        )
        with pytest.raises(JobError, match="durable ensemble"):
            submit(RunRequest(
                case="galewsky", mesh=mesh3, config=cfg, steps=2,
                run_dir=tmp_path / "e",
            ))
