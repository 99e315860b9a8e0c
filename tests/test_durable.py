"""Durable runs: crash-consistent manifests, bitwise resume, crash chaos.

Three layers, mirroring :mod:`repro.resilience.durable`:

* manifest mechanics — create/open/commit/validate and the
  crash-consistency bookkeeping (uncommitted files cleaned, digest
  mismatches quarantined);
* in-process interrupts — a ``process.crash`` fault *raised* mid-run, then
  ``repro.api.run(resume=...)`` continuing bitwise-identically to an
  uninterrupted reference, for the serial, lockstep and pool executors;
* crash chaos (``@pytest.mark.chaos``) — subprocesses really SIGKILLed
  mid-step via ``--chaos-crash-at``, resumed with ``--resume``, and the
  final checkpoint compared byte-for-byte against an uninterrupted
  in-process reference, across backends and executors.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import resolve_case, run, suggested_dt
from repro.constants import GRAVITY
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.durable import (
    MANIFEST_NAME,
    DurableRun,
    ManifestError,
    sha256_file,
)
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    use_fault_plan,
)
from repro.swm.config import SWConfig

SRC = Path(__file__).parent.parent / "src"


def _cfg(mesh, **overrides) -> SWConfig:
    case = resolve_case("galewsky")
    dt = suggested_dt(mesh, case, GRAVITY, cfl=0.5)
    return SWConfig(dt=dt, **overrides)


def _crash_plan(step: int) -> FaultPlan:
    """Raise FaultInjected when integration step ``step`` starts."""
    return FaultPlan(
        [FaultSpec("process.crash", at=(1,), match={"step": step})]
    )


def _committed_steps(directory: Path) -> list[int]:
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    return [c["step"] for c in manifest["checkpoints"]]


def _assert_manifest_describes_files(directory: Path) -> None:
    """Digest-on-write == digest-of-file, for every committed checkpoint."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    assert manifest["checkpoints"]
    for entry in manifest["checkpoints"]:
        path = directory / "checkpoints" / entry["file"]
        assert entry["bytes"] == path.stat().st_size, entry
        assert entry["sha256"] == sha256_file(path), entry


def _subprocess_env() -> dict:
    env = {
        "PYTHONPATH": str(SRC),
        "PATH": "/usr/bin:/bin",
        "HOME": os.environ["HOME"],  # share the mesh/operator disk cache
    }
    if "REPRO_CACHE_DIR" in os.environ:
        env["REPRO_CACHE_DIR"] = os.environ["REPRO_CACHE_DIR"]
    return env


# ---------------------------------------------------------------- manifest
class TestManifest:
    def test_create_refuses_existing_run(self, mesh3, tmp_path):
        cfg = _cfg(mesh3)
        DurableRun.create(tmp_path, "galewsky", mesh3, cfg, 4)
        with pytest.raises(ManifestError, match="resume"):
            DurableRun.create(tmp_path, "galewsky", mesh3, cfg, 4)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(ManifestError, match="not a durable run"):
            DurableRun.open(tmp_path / "nowhere")

    def test_open_version_mismatch(self, mesh3, tmp_path):
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        run_.manifest["manifest_version"] = 999
        run_.save()
        with pytest.raises(ManifestError, match="version"):
            DurableRun.open(tmp_path)

    def test_commit_and_latest_valid(self, mesh3, tmp_path):
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        for step in (0, 2):
            path = run_.checkpoint_path / f"auto-{step:08d}.npz"
            path.write_bytes(f"checkpoint {step}".encode())
            run_.commit_checkpoint(step, path)
        assert _committed_steps(tmp_path) == [0, 2]
        step, path = run_.latest_valid_checkpoint()
        assert (step, path.name) == (2, "auto-00000002.npz")
        # Re-committing a step replaces its entry, not duplicates it.
        path.write_bytes(b"checkpoint 2 rewritten")
        run_.commit_checkpoint(2, path)
        assert _committed_steps(tmp_path) == [0, 2]

    def test_digest_mismatch_quarantined(self, mesh3, tmp_path):
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        for step in (0, 2):
            path = run_.checkpoint_path / f"auto-{step:08d}.npz"
            path.write_bytes(f"checkpoint {step}".encode())
            run_.commit_checkpoint(step, path)
        # Damage the newest *after* commit: same length, different bytes.
        newest = run_.checkpoint_path / "auto-00000002.npz"
        newest.write_bytes(b"checkpoint X")
        registry = MetricsRegistry()
        with use_registry(registry):
            step, path = run_.latest_valid_checkpoint()
        assert step == 0
        assert not newest.exists()
        assert (run_.checkpoint_path / "quarantine" / newest.name).exists()
        (series,) = registry.series("resilience.cache.quarantined")
        assert series.tags["kind"] == "checkpoint" and series.value == 1

    def test_clean_uncommitted(self, mesh3, tmp_path):
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        committed = run_.checkpoint_path / "auto-00000000.npz"
        committed.write_bytes(b"committed")
        run_.commit_checkpoint(0, committed)
        orphan = run_.checkpoint_path / "auto-00000002.npz"
        orphan.write_bytes(b"published but never committed")
        torn = run_.checkpoint_path / "auto-00000004.npz.tmp"
        torn.write_bytes(b"died mid-write")
        removed = run_.clean_uncommitted()
        assert sorted(p.name for p in removed) == [
            "auto-00000002.npz",
            "auto-00000004.npz.tmp",
        ]
        assert committed.exists()

    def test_validate_compatible_config_diff_is_actionable(
        self, mesh3, tmp_path
    ):
        cfg = _cfg(mesh3)
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, cfg, 4)
        other = dataclasses.replace(cfg, thickness_adv_order=4)
        with pytest.raises(ManifestError, match="thickness_adv_order"):
            run_.validate_compatible(config=other)
        run_.validate_compatible(config=cfg)  # identical config passes

    def test_validate_compatible_mesh_fingerprint(self, mesh3, tmp_path):
        from repro.mesh.cache import cached_mesh

        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        run_.validate_compatible(mesh=mesh3)
        with pytest.raises(ManifestError, match="fingerprint"):
            run_.validate_compatible(mesh=cached_mesh(2, lloyd_iterations=0))

    def test_validate_compatible_case(self, mesh3, tmp_path):
        run_ = DurableRun.create(tmp_path, "galewsky", mesh3, _cfg(mesh3), 4)
        with pytest.raises(ManifestError, match="case"):
            run_.validate_compatible(case_token="tc5")

    def test_case_must_be_a_token(self, mesh3, tmp_path):
        with pytest.raises(ManifestError, match="name or Williamson number"):
            run(
                resolve_case("galewsky"), mesh=mesh3, config=_cfg(mesh3),
                steps=2, run_dir=tmp_path / "d",
            )


# ------------------------------------------------------------ serial runs
class TestSerialDurable:
    def test_matches_plain_run_bitwise(self, mesh3, tmp_path):
        cfg = _cfg(mesh3, checkpoint_interval=2)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=6)
        d = tmp_path / "run"
        durable = run("galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d)
        assert np.array_equal(durable.state.h, ref.state.h)
        assert np.array_equal(durable.state.u, ref.state.u)
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        assert manifest["completed"] is True
        assert _committed_steps(d) == [0, 2, 4, 6]

    def test_interrupt_and_resume_bitwise(self, mesh3, tmp_path):
        cfg = _cfg(mesh3, checkpoint_interval=2)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=6)
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(4)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d)
        assert _committed_steps(d) == [0, 2]  # steps 1-3 ran, 4 never did
        resumed = run(resume=d, mesh=mesh3)
        assert np.array_equal(resumed.state.h, ref.state.h)
        assert np.array_equal(resumed.state.u, ref.state.u)
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        assert manifest["completed"] is True
        assert _committed_steps(d) == [0, 2, 4, 6]

    def test_resume_rebuilds_mesh_from_manifest(self, mesh3, tmp_path):
        """resume= alone suffices: the mesh comes back through the cache."""
        cfg = _cfg(mesh3, checkpoint_interval=2)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=4)
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(3)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=cfg, steps=4, run_dir=d)
        resumed = run(resume=d)  # no mesh argument
        assert np.array_equal(resumed.state.h, ref.state.h)

    def test_resume_rejects_run_arguments(self, mesh3, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            run(resume=tmp_path, case="galewsky")
        with pytest.raises(ValueError, match="resume"):
            run(resume=tmp_path, steps=4)

    def test_resume_completed_run_refused(self, mesh3, tmp_path):
        cfg = _cfg(mesh3)
        d = tmp_path / "run"
        run("galewsky", mesh=mesh3, config=cfg, steps=2, run_dir=d)
        with pytest.raises(ManifestError, match="already completed"):
            run(resume=d, mesh=mesh3)

    def test_torn_newest_checkpoint_falls_back_a_step(self, mesh3, tmp_path):
        """A checkpoint damaged after commit costs recomputation, not the run."""
        cfg = _cfg(mesh3, checkpoint_interval=2)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=6)
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(5)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d)
        assert _committed_steps(d) == [0, 2, 4]
        newest = d / "checkpoints" / "auto-00000004.npz"
        newest.write_bytes(newest.read_bytes()[:100])  # truncate: torn
        resumed = run(resume=d, mesh=mesh3)
        assert (d / "checkpoints" / "quarantine" / newest.name).exists()
        assert np.array_equal(resumed.state.h, ref.state.h)
        assert np.array_equal(resumed.state.u, ref.state.u)

    def test_no_surviving_checkpoint_is_actionable(self, mesh3, tmp_path):
        cfg = _cfg(mesh3, checkpoint_interval=2)
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(3)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d)
        for path in (d / "checkpoints").glob("auto-*.npz"):
            path.unlink()
        with pytest.raises(ManifestError, match="no committed checkpoint"):
            run(resume=d, mesh=mesh3)


# ------------------------------------------------------------- write path
class TestWritePath:
    """One pass per checkpoint: written once, hashed while written, committed
    without being read back — counted, not timed."""

    @pytest.mark.parametrize("parallel,ranks", [("serial", 1), ("lockstep", 2)])
    def test_one_write_no_reread_two_fsyncs_per_checkpoint(
        self, mesh3, tmp_path, monkeypatch, parallel, ranks
    ):
        import builtins

        import repro.resilience.checkpoint as checkpoint_mod

        calls = {"write": 0, "fsync": 0, "reread": 0}
        real_write, real_fsync, real_open = (
            checkpoint_mod.write_restart, os.fsync, builtins.open,
        )

        def counting_write(*args, **kwargs):
            calls["write"] += 1
            return real_write(*args, **kwargs)

        def counting_fsync(fd):
            calls["fsync"] += 1
            return real_fsync(fd)

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and "b" in mode and str(file).endswith(".npz"):
                calls["reread"] += 1
            return real_open(file, mode, *args, **kwargs)

        # save_checkpoint (every executor's writer) looks the function up in
        # its module at call time.
        monkeypatch.setattr(checkpoint_mod, "write_restart", counting_write)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(builtins, "open", counting_open)
        cfg = _cfg(mesh3, checkpoint_interval=1, parallel=parallel, ranks=ranks)
        d = tmp_path / "run"
        run("galewsky", mesh=mesh3, config=cfg, steps=4, run_dir=d)
        monkeypatch.undo()

        committed = _committed_steps(d)
        assert committed == [0, 1, 2, 3, 4]
        assert calls["write"] == len(committed)
        assert calls["reread"] == 0
        # Two per checkpoint (file, manifest) plus the manifest's first
        # publish by create() and its last by mark_complete().
        assert calls["fsync"] == 2 * len(committed) + 2

    @pytest.mark.parametrize(
        "parallel,ranks", [("serial", 1), ("lockstep", 2), ("pool", 2)]
    )
    def test_manifest_digest_is_the_digest_of_the_file(
        self, mesh3, tmp_path, parallel, ranks
    ):
        cfg = _cfg(mesh3, checkpoint_interval=1, parallel=parallel, ranks=ranks)
        d = tmp_path / "run"
        registry = MetricsRegistry()
        with use_registry(registry):
            run("galewsky", mesh=mesh3, config=cfg, steps=3, run_dir=d)
        assert _committed_steps(d) == [0, 1, 2, 3]
        _assert_manifest_describes_files(d)
        # The run can say what its checkpoints cost (every executor).
        on_disk = sum(p.stat().st_size for p in (d / "checkpoints").glob("*.npz"))
        (saved,) = registry.series("resilience.checkpoint.saved")
        (nbytes,) = registry.series("resilience.checkpoint.bytes")
        (write_s,) = registry.series("resilience.checkpoint.write_s")
        (commit_s,) = registry.series("resilience.durable.commit_s")
        assert saved.value == 4 and nbytes.value == on_disk
        assert write_s.count == 4 and commit_s.count == 4
        assert 0.0 < write_s.total and 0.0 < commit_s.total

    def test_old_compressed_checkpoint_resumes_bitwise(self, mesh3, tmp_path):
        """Backward compatibility: a restart file in the previous (deflated)
        layout, committed by bare path, is a valid resume point."""
        from repro.swm.model import ShallowWaterModel

        cfg = _cfg(mesh3, checkpoint_interval=2)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=4)

        model = ShallowWaterModel(mesh3, cfg)
        model.initialize(resolve_case("galewsky"))
        model.run(steps=2)
        d = tmp_path / "run"
        run_ = DurableRun.create(d, "galewsky", mesh3, cfg, 4)
        old = run_.checkpoint_path / "auto-00000002.npz"
        np.savez_compressed(
            old,
            h=model.state.h,
            u=model.state.u,
            b_cell=model.b_cell,
            f_vertex=model.integrator.f_vertex,
            config=np.array(json.dumps(dataclasses.asdict(cfg))),
        )
        run_.commit_checkpoint(2, old)  # no `written`: stat + sha256_file
        _assert_manifest_describes_files(d)

        resumed = run(resume=d, mesh=mesh3)
        assert np.array_equal(resumed.state.h, ref.state.h)
        assert np.array_equal(resumed.state.u, ref.state.u)
        assert _committed_steps(d) == [2, 4]
        _assert_manifest_describes_files(d)


class TestRetiredConfigFields:
    """Run directories written before a config field was retired keep
    loading; a key that never existed is still an error."""

    @staticmethod
    def _age(directory: Path, **stale) -> None:
        """Rewrite the manifest and every committed restart file as an
        earlier revision would have written them: ``stale`` config keys
        included."""
        run_ = DurableRun.open(directory)
        run_.manifest["config"].update(stale)
        run_.save()
        for entry in list(run_.manifest["checkpoints"]):
            path = run_.checkpoint_path / entry["file"]
            with np.load(path) as data:
                fields = {k: data[k] for k in data.files}
            config = json.loads(str(fields["config"]))
            config.update(stale)
            fields["config"] = np.array(json.dumps(config))
            np.savez(path, **fields)
            run_.commit_checkpoint(entry["step"], path)

    @staticmethod
    def _interrupted(mesh, directory: Path) -> SWConfig:
        """A 6-step run crashed at step 4 (checkpoints 0 and 2 committed)."""
        cfg = _cfg(mesh, checkpoint_interval=2)
        with use_fault_plan(_crash_plan(4)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh, config=cfg, steps=6, run_dir=directory)
        return cfg

    def test_directory_carrying_ensemble_mode_resumes_bitwise(
        self, mesh3, tmp_path
    ):
        d = tmp_path / "run"
        cfg = self._interrupted(mesh3, d)
        ref = run("galewsky", mesh=mesh3, config=cfg, steps=6)
        self._age(d, ensemble_mode="lockstep")
        assert "ensemble_mode" in json.loads(
            (d / MANIFEST_NAME).read_text()
        )["config"]
        DurableRun.open(d).validate_compatible(config=cfg)  # a job re-attaching
        resumed = run(resume=d, mesh=mesh3)
        assert np.array_equal(resumed.state.h, ref.state.h)
        assert np.array_equal(resumed.state.u, ref.state.u)
        assert _committed_steps(d) == [0, 2, 4, 6]

    #: ``manifest["config"]`` exactly as the commit before the static
    #: schedule stopped being the default and ``scatter`` / ``codegen``
    #: stopped being backends wrote it, for a 2-rank pool run.
    PRE_PR21_CONFIG = json.loads(
        '{"dt": 90.0, "gravity": 9.80616, "omega": 7.292e-05, '
        '"apvm_upwinding": 0.5, "thickness_adv_order": 2, '
        '"coef_3rd_order": 0.25, "viscosity": 0.0, "hyperviscosity": 0.0, '
        '"advection_only": false, "backend": "numpy", "plan": false, '
        '"plan_fuse": "exact", "halo_schedule": "static", "parallel": "pool", '
        '"ranks": 2, "backend_retries": 1, "halo_retries": 2, '
        '"halo_backoff_s": 0.0, "transfer_retries": 2, "guard_interval": 0, '
        '"guard_policy": "halt", "guard_mass_drift": 0.0, '
        '"guard_energy_drift": 0.0, "guard_cfl_max": 0.0, '
        '"checkpoint_interval": 0, "max_rollbacks": 3, "ensemble": 0, '
        '"ensemble_seed": 0, "ensemble_amplitude": 1e-06}'
    )

    def test_stored_static_schedule_stays_static(self):
        cfg = SWConfig.from_dict(self.PRE_PR21_CONFIG)
        assert cfg.halo_schedule == "static" != SWConfig.halo_schedule
        assert dataclasses.asdict(cfg) == self.PRE_PR21_CONFIG

    @pytest.mark.parametrize("backend", ["scatter", "codegen"])
    def test_stored_retired_backend_is_refused_by_name(self, backend):
        with pytest.raises(ValueError, match=r"\('numpy', 'sparse'\)"):
            SWConfig.from_dict({**self.PRE_PR21_CONFIG, "backend": backend})
        with pytest.raises(ValueError, match=backend):
            SWConfig(dt=1.0, backend=backend)

    def test_unknown_key_is_still_rejected(self, mesh3, tmp_path):
        d = tmp_path / "run"
        cfg = self._interrupted(mesh3, d)
        self._age(d, never_a_field=1)
        with pytest.raises(TypeError, match="never_a_field"):
            run(resume=d, mesh=mesh3)
        with pytest.raises(ManifestError, match="never_a_field"):
            DurableRun.open(d).validate_compatible(config=cfg)


# -------------------------------------------------------- decomposed runs
class TestDecomposedDurable:
    @pytest.mark.parametrize(
        "parallel,ranks", [("lockstep", 4), ("pool", 4)]
    )
    def test_interrupt_and_resume_matches_serial(
        self, mesh3, tmp_path, parallel, ranks
    ):
        serial = run(
            "galewsky", mesh=mesh3,
            config=_cfg(mesh3, checkpoint_interval=2), steps=6,
        )
        cfg = _cfg(
            mesh3, checkpoint_interval=2, parallel=parallel, ranks=ranks
        )
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(5)):
            with pytest.raises(FaultInjected):
                run("galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d)
        assert _committed_steps(d) == [0, 2, 4]
        resumed = run(resume=d, mesh=mesh3)
        assert np.array_equal(resumed.state.h, serial.state.h)
        assert np.array_equal(resumed.state.u, serial.state.u)
        assert json.loads((d / MANIFEST_NAME).read_text())["completed"]

    @pytest.mark.parametrize("parallel,ranks", [("lockstep", 2), ("pool", 2)])
    def test_interrupt_and_resume_with_invariant_records(
        self, mesh3, tmp_path, parallel, ranks
    ):
        """One run loop: a decomposed durable run records invariants like
        the serial one, and killed + resumed == uninterrupted still holds —
        state bitwise, and the records of every step the resume re-ran."""
        serial = run(
            "galewsky", mesh=mesh3, config=_cfg(mesh3, checkpoint_interval=2),
            steps=6, invariant_interval=1,
        )
        cfg = _cfg(mesh3, checkpoint_interval=2, parallel=parallel, ranks=ranks)
        d = tmp_path / "run"
        with use_fault_plan(_crash_plan(4)):
            with pytest.raises(FaultInjected):
                run(
                    "galewsky", mesh=mesh3, config=cfg, steps=6, run_dir=d,
                    invariant_interval=1,
                )
        assert _committed_steps(d) == [0, 2]
        resumed = run(resume=d, mesh=mesh3, invariant_interval=1)
        assert np.array_equal(resumed.state.h, serial.state.h)
        assert np.array_equal(resumed.state.u, serial.state.u)
        assert resumed.invariant_history == serial.invariant_history[2:]
        assert _committed_steps(d) == [0, 2, 4, 6]


# ------------------------------------------------------------ crash chaos
@pytest.mark.chaos
class TestChaosKill:
    """Real SIGKILLs: the subprocess dies mid-step and --resume finishes.

    The matrix covers both engine backends in the serial executor and the
    4-rank shared-memory pool; the final committed checkpoint of the
    killed-and-resumed run must match an uninterrupted in-process
    reference byte-for-byte in ``h`` and ``u``.
    """

    STEPS = 6
    KILL_AT = 5

    def _cli(self, *extra: str, timeout: int = 600):
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--case", "galewsky", "--level", "3",
                "--steps", str(self.STEPS), "--cfl", "0.5",
                "--checkpoint-interval", "2",
                *extra,
            ],
            capture_output=True, text=True, timeout=timeout,
            env=_subprocess_env(),
        )

    def _reference(self, mesh3, backend: str):
        return run(
            "galewsky", mesh=mesh3, config=_cfg(mesh3, backend=backend),
            steps=self.STEPS,
        )

    @pytest.mark.parametrize(
        "backend,parallel,ranks",
        [
            ("numpy", "serial", 1),
            ("sparse", "serial", 1),
            ("numpy", "pool", 4),
            ("sparse", "pool", 4),
        ],
    )
    def test_sigkill_then_resume_is_bitwise(
        self, mesh3, tmp_path, backend, parallel, ranks
    ):
        d = tmp_path / "run"
        executor = [
            "--backend", backend, "--parallel", parallel, "--ranks",
            str(ranks), "--run-dir", str(d),
        ]
        killed = self._cli(*executor, "--chaos-crash-at", str(self.KILL_AT))
        assert killed.returncode == -9, killed.stdout + killed.stderr[-2000:]
        manifest = json.loads((d / MANIFEST_NAME).read_text())
        assert manifest["completed"] is False
        assert max(_committed_steps(d)) < self.STEPS

        resumed = self._cli("--resume", str(d))
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr[-2000:]
        assert json.loads((d / MANIFEST_NAME).read_text())["completed"]

        final = d / "checkpoints" / f"auto-{self.STEPS:08d}.npz"
        ref = self._reference(mesh3, backend)
        with np.load(final) as data:
            assert np.array_equal(data["h"], ref.state.h)
            assert np.array_equal(data["u"], ref.state.u)

    def test_sigkill_torn_checkpoint_then_resume(self, mesh3, tmp_path):
        """Kill, then truncate the newest checkpoint: resume still lands."""
        d = tmp_path / "run"
        killed = self._cli(
            "--backend", "numpy", "--run-dir", str(d),
            "--chaos-crash-at", str(self.KILL_AT),
        )
        assert killed.returncode == -9, killed.stdout + killed.stderr[-2000:]
        step, path = DurableRun.open(d).latest_valid_checkpoint()
        path.write_bytes(path.read_bytes()[:50])

        resumed = self._cli("--resume", str(d))
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr[-2000:]
        assert (d / "checkpoints" / "quarantine" / path.name).exists()
        final = d / "checkpoints" / f"auto-{self.STEPS:08d}.npz"
        ref = self._reference(mesh3, "numpy")
        with np.load(final) as data:
            assert np.array_equal(data["h"], ref.state.h)
            assert np.array_equal(data["u"], ref.state.u)
