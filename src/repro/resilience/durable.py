"""Durable runs: crash-consistent run directories with bitwise resume.

A run that matters is a run that can die — OOM-killed, preempted, power
lost — and be *continued*, not restarted.  Delmas & Soulaïmani (PAPERS.md)
treat restart files as first-class artifacts of production SWE runs; this
module gives the reproduction the same property on top of the existing
restart-file machinery (:meth:`repro.swm.model.ShallowWaterModel.
save_checkpoint`), with one extra guarantee: **the newest complete
checkpoint is always discoverable from the disk alone**, no matter where in
the write sequence the process died.

The on-disk layout of a run directory::

    <run_dir>/
        manifest.json           # the single source of truth
        checkpoints/
            auto-00000000.npz   # committed restart files
            auto-00000005.npz
            quarantine/         # torn checkpoints, moved aside on resume

and the crash-consistency protocol:

1. every checkpoint is written by :meth:`DurableRun.checkpoint` — the
   only caller of ``save_checkpoint`` during a run — through the tree's one
   restart writer (:func:`repro.resilience.checkpoint.write_restart`:
   uncompressed ``.npz``, ``*.tmp`` + fsync + ``os.replace``), so a file
   under its final name is never half-written; the writer returns the byte
   length and SHA-256 of what it published, taken while writing;
2. after each checkpoint publish, the manifest is rewritten — also
   atomically — *committing* the checkpoint: step, file name and the
   writer's byte length and SHA-256 enter ``manifest["checkpoints"]``
   without the file being read back (only a file this process did not
   write is measured with ``stat`` + :func:`sha256_file`);
3. resume trusts only the manifest: uncommitted checkpoint files (published
   in the window before the manifest write, or mid-write ``*.tmp`` debris)
   are deleted, committed files are re-hashed and quarantined if they do
   not match their recorded digest, and the run continues from the newest
   checkpoint that survives.

Every commit is synchronous — checkpoint *s* is durable (file fsynced,
then manifest fsynced: two fsyncs) before step *s+1* starts.  Group commit
and a write-behind thread would be cheaper and were declined: both trade
away exactly that ordering, which is safety, not overhead.  What a commit
still costs beyond its fsync is the whole-manifest rewrite, O(committed
checkpoints) — an append-only journal is the follow-up.

Because checkpoints land at fixed multiples of ``config.
checkpoint_interval`` — a resumed run keeps the cadence of the original —
and the restart contract is bitwise (diagnostics are a pure function of the
state), a run killed at *any* point and resumed produces the identical
final state to one that was never interrupted, on every executor: a durable
run is the model's one run loop with :meth:`DurableRun.checkpoint` as its
checkpoint hook (decomposed ranks are reloaded from the restored global
state via ``load_state``).  The crash-chaos tests prove exactly that with
real ``SIGKILL``\\ s (the ``process.crash`` fault site).

Entry points: :func:`run_durable` (fresh run into a directory),
:func:`resume_durable` (continue one), surfaced as
``repro.api.run(run_dir=... / resume=...)`` and ``python -m repro run
--run-dir/--resume``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from ..obs.metrics import get_registry
from ..swm.config import SWConfig
from .integrity import quarantine

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "ManifestError",
    "DurableRun",
    "run_durable",
    "resume_durable",
]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
CHECKPOINT_DIRNAME = "checkpoints"


class ManifestError(RuntimeError):
    """A run directory cannot be (re)used: missing, incompatible or complete.

    The message always says what to do about it — resume elsewhere, pass
    the matching mesh/config, or start a fresh directory.
    """


def sha256_file(path: str | Path, chunk: int = 1 << 20) -> str:
    """Streamed SHA-256 hex digest of a file."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Publish a JSON document with temp-write + fsync + ``os.replace``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _mesh_identity(mesh) -> dict:
    """What the manifest records about the mesh: fingerprint + rebuild hints.

    The fingerprint (content hash of every array the operators consume) is
    the compatibility check; level/lloyd/radius let :func:`resume_durable`
    rebuild the mesh through the cache without being handed one.  A mesh
    loaded from the disk cache loses its ``info`` provenance, so the level
    falls back to the persisted ``icos<level>`` name.
    """
    from ..engine.sparse import mesh_fingerprint

    info = getattr(mesh, "info", None) or {}
    level = info.get("level")
    name = str(getattr(mesh, "name", ""))
    if level is None and name.startswith("icos"):
        try:
            level = int(name[4:])
        except ValueError:
            level = None
    return {
        "fingerprint": mesh_fingerprint(mesh),
        "name": name,
        "level": level,
        "lloyd_iterations": int(info.get("lloyd_iterations", 4)),
        "radius": float(mesh.radius),
    }


class DurableRun:
    """One crash-consistent run directory: the manifest and its checkpoints."""

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # ------------------------------------------------------------ lifecycle
    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_DIRNAME

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @classmethod
    def create(
        cls, directory, case_token, mesh, config: SWConfig, steps: int,
        invariant_interval: int = 0,
    ) -> "DurableRun":
        """Initialize a fresh run directory (refusing to clobber one).

        ``invariant_interval`` is recorded for drivers that know only the
        directory (``jobs.result(run_dir)``)."""
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            raise ManifestError(
                f"{directory} already holds a durable run; resume it with "
                f"repro.api.run(resume={str(directory)!r}) / "
                f"`python -m repro run --resume {directory}`, or point "
                f"run_dir at a fresh directory"
            )
        directory.mkdir(parents=True, exist_ok=True)
        (directory / CHECKPOINT_DIRNAME).mkdir(exist_ok=True)
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "case": case_token,
            "config": dataclasses.asdict(config),
            "mesh": _mesh_identity(mesh),
            "steps": int(steps),
            "invariant_interval": int(invariant_interval),
            "completed": False,
            "checkpoints": [],
        }
        run = cls(directory, manifest)
        run.save()
        return run

    @classmethod
    def open(cls, directory) -> "DurableRun":
        """Attach to an existing run directory."""
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise ManifestError(
                f"{directory} is not a durable run directory (no "
                f"{MANIFEST_NAME}); start one with repro.api.run(..., "
                f"run_dir={str(directory)!r})"
            )
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(
                f"unreadable manifest {path}: {exc}; the atomic-write "
                f"protocol should make this impossible — inspect the "
                f"directory by hand"
            ) from exc
        version = manifest.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest {path} has version {version!r}, this build "
                f"understands {MANIFEST_VERSION}; resume with the matching "
                f"code revision or start a fresh run directory"
            )
        return cls(directory, manifest)

    @property
    def invariant_interval(self) -> int:
        return int(self.manifest.get("invariant_interval", 0))  # absent: old

    def save(self) -> None:
        """Atomically publish the current manifest."""
        _atomic_write_json(self.manifest_path, self.manifest)

    # ---------------------------------------------------------- checkpoints
    def checkpoint(self, step: int, model) -> None:
        """Write ``model``'s state as step ``step``'s restart file and commit
        it — the run loop's ``on_checkpoint`` hook."""
        path = self.checkpoint_path / f"auto-{step:08d}.npz"
        self.commit_checkpoint(step, path, model.save_checkpoint(path))

    def commit_checkpoint(self, step: int, path, written=None) -> None:
        """Record a just-published checkpoint file in the manifest.

        The commit point of the protocol: only after this returns is the
        checkpoint reachable by a future resume.  ``written`` is the
        ``(bytes, sha256)`` the restart writer returned for ``path``; a
        bare path (a file this process did not write) is measured here
        with ``stat`` + :func:`sha256_file`.  Re-committing a step (a
        resumed run re-saving its restart point) replaces the entry.
        """
        path = Path(path)
        with get_registry().timer("resilience.durable.commit_s").time():
            size, digest = written or (path.stat().st_size, sha256_file(path))
            entry = {
                "step": int(step),
                "file": path.name,
                "bytes": int(size),
                "sha256": digest,
            }
            kept = [c for c in self.manifest["checkpoints"] if c["step"] != step]
            kept.append(entry)
            self.manifest["checkpoints"] = sorted(kept, key=lambda c: c["step"])
            self.save()

    def latest_valid_checkpoint(self) -> tuple[int, Path] | None:
        """The newest committed checkpoint whose bytes match the manifest.

        Walks newest to oldest; an entry whose file is missing is skipped,
        one whose size or SHA-256 disagrees (torn or damaged after commit)
        is quarantined (``resilience.cache.quarantined`` tagged
        ``kind=checkpoint``) and the walk continues to the previous one.
        """
        for entry in reversed(self.manifest["checkpoints"]):
            path = self.checkpoint_path / entry["file"]
            if not path.exists():
                continue
            if self.entry_matches_file(entry):
                return int(entry["step"]), path
            quarantine(path, kind="checkpoint", reason="manifest digest mismatch")
        return None

    def entry_matches_file(self, entry: dict) -> bool:
        """Whether a manifest entry's byte length and SHA-256 are those of
        the file it names (which must exist)."""
        path = self.checkpoint_path / entry["file"]
        return (
            path.stat().st_size == entry["bytes"]
            and sha256_file(path) == entry["sha256"]
        )

    def clean_uncommitted(self) -> list[Path]:
        """Delete checkpoint files the manifest never committed.

        A crash between publishing ``auto-N.npz`` and rewriting the
        manifest leaves a complete-looking file that the run never vouched
        for; a resumed process must not discover and roll forward onto it.
        ``*.tmp`` debris from a crash mid-write goes too.
        """
        committed = {c["file"] for c in self.manifest["checkpoints"]}
        removed: list[Path] = []
        cdir = self.checkpoint_path
        if not cdir.exists():
            return removed
        for path in sorted(cdir.glob("auto-*.npz")):
            if path.name not in committed:
                path.unlink(missing_ok=True)
                removed.append(path)
        for path in sorted(cdir.glob("*.tmp")):
            path.unlink(missing_ok=True)
            removed.append(path)
        return removed

    def mark_complete(self) -> None:
        """Stamp the run finished (resume will refuse it thereafter)."""
        self.manifest["completed"] = True
        self.save()

    # -------------------------------------------------------- compatibility
    def validate_compatible(
        self, config: SWConfig | None = None, mesh=None, case_token=None
    ) -> None:
        """Refuse (actionably) anything that contradicts the manifest."""
        if config is not None:
            want = self.manifest["config"]
            got = dataclasses.asdict(config)
            bad = sorted(
                k for k in (set(want) | set(got)) - set(SWConfig.RETIRED_FIELDS)
                if want.get(k) != got.get(k)
            )
            if bad:
                detail = ", ".join(
                    f"{k}: manifest={want.get(k)!r} given={got.get(k)!r}"
                    for k in bad
                )
                raise ManifestError(
                    f"config incompatible with the durable run in "
                    f"{self.directory} ({detail}); resume takes its config "
                    f"from the manifest — drop the config argument, or "
                    f"start a fresh run directory"
                )
        if mesh is not None:
            from ..engine.sparse import mesh_fingerprint

            want_fp = self.manifest["mesh"]["fingerprint"]
            got_fp = mesh_fingerprint(mesh)
            if want_fp != got_fp:
                raise ManifestError(
                    f"mesh fingerprint {got_fp} does not match the durable "
                    f"run in {self.directory} (manifest: {want_fp}, "
                    f"{self.manifest['mesh']['name']}); resume with the "
                    f"same mesh, or start a fresh run directory"
                )
        if case_token is not None and case_token != self.manifest["case"]:
            raise ManifestError(
                f"case {case_token!r} does not match the durable run in "
                f"{self.directory} (manifest: {self.manifest['case']!r})"
            )


    def resolve_mesh(self, mesh=None):
        """The mesh of this run: ``mesh`` when handed one, else rebuilt
        through the cache from the manifest's level/lloyd/radius hints —
        fingerprint-validated against the manifest either way."""
        if mesh is None:
            ident = self.manifest["mesh"]
            if ident["level"] is None:
                raise ManifestError(
                    f"the manifest in {self.directory} records no mesh level "
                    f"to rebuild from (custom mesh {ident['name']!r}); pass "
                    f"the original mesh via mesh=... (for a job: ask through "
                    f"the handle, in the submitting process)"
                )
            from ..mesh.cache import cached_mesh

            mesh = cached_mesh(
                ident["level"],
                lloyd_iterations=ident["lloyd_iterations"],
                radius=ident["radius"],
            )
        self.validate_compatible(mesh=mesh)
        return mesh


# ----------------------------------------------------------------- driver
def _drive(
    run: DurableRun, mesh, case, config: SWConfig, start_step: int, total: int,
    ckpt: Path | None, invariant_interval: int = 0, callback=None,
):
    """Integrate ``run`` from ``start_step`` (the restart file ``ckpt``, or
    the initial condition when ``None``) to ``total`` — the one driver of a
    manifest: the model's run loop with :meth:`DurableRun.checkpoint` as its
    checkpoint hook, on whichever executor the config names."""
    from ..swm.model import ShallowWaterModel

    if ckpt is None:
        model = ShallowWaterModel(mesh, config)
    else:
        # The file's config, not the manifest's: a mid-run dt halving
        # survives the restart.
        model = ShallowWaterModel.from_checkpoint(mesh, ckpt, case)
    with model:
        if ckpt is None:
            model.initialize(case)
            run.checkpoint(start_step, model)
        result = model.run(
            steps=total - start_step,
            start_step=start_step,
            invariant_interval=invariant_interval,
            callback=callback,
            on_checkpoint=run.checkpoint,
        )
        if total > start_step and total % model.config.checkpoint_interval:
            run.checkpoint(total, model)  # the hook stops short of the horizon
    run.mark_complete()
    return result


# ------------------------------------------------------------ entry points
def run_durable(
    directory,
    case_token,
    mesh,
    config: SWConfig,
    steps: int,
    invariant_interval: int = 0,
    callback=None,
):
    """Start a fresh durable run in ``directory`` and integrate ``steps``.

    ``case_token`` must be a case *name or Williamson number* (something
    :func:`repro.api.resolve_case` can re-resolve at resume time); an
    ad-hoc :class:`TestCase` object cannot be stored in a manifest.  A
    ``config.checkpoint_interval`` of 0 is bumped to 1 — a durable run
    without checkpoints would be an ordinary run with extra paperwork.
    """
    from ..api import resolve_case

    if not isinstance(case_token, (str, int)):
        raise ManifestError(
            "durable runs need the case as a name or Williamson number "
            "(resolvable again at resume time), not a TestCase object"
        )
    case = resolve_case(case_token)
    if config.checkpoint_interval < 1:
        config = dataclasses.replace(config, checkpoint_interval=1)
    run = DurableRun.create(
        directory, case_token, mesh, config, steps, invariant_interval
    )
    return _drive(
        run, mesh, case, config, 0, steps, None, invariant_interval, callback
    )


def resume_durable(
    directory,
    mesh=None,
    invariant_interval: int = 0,
    callback=None,
):
    """Continue the durable run in ``directory`` to its recorded horizon.

    Everything is restored from the directory: the config and case from
    the manifest, the state from the newest checkpoint whose bytes match
    their committed digest (the initial condition when the manifest has
    committed none: a directory that was created but never driven), the
    mesh through the cache (pass ``mesh=`` to skip the rebuild — its
    fingerprint is validated against the manifest).  The continued
    trajectory is bitwise identical to an uninterrupted run.
    """
    from ..api import resolve_case

    run = DurableRun.open(directory)
    if run.manifest.get("completed"):
        raise ManifestError(
            f"the durable run in {run.directory} already completed its "
            f"{run.manifest['steps']} steps; start a fresh run directory "
            f"to integrate further"
        )
    config = SWConfig.from_dict(run.manifest["config"])
    case = resolve_case(run.manifest["case"])
    mesh = run.resolve_mesh(mesh)

    run.clean_uncommitted()
    total = int(run.manifest["steps"])
    found = (0, None)  # never driven: start from the initial condition
    if run.manifest["checkpoints"]:
        found = run.latest_valid_checkpoint()
        if found is None:
            raise ManifestError(
                f"no committed checkpoint in {run.directory} survives "
                f"validation; the run cannot be resumed — start a fresh run "
                f"directory"
            )
    start_step, ckpt = found
    return _drive(
        run, mesh, case, config, start_step, total, ckpt,
        invariant_interval, callback,
    )
