"""Durable runs: crash-consistent run directories with bitwise resume.

A run that matters is a run that can die — OOM-killed, preempted, power
lost — and be *continued*, not restarted.  Delmas & Soulaïmani (PAPERS.md)
treat restart files as first-class artifacts of production SWE runs; this
module gives the reproduction the same property on top of the one restart
writer (:mod:`repro.resilience.checkpoint`), with one extra guarantee:
**the newest complete checkpoint is always discoverable from the disk
alone**, no matter where in the write sequence the process died.

The on-disk layout of a run directory (``manifest_version`` 2)::

    <run_dir>/
        manifest.json           # config, case, mesh, horizon (+ compacted commits)
        journal.jsonl           # one fsynced commit record per line
        fields.npz              # b_cell, f_vertex: published once per run
        checkpoints/
            auto-00000000.npz   # h, u, config of a committed step
            quarantine/         # torn checkpoints, moved aside on resume

and the crash-consistency protocol:

1. every file is published by :func:`repro.resilience.checkpoint.publish`
   (``*.tmp`` + fsync + ``os.replace``), which returns its byte length and
   SHA-256: nothing is torn under its final name, nothing is read back;
2. :meth:`DurableRun.checkpoint` publishes a step file, then *commits* it
   by appending one fsynced line (step, file, bytes, SHA-256) to the
   journal — two fsyncs, before step *s+1* starts; the run's first commit
   publishes ``fields.npz`` before its step file and records both in one
   append;
3. ``manifest.json`` is published by :meth:`DurableRun.create` and, every
   commit folded in, by :meth:`DurableRun.mark_complete`; in between no
   synced file is replaced or unlinked (on ext4 mounted ``discard`` each
   such replace blocked about 40 ms);
4. committed is what :meth:`DurableRun.open` reads: the manifest with the
   journal folded in, in order — a later line for a step wins, an
   unterminated final line (a crash mid-append) is ignored and cut before
   the next append, any other unreadable line is a :class:`ManifestError`;
5. resume deletes uncommitted step files and ``*.tmp`` debris, re-hashes
   committed files (quarantining any that no longer match) and continues
   from the newest survivor (:meth:`DurableRun.restore`).

Group commit and a write-behind thread would be cheaper and were declined:
both trade away the ordering of 2, which is safety, not overhead.
Version-1 directories (manifest rewritten per commit, step files carrying
``b_cell`` / ``f_vertex``) resume bitwise: such a step file is restored
from itself, and the manifest is republished as version 2 before the
directory's first journal line.

Checkpoints land at fixed multiples of ``config.checkpoint_interval`` and
the restart contract is bitwise (diagnostics are a pure function of the
state), so a run killed at *any* point and resumed ends in the identical
state to one never interrupted, on every executor: a durable run is the
model's one run loop with :meth:`DurableRun.checkpoint` as its checkpoint
hook.  The crash-chaos tests prove it with real ``SIGKILL``\\ s (the run
loop's crash point, :mod:`repro.resilience.faults`).  A fresh run is
:meth:`DurableRun.create` and then :func:`resume_durable` of the directory
nobody drove yet, surfaced as ``repro.api.run(run_dir=... / resume=...)``,
``repro.jobs`` and ``python -m repro run --run-dir/--resume``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..obs.metrics import get_registry
from ..swm.config import SWConfig
from .checkpoint import archive, publish
from .integrity import quarantine

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "ManifestError",
    "DurableRun",
    "resume_durable",
]

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
FIELDS_NAME = "fields.npz"
CHECKPOINT_DIRNAME = "checkpoints"


class ManifestError(RuntimeError):
    """A run directory cannot be (re)used: missing, incompatible or complete.

    The message always says what to do about it — resume elsewhere, pass
    the matching mesh/config, or start a fresh directory.
    """


def sha256_file(path: str | Path) -> str:
    """SHA-256 hex digest of a file (restart files are read whole)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def durable_config(config: SWConfig) -> SWConfig:
    """``config`` as a run directory records it: at least one step between
    checkpoints (a durable run without any is a plain run with paperwork)."""
    return dataclasses.replace(config, checkpoint_interval=max(1, config.checkpoint_interval))


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
    if level is None and name.startswith("icos") and name[4:].isdigit():
        level = int(name[4:])
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
        self._torn: int | None = None  # where a torn final journal line starts

    # ------------------------------------------------------------ lifecycle
    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_DIRNAME

    @classmethod
    def create(
        cls, directory, case_token, mesh, config: SWConfig, steps: int,
        invariant_interval: int = 0,
    ) -> "DurableRun":
        """Initialize a fresh run directory (refusing to clobber one).

        ``invariant_interval`` is recorded for drivers that know only the
        directory (``jobs.result(run_dir)``)."""
        directory = Path(directory)
        if any((directory / name).exists() for name in (MANIFEST_NAME, JOURNAL_NAME)):
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
        """Attach to an existing run directory: its manifest with the
        journal folded in."""
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
        if version not in (1, MANIFEST_VERSION):
            raise ManifestError(
                f"manifest {path} has version {version!r}, this build "
                f"understands 1 and {MANIFEST_VERSION}; resume with the "
                f"matching code revision or start a fresh run directory"
            )
        run = cls(directory, manifest)
        run._replay()
        return run

    @property
    def invariant_interval(self) -> int:
        return int(self.manifest.get("invariant_interval", 0))  # absent: old

    def save(self) -> None:
        """Atomically publish the manifest, every commit folded in."""
        text = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        publish(self.directory / MANIFEST_NAME, text.encode())

    def _replay(self) -> None:
        """Fold the journal's commit records into the manifest, in order."""
        path = self.directory / JOURNAL_NAME
        if not path.exists():
            return
        raw = path.read_bytes()
        *lines, tail = raw.split(b"\n")  # tail: b"" unless an append was torn
        records = []
        for number, line in enumerate(lines, 1):
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ManifestError(
                    f"line {number} of {path} was damaged after it was "
                    f"committed ({exc}); restore the run directory from a "
                    f"copy, or start a fresh one"
                ) from exc
        self._fold(records)
        self._torn = len(raw) - len(tail) if tail else None

    def _fold(self, records: list[dict]) -> None:
        """Apply commit records: a later entry for a step replaces it."""
        by_step = {c["step"]: c for c in self.manifest["checkpoints"]}
        for record in records:
            if "step" in record:
                by_step[record["step"]] = record
            else:
                self.manifest["fields"] = record
        self.manifest["checkpoints"] = [by_step[s] for s in sorted(by_step)]

    def _append(self, records: list[dict]) -> None:
        """Commit ``records``: one fsynced append to the journal."""
        if self.manifest["manifest_version"] != MANIFEST_VERSION:
            # A version-1 directory: code that cannot read the journal
            # must refuse it from now on, not miss the commits in it.
            self.manifest["manifest_version"] = MANIFEST_VERSION
            self.save()
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        with open(self.directory / JOURNAL_NAME, "ab") as fh:
            if self._torn is not None:
                fh.truncate(self._torn)  # a crash tore the last line
                self._torn = None
            fh.write(data.encode())
            fh.flush()
            os.fsync(fh.fileno())
        self._fold(records)

    # ---------------------------------------------------------- checkpoints
    def checkpoint(self, step: int, model) -> None:
        """Write ``model``'s state as step ``step``'s restart file and commit
        it — the run loop's ``on_checkpoint`` hook.  The run directory's
        first commit publishes the fixed fields file before it."""
        fields = None
        if "fields" not in self.manifest:
            size, digest = publish(self.directory / FIELDS_NAME, archive(
                b_cell=model.b_cell, f_vertex=model.integrator.f_vertex
            ))
            fields = {"file": FIELDS_NAME, "bytes": size, "sha256": digest}
        path = self.checkpoint_path / f"auto-{step:08d}.npz"
        written = model.save_checkpoint(path, fields=False)
        self.commit_checkpoint(step, path, written, fields)

    def commit_checkpoint(self, step: int, path, written=None, fields=None) -> None:
        """Record a just-published checkpoint file (and the ``fields``
        record, if given) in one journal append: the commit point.

        ``written`` is the ``(bytes, sha256)`` the restart writer returned
        for ``path``; a bare path (a file this process did not write) is
        measured here with ``stat`` + :func:`sha256_file`.  Re-committing a
        step supersedes its entry.
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
            self._append([fields, entry] if fields else [entry])

    def restore(self, mesh, case=None):
        """``(step, model)`` of the newest committed checkpoint that survives
        validation: the one restore path of a resume and of a completed
        job's result.  The file's config, not the manifest's: a mid-run dt
        halving survives the restart.  A step file that carries ``b_cell``
        / ``f_vertex`` (version 1, or a self-contained ``save_checkpoint``
        file) is restored from itself, any other from the run's fields file
        once that matches its committed digest.
        """
        from ..swm.model import ShallowWaterModel

        found = self.latest_valid_checkpoint()
        if found is None:
            raise ManifestError(
                f"no committed checkpoint in {self.directory} survives "
                f"validation; the run cannot be resumed — start a fresh run "
                f"directory"
            )

        def fixed() -> dict:
            record, fields = self.manifest.get("fields"), self.directory / FIELDS_NAME
            if not (record and fields.exists() and self.entry_matches_file(record)):
                raise ManifestError(
                    f"the fields file {fields} (b_cell and f_vertex of every "
                    f"step file of the run) is missing, uncommitted or does "
                    f"not match its committed digest; restore the run "
                    f"directory from a copy, or start a fresh one"
                )
            with np.load(fields) as held:
                return dict(held)

        return found[0], ShallowWaterModel.from_checkpoint(mesh, found[1], case, fixed)

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
        the file it names (which must exist): a step file, or the fields
        file (the entry without a step)."""
        path = (self.checkpoint_path if "step" in entry else self.directory) / entry["file"]
        return (
            path.stat().st_size == entry["bytes"]
            and sha256_file(path) == entry["sha256"]
        )

    def clean_uncommitted(self) -> list[Path]:
        """Delete checkpoint files that were never committed.

        A crash between publishing ``auto-N.npz`` and appending its journal
        line leaves a complete-looking file that the run never vouched
        for; a resumed process must not discover and roll forward onto it.
        ``*.tmp`` debris from a crash mid-write goes too.
        """
        committed = {c["file"] for c in self.manifest["checkpoints"]}
        found = [*self.checkpoint_path.glob("auto-*.npz"), *self.checkpoint_path.glob("*.tmp")]
        removed = sorted(path for path in found if path.name not in committed)
        for path in removed:
            path.unlink(missing_ok=True)
        return removed

    def mark_complete(self) -> None:
        """Stamp the run finished (resume refuses it thereafter) and publish
        the compacted manifest; the journal stays (folding it is idempotent)."""
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


# ------------------------------------------------------------ entry points
def resume_durable(
    directory,
    mesh=None,
    invariant_interval: int = 0,
    callback=None,
):
    """Continue the durable run in ``directory`` to its recorded horizon.

    Everything is restored from the directory: the config and case from
    the manifest, the state by :meth:`DurableRun.restore` (the initial
    condition when nothing is committed yet: a directory that was created
    but never driven), the mesh through the cache (pass ``mesh=`` to skip
    the rebuild — its fingerprint is validated against the manifest).  The
    model's one run loop integrates to the horizon, on whichever executor
    the config names, with :meth:`DurableRun.checkpoint` as its checkpoint
    hook: bitwise the trajectory of an uninterrupted run.
    """
    from ..api import resolve_case
    from ..swm.model import ShallowWaterModel

    run = DurableRun.open(directory)
    if run.manifest.get("completed"):
        raise ManifestError(
            f"the durable run in {run.directory} already completed its "
            f"{run.manifest['steps']} steps; start a fresh run directory "
            f"to integrate further"
        )
    case = resolve_case(run.manifest["case"])
    mesh = run.resolve_mesh(mesh)

    run.clean_uncommitted()
    total = int(run.manifest["steps"])
    driven = bool(run.manifest["checkpoints"])
    if driven:
        start, model = run.restore(mesh, case)
    else:  # never driven: start from the initial condition
        start, model = 0, ShallowWaterModel(mesh, SWConfig.from_dict(run.manifest["config"]))
    with model:
        if not driven:
            model.initialize(case)
            run.checkpoint(start, model)
        result = model.run(
            steps=total - start,
            start_step=start,
            invariant_interval=invariant_interval,
            callback=callback,
            on_checkpoint=run.checkpoint,
        )
        if total > start and total % model.config.checkpoint_interval:
            run.checkpoint(total, model)  # the hook stops short of the horizon
    run.mark_complete()
    return result
