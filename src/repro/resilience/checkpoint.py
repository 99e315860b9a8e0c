"""Restart files: the one writer, interval auto-checkpoints, in-run rollback.

:func:`write_restart` is the only function in the tree that lays out a
restart archive; :meth:`repro.swm.model.ShallowWaterModel.save_checkpoint`
and :class:`AutoCheckpointer` publish through it, for every executor.  The
file is an *uncompressed* ``.npz`` (``h``, ``u``,
``b_cell``, ``f_vertex``, ``config``): float64 mantissas do not compress —
zlib spent 25 ms to turn 577 KB into 466 KB at level 5 — and ``np.load``
reads stored and deflated members alike, so restart files written by
earlier revisions keep loading.  The archive is built in memory, hashed
there and written once, so the writer hands its caller the byte length and
SHA-256 of exactly what it published and nothing has to read the file back.

:class:`AutoCheckpointer` layers on that: every ``interval`` steps it
writes a full restart file, keeps the newest ``keep`` of them, and can
*roll the running model back* to the newest one — the recovery arm of the
numerical watchdog (:mod:`repro.resilience.guards`).

Rollback restores only the prognostic fields (``h``, ``u``) and recomputes
the diagnostics from them; that is exactly the restart contract the test
suite already proves bitwise (end-of-step diagnostics are a pure function of
the state), so a rolled-back trajectory is indistinguishable from one that
never left the checkpointed state.  Every published file counts into
``resilience.checkpoint.saved`` / ``resilience.checkpoint.bytes`` and the
``resilience.checkpoint.write_s`` timer; rollbacks into
``resilience.checkpoint.rollback``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..obs.metrics import get_registry

__all__ = ["AutoCheckpointer", "write_restart"]


def write_restart(path, state, b_cell, f_vertex, config) -> tuple[int, str]:
    """Atomically publish one restart file; return its ``(bytes, sha256)``.

    Crash-atomic: the archive goes to a ``*.tmp`` sibling, is flushed and
    fsynced, then published with ``os.replace`` — a reader sees the old file
    or the new file under ``path``, never a torn one.  The digest is taken
    from the in-memory archive before the single write, so it is the digest
    of the published bytes without a second pass over the file.
    """
    path = Path(path)
    registry = get_registry()
    with registry.timer("resilience.checkpoint.write_s").time():
        archive = io.BytesIO()
        np.savez(
            archive,
            h=state.h,
            u=state.u,
            b_cell=b_cell,
            f_vertex=f_vertex,
            config=np.array(json.dumps(dataclasses.asdict(config))),
        )
        data = archive.getbuffer()
        digest = hashlib.sha256(data).hexdigest()
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    registry.counter("resilience.checkpoint.saved").inc()
    registry.counter("resilience.checkpoint.bytes").inc(data.nbytes)
    return data.nbytes, digest


class AutoCheckpointer:
    """Periodic restart files for a running model, newest-first rollback.

    Parameters
    ----------
    model : ShallowWaterModel
        The model being integrated; ``model.state`` must be current when
        :meth:`save` is called (the run loop updates it every step).
    interval : int
        Steps between automatic saves (:meth:`maybe_save`); must be >= 1.
    directory : path-like, optional
        Where restart files go.  Default: a temporary directory owned by
        this checkpointer (deleted with it).  Pointing at an existing
        directory *discovers* any prior ``auto-*.npz`` checkpoints in it,
        so a restarted process can roll back to (or resume from) files a
        previous process wrote.
    keep : int
        How many newest checkpoints to retain on disk.
    """

    def __init__(self, model, interval: int, directory=None, keep: int = 2) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.model = model
        self.interval = interval
        self.keep = keep
        self._tmp = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            directory = self._tmp.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._saved: list[tuple[int, Path]] = self._discover()
        #: ``(bytes, sha256)`` of the file under :attr:`last_path` when this
        #: checkpointer wrote it; ``None`` for a discovered file.
        self.last_written: tuple[int, str] | None = None

    def _discover(self) -> list[tuple[int, Path]]:
        """Existing ``auto-<step>.npz`` files in the directory, step order."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob("auto-*.npz"):
            try:
                step = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            found.append((step, path))
        return sorted(found)

    # ------------------------------------------------------------------ save
    @property
    def last_step(self) -> int | None:
        """Step number of the newest retained checkpoint (``None`` if none)."""
        return self._saved[-1][0] if self._saved else None

    @property
    def last_path(self) -> Path | None:
        """Path of the newest retained checkpoint (``None`` if none)."""
        return self._saved[-1][1] if self._saved else None

    def discard_after(self, step: int) -> None:
        """Drop (and delete) every checkpoint newer than ``step``.

        A resumed run starting at ``step`` must not be able to roll *forward*
        onto checkpoints a previous, longer-lived process left behind.
        """
        while self._saved and self._saved[-1][0] > step:
            _, path = self._saved.pop()
            path.unlink(missing_ok=True)
            self.last_written = None

    def maybe_save(self, step: int) -> bool:
        """Save iff ``step`` is a multiple of the interval."""
        if step % self.interval == 0:
            self.save(step)
            return True
        return False

    def save(self, step: int) -> Path:
        """Write one restart file for the model's current state."""
        path = self.directory / f"auto-{step:08d}.npz"
        self.last_written = self.model.save_checkpoint(path)
        self._saved.append((step, path))
        while len(self._saved) > self.keep:
            _, old = self._saved.pop(0)
            old.unlink(missing_ok=True)
        return path

    # -------------------------------------------------------------- rollback
    def rollback(self) -> int:
        """Restore the model to the newest checkpoint; return its step.

        Only ``h``/``u`` are read back (the run's fixed fields never change);
        the model recomputes the diagnostics (and reloads decomposed ranks)
        from the assigned state, matching the restart contract.  The
        model's *current* configuration is kept — so a caller that halves
        ``dt`` before resuming integrates the restored state under the new
        step size.
        """
        if not self._saved:
            raise RuntimeError("no auto-checkpoint to roll back to")
        from ..swm.state import State

        step, path = self._saved[-1]
        with np.load(path) as data:
            self.model.state = State(h=data["h"].copy(), u=data["u"].copy())
        get_registry().counter("resilience.checkpoint.rollback").inc()
        return step
