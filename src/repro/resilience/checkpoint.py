"""Restart files: the one writer.

:func:`write_restart` is the only function in the tree that lays out a
restart archive; :meth:`repro.swm.model.ShallowWaterModel.save_checkpoint`
publishes through it, for every executor, and during a run only a durable
run calls that (:meth:`repro.resilience.durable.DurableRun.checkpoint`) — a
watchdog rollback returns to a state the run loop keeps in memory.  The
file is an *uncompressed* ``.npz`` (``h``, ``u``,
``b_cell``, ``f_vertex``, ``config``): float64 mantissas do not compress —
zlib spent 25 ms to turn 577 KB into 466 KB at level 5 — and ``np.load``
reads stored and deflated members alike, so restart files written by
earlier revisions keep loading.  The archive is built in memory, hashed
there and written once, so the writer hands its caller the byte length and
SHA-256 of exactly what it published and nothing has to read the file back.
Every published file counts into ``resilience.checkpoint.saved`` /
``resilience.checkpoint.bytes`` and the ``resilience.checkpoint.write_s``
timer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from ..obs.metrics import get_registry

__all__ = ["write_restart"]


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
