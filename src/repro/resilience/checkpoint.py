"""Restart files: the one writer.

:func:`publish` is the tree's one crash-atomic publisher of run files —
restart archives, a durable run's fixed-fields file and its manifest — and
:func:`write_restart` the one layout of a restart archive, behind
:meth:`repro.swm.model.ShallowWaterModel.save_checkpoint`; during a run
only a durable run calls that (:meth:`repro.resilience.durable.DurableRun.
checkpoint`).  The archive is an *uncompressed* ``.npz`` of ``h``, ``u``
and ``config``, plus ``b_cell`` / ``f_vertex`` in a self-contained file (a
durable run stores those once per directory: 577 KB → 328 KB per level-5
step).  Float64 mantissas do not compress — zlib spent 25 ms to turn 577 KB
into 466 KB — and ``np.load`` reads stored and deflated members alike, so
older restart files keep loading.  Bytes are built and hashed in memory and
written once: the caller gets the length and SHA-256 of what was published
without reading it back.  Restart files count into
``resilience.checkpoint.saved`` / ``.bytes`` and the ``.write_s`` timer.
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

__all__ = ["archive", "publish", "write_restart"]


def archive(**members) -> memoryview:
    """The bytes of an uncompressed ``.npz`` holding ``members``."""
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getbuffer()


def publish(path, data) -> tuple[int, str]:
    """Atomically publish ``data`` under ``path``; return its ``(bytes, sha256)``.

    The bytes go to a ``*.tmp`` sibling, are fsynced, then renamed over
    ``path`` with ``os.replace``: a reader sees the old file or the new one,
    never a torn one.  The digest is taken from memory before the write.
    """
    path = Path(path)
    digest = hashlib.sha256(data).hexdigest()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return len(data), digest


def write_restart(path, state, config, **fixed) -> tuple[int, str]:
    """Publish one restart file (``state``, ``config`` and the ``fixed``
    fields given, if any); return its ``(bytes, sha256)``."""
    registry = get_registry()
    with registry.timer("resilience.checkpoint.write_s").time():
        written = publish(path, archive(
            h=state.h, u=state.u, **fixed,
            config=np.array(json.dumps(dataclasses.asdict(config))),
        ))
    registry.counter("resilience.checkpoint.saved").inc()
    registry.counter("resilience.checkpoint.bytes").inc(written[0])
    return written
