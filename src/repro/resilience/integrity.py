"""Self-healing integrity layer for the on-disk caches.

Every persistent cache in this repo (mesh archives, compiled sparse
operators, composed plan matrices) is written atomically — temp file, then
``os.replace`` — so a *reader* never sees a half-written archive under the
final name.  What atomic writes cannot prevent is the file being damaged
*after* publication: a disk hiccup, a torn page from a power loss, a
truncation by a full filesystem, an over-eager cleanup script.  Before this
layer, one corrupt ``.npz`` crashed every future run that touched it
(``zipfile.BadZipFile`` out of ``np.load``), turning a cheap rebuildable
artifact into a persistent outage.

The contract here is **self-healing**: a cache entry that fails validation
is never loaded and never fatal.  It is moved to a ``quarantine/`` folder
next to the cache (preserved for post-mortem, out of the loader's way),
counted as ``resilience.cache.quarantined`` (tagged by cache ``kind``), and
the caller rebuilds the entry exactly as if it had never been cached.

Validation is a CRC *sidecar*: :func:`seal` writes ``<file>.crc`` holding
the byte length and CRC-32 of the published file, and :func:`verify` checks
both on read.  A sidecar (rather than an in-archive footer) keeps the
``.npz`` payload bit-identical to what numpy's archive writer produced —
``np.load`` stays the single reader — and the replace-file-then-replace-
sidecar window degrades safely: a mismatch quarantines and rebuilds.
Legacy entries written before this layer carry no sidecar; they are loaded
on a best-effort basis and quarantined only if actually unreadable.

:func:`checked_load` bundles the policy for cache call sites::

    m = checked_load(path, loader, kind="operator")
    if m is None:       # missing, stale, or quarantined-corrupt
        m = rebuild()

All helpers are import-light (``zlib`` + the metrics registry) so the
engine's process-startup path can use them freely.
"""

from __future__ import annotations

import os
import threading
import zlib
from pathlib import Path

from ..obs.metrics import get_registry

__all__ = [
    "SIDECAR_SUFFIX",
    "QUARANTINE_DIRNAME",
    "seal",
    "verify",
    "quarantine",
    "checked_load",
]

#: Appended to the cached file's full name: ``mesh.npz`` -> ``mesh.npz.crc``.
SIDECAR_SUFFIX = ".crc"

#: Subdirectory (next to the cached files) corrupt entries are moved into.
QUARANTINE_DIRNAME = "quarantine"


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _length_and_crc(path: Path, chunk: int = 1 << 20) -> tuple[int, int]:
    """Byte length and CRC-32 of a file, streamed."""
    length = 0
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            length += len(block)
            crc = zlib.crc32(block, crc)
    return length, crc & 0xFFFFFFFF


def seal(path: str | Path) -> Path:
    """Write the CRC sidecar for a just-published cache file.

    The sidecar itself is written atomically (temp + ``os.replace``), so a
    crash between publishing the file and sealing it leaves at worst a
    *missing or stale* sidecar — which :func:`verify` treats as suspect,
    never as valid.
    """
    path = Path(path)
    length, crc = _length_and_crc(path)
    sidecar = _sidecar_path(path)
    # Named per writer: two sealers of one entry must not rename each other's away.
    tmp = sidecar.with_name(
        f"{sidecar.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    tmp.write_text(f"crc32 {length} {crc:08x}\n", encoding="ascii")
    os.replace(tmp, sidecar)
    return sidecar


def verify(path: str | Path) -> bool | None:
    """Does the file match its sidecar?

    Returns ``True`` (sealed and intact), ``False`` (sealed but length or
    CRC disagree — also for an unparseable sidecar), or ``None`` (no
    sidecar: a legacy entry from before the integrity layer, unknown).
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return None
    try:
        tag, length_s, crc_s = sidecar.read_text(encoding="ascii").split()
        if tag != "crc32":
            return False
        want = (int(length_s), int(crc_s, 16))
    except (OSError, UnicodeDecodeError, ValueError):
        return False
    try:
        return _length_and_crc(path) == want
    except OSError:
        return False


def quarantine(path: str | Path, kind: str, reason: str = "") -> Path | None:
    """Move a corrupt cache entry (and its sidecar) out of the loader's way.

    The entry lands in ``<dir>/quarantine/`` next to the cache (same
    filesystem, so the move is an atomic rename) and the
    ``resilience.cache.quarantined`` counter is incremented tagged
    ``kind=<kind>``.  Returns the quarantined path, or ``None`` if the file
    vanished concurrently.
    """
    path = Path(path)
    qdir = path.parent / QUARANTINE_DIRNAME
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    n = 0
    while dest.exists():
        n += 1
        dest = qdir / f"{path.name}.{n}"
    try:
        os.replace(path, dest)
    except OSError:
        return None
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            os.replace(sidecar, qdir / f"{dest.name}{SIDECAR_SUFFIX}")
        except OSError:
            pass
    get_registry().counter("resilience.cache.quarantined", kind=kind).inc()
    return dest


def checked_load(path: str | Path, loader, kind: str, stale: tuple = ()):
    """Validate-then-load one cache entry; never raise on corruption.

    * sidecar mismatch -> quarantine, return ``None`` (caller rebuilds);
    * ``loader(path)`` returning ``None`` -> stale format/fingerprint,
      return ``None`` (caller rebuilds and overwrites — no quarantine);
    * ``loader`` raising one of ``stale`` -> same stale semantics;
    * ``loader`` raising anything else -> the entry is unreadable despite
      (or without) a sidecar: quarantine, return ``None``.

    ``loader`` runs only on files whose sidecar verified (or legacy files
    with no sidecar), so it may assume byte integrity and concentrate on
    format/version checks.
    """
    path = Path(path)
    if not path.exists():
        return None
    if verify(path) is False:
        quarantine(path, kind, reason="sidecar mismatch")
        return None
    try:
        return loader(path)
    except stale:
        return None
    except Exception:
        quarantine(path, kind, reason="unreadable")
        return None
