"""Fault-tolerant runtime: the chaos crash, watchdogs, restart files, caches.

The paper's pattern-level granularity lets work move freely between host and
device; this package makes that design *survivable*:

* :mod:`~repro.resilience.faults` — the chaos crash point the run loop
  passes once per step: armed, it raises or sends the process ``SIGKILL``,
  so a durable run's crash-and-resume is testable at a chosen step.  Every
  other failure is survived where it really happens: a dead pool worker is
  respawned within ``SWConfig.halo_retries``.
* :mod:`~repro.resilience.guards` — numerical watchdogs (NaN/Inf scans,
  invariant-drift limits, a CFL monitor) inside the stepping loop.
* :mod:`~repro.resilience.checkpoint` — the one restart-file writer; a
  watchdog rollback needs no file (the run loop keeps its anchor in memory).
* :mod:`~repro.resilience.integrity` — CRC-sidecar validation and
  quarantine-and-rebuild self-healing for every on-disk cache (mesh,
  operator, plan): a corrupt entry is moved aside and rebuilt, never fatal.
* :mod:`~repro.resilience.durable` — crash-consistent run directories
  (manifest + committed checkpoints) and bitwise resume after a real
  process death, in serial and pool mode.

This ``__init__`` re-exports only the import-light crash point and
integrity machinery; import ``repro.resilience.guards`` /
``repro.resilience.checkpoint`` / ``repro.resilience.durable`` directly for
the pieces that pull in the shallow-water core.
"""

from .faults import FaultInjected, crash_at, crash_point
from .integrity import checked_load, quarantine, seal, verify

__all__ = [
    "FaultInjected",
    "crash_at",
    "crash_point",
    "seal",
    "verify",
    "quarantine",
    "checked_load",
]
