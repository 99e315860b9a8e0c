"""Fault-tolerant runtime: injection, recovery, watchdogs, restart files.

The paper's pattern-level granularity lets work move freely between host and
device; this package makes that design *survivable*:

* :mod:`~repro.resilience.faults` — named fault sites in every execution
  layer, driven by seeded :class:`~repro.resilience.faults.FaultPlan`\\ s
  (deterministic or probabilistic), so failures are testable on demand.
  Each layer recovers where its state lives, under a retry budget it reads
  itself: a halo exchange and a pool respawn from ``SWConfig.halo_retries``,
  a simulated transfer from ``hybrid.executor.TRANSFER_RETRIES``.
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

This ``__init__`` re-exports only the import-light fault/integrity machinery;
import ``repro.resilience.guards`` / ``repro.resilience.checkpoint`` /
``repro.resilience.durable`` directly for the pieces that pull in the
shallow-water core.
"""

from .faults import (
    KNOWN_SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_site,
    use_fault_plan,
)
from .integrity import checked_load, quarantine, seal, verify

__all__ = [
    "KNOWN_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "fault_site",
    "use_fault_plan",
    "seal",
    "verify",
    "quarantine",
    "checked_load",
]
