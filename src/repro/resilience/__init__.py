"""Fault-tolerant runtime: injection, recovery, watchdogs, auto-checkpoints.

The paper's pattern-level granularity lets work move freely between host and
device; this package makes that design *survivable*.  Four pieces:

* :mod:`~repro.resilience.faults` — named fault sites in every execution
  layer, driven by seeded :class:`~repro.resilience.faults.FaultPlan`\\ s
  (deterministic or probabilistic), so failures are testable on demand.
* :mod:`~repro.resilience.recovery` — the bounded-retry policy each layer
  consults when a site fires: backend re-dispatch + numpy fallback, halo
  retry with backoff, transfer rescheduling.
* :mod:`~repro.resilience.guards` — numerical watchdogs (NaN/Inf scans,
  invariant-drift limits, a CFL monitor) inside the stepping loop.
* :mod:`~repro.resilience.checkpoint` — interval-based restart files with
  in-run rollback, the recovery arm of the watchdog.
* :mod:`~repro.resilience.integrity` — CRC-sidecar validation and
  quarantine-and-rebuild self-healing for every on-disk cache (mesh,
  operator, plan): a corrupt entry is moved aside and rebuilt, never fatal.
* :mod:`~repro.resilience.durable` — crash-consistent run directories
  (manifest + committed checkpoints) and bitwise resume after a real
  process death, in serial and pool mode.

This ``__init__`` re-exports only the import-light fault/recovery/integrity
machinery (the engine registry imports it on every process start); import
``repro.resilience.guards`` / ``repro.resilience.checkpoint`` /
``repro.resilience.durable`` directly for the pieces that pull in the
shallow-water core.

Run ``python -m repro.resilience --selftest`` for the end-to-end proof:
a faulted Galewsky run recovering to a bitwise-identical final state.
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
from .recovery import RecoveryPolicy, active_recovery_policy, use_recovery_policy

__all__ = [
    "KNOWN_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "fault_site",
    "use_fault_plan",
    "RecoveryPolicy",
    "active_recovery_policy",
    "use_recovery_policy",
    "seal",
    "verify",
    "quarantine",
    "checked_load",
]
