"""Recovery policies: how each layer reacts when a fault site fires.

The policy object is deliberately dumb — a handful of bounded-retry knobs —
because the *mechanisms* live where the state lives:

* backend dispatch retries the same backend, then falls back to ``numpy``
  (:meth:`repro.engine.KernelRegistry.dispatch`).  A retry that succeeds is
  bitwise-invisible; a fallback changes backend (counted as
  ``resilience.recovery.fallback``) and is correct to backend tolerance.
* split execution re-runs a failed device's rows on the survivor and
  demotes the placement to single-device — degraded mode
  (:func:`repro.engine.split.run_split`).
* halo exchanges retry with exponential backoff, the simulated backoff
  seconds accounted into ``resilience.halo.backoff_s``
  (:class:`repro.parallel.runner.DecomposedShallowWater`).
* simulated PCIe transfers are rescheduled, the failed attempt occupying
  its channel like a real wire-level retry would
  (:class:`repro.hybrid.executor.HybridExecutor`).

Install a non-default policy with :func:`use_recovery_policy`;
:meth:`repro.swm.model.ShallowWaterModel.run` installs one built from the
``SWConfig`` retry knobs for the duration of a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "RecoveryPolicy",
    "active_recovery_policy",
    "use_recovery_policy",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-retry knobs for every recovery mechanism.

    Attributes
    ----------
    backend_retries : int
        Same-backend re-dispatches after a faulted kernel dispatch before
        falling back.
    backend_fallback : bool
        After retries are exhausted, resolve the ``numpy`` implementation
        and run that (counted under ``resilience.recovery.fallback``).
    split_degrade : bool
        After a split-device failure, demote the placement to the surviving
        device for subsequent dispatches (degraded mode).
    halo_retries : int
        Re-attempts of a faulted halo exchange before giving up.
    halo_backoff_s : float
        Base backoff charged per halo retry (doubled each attempt);
        accounted into the ``resilience.halo.backoff_s`` counter so the
        step model can price recovery, not just success.
    transfer_retries : int
        Re-schedules of a faulted simulated PCIe transfer.
    """

    backend_retries: int = 1
    backend_fallback: bool = True
    split_degrade: bool = True
    halo_retries: int = 2
    halo_backoff_s: float = 0.0
    transfer_retries: int = 2

    def __post_init__(self) -> None:
        for name in ("backend_retries", "halo_retries", "transfer_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.halo_backoff_s < 0.0:
            raise ValueError("halo_backoff_s must be >= 0")


_POLICY = RecoveryPolicy()


def active_recovery_policy() -> RecoveryPolicy:
    """The process-wide policy (defaults are always installed)."""
    return _POLICY


@contextmanager
def use_recovery_policy(policy: RecoveryPolicy) -> Iterator[RecoveryPolicy]:
    """Temporarily install ``policy`` process-wide."""
    global _POLICY
    old = _POLICY
    _POLICY = policy
    try:
        yield policy
    finally:
        _POLICY = old
