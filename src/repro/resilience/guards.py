"""Numerical watchdogs: NaN/Inf scans, invariant-drift limits, CFL monitor.

A pattern-level hybrid run can fail numerically as well as mechanically: a
too-aggressive time step excites the gravity-wave CFL limit, a buggy backend
poisons a field with NaN, or slow invariant drift signals a mis-wired
operator long before the state visibly blows up.  The local-time-stepping
MPAS-SW literature (arXiv:2106.07154) puts CFL/stability monitoring *inside*
the stepping loop for exactly this reason; :class:`Watchdog` is that monitor
for this repo.

Three guards run per check, cheapest first:

``finite``
    NaN/Inf scan of the prognostic fields ``h`` and ``u``.  Runs first so the
    drift and CFL guards never compare against NaN (every NaN comparison is
    false — the classic silent-propagation trap).
``cfl``
    Gravity-wave Courant number of the *current* state, the running-state
    counterpart of :func:`repro.swm.model.suggested_dt`:
    ``dt * (max |(u, v)| + sqrt(g * max(h + b))) / min(dcEdge)``.
``mass_drift`` / ``energy_drift``
    Relative drift of the conserved integrals (:func:`repro.swm.error.
    invariants`) against the first checked state.  Mass is conserved to
    round-off by the flux-form thickness equation, so even a tiny relative
    threshold separates round-off from corruption.

A violation is returned as a :class:`GuardReport` naming the guard, the
offending field, the measured value and the limit — the caller
(:meth:`repro.swm.model.ShallowWaterModel.run`) decides whether to halt
(raise :class:`NumericalBlowup`) or roll back to its in-memory anchor
with a halved time step.  Every violation is counted as
``resilience.guard.violation`` tagged by guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.metrics import get_registry
from ..swm.error import Invariants, invariants

__all__ = [
    "GuardReport",
    "NumericalBlowup",
    "Watchdog",
    "cfl_number",
]


@dataclass(frozen=True)
class GuardReport:
    """One watchdog violation: which guard fired, on what, by how much."""

    step: int
    guard: str  # "finite", "cfl", "mass_drift", "energy_drift"
    field: str  # offending field ("h", "u") or the monitored quantity
    value: float
    limit: float
    detail: str

    def message(self) -> str:
        if self.guard == "instability":
            return (
                f"watchdog caught in-step instability at step {self.step} on "
                f"{self.field!r}: {self.detail}"
            )
        return (
            f"watchdog {self.guard!r} violated at step {self.step} on "
            f"{self.field!r}: {self.value:.6g} exceeds limit {self.limit:.6g} "
            f"({self.detail})"
        )


class NumericalBlowup(RuntimeError):
    """A watchdog violation under the ``halt`` policy (or rollbacks exhausted).

    Carries the :class:`GuardReport` so callers and tests can see *which*
    field failed *which* guard at *which* step — no silent NaN propagation.
    """

    def __init__(self, report: GuardReport) -> None:
        self.report = report
        super().__init__(report.message())


def cfl_number(mesh, state, diag, b_cell, gravity: float, dt: float) -> float:
    """Gravity-wave Courant number of the current state.

    The running-state counterpart of :func:`repro.swm.model.suggested_dt`
    (which prices the *initial condition*): speed is the fastest combination
    of advective velocity ``|(u, v)|`` and gravity-wave speed
    ``sqrt(g * max(h + b))``, over the smallest primal edge.  sqrt is
    monotone, so the speed takes one: ``sqrt(max(u*u + v*v))`` is within
    2 ulp of ``max(hypot(u, v))`` without a libm call per edge.
    """
    c = float(np.sqrt(gravity * np.max(state.h + b_cell)))
    umax = float(np.sqrt(np.max(state.u * state.u + diag.v * diag.v)))
    return dt * (umax + c) / float(np.min(mesh.metrics.dcEdge))


class Watchdog:
    """Per-step numerical guards over a running shallow-water integration.

    Parameters
    ----------
    mesh, b_cell, gravity
        The run's fixed fields (for invariants and wave speeds).
    mass_drift, energy_drift : float
        Relative drift limits against the first checked state; 0 disables
        that guard.
    cfl_max : float
        Courant-number ceiling; 0 disables the CFL guard.  The finite scan
        cannot be disabled — it is the whole point.
    """

    def __init__(
        self,
        mesh,
        b_cell: np.ndarray,
        gravity: float,
        *,
        mass_drift: float = 0.0,
        energy_drift: float = 0.0,
        cfl_max: float = 0.0,
    ) -> None:
        for name, v in (
            ("mass_drift", mass_drift),
            ("energy_drift", energy_drift),
            ("cfl_max", cfl_max),
        ):
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0 (0 disables)")
        self.mesh = mesh
        self.b_cell = b_cell
        self.gravity = gravity
        self.mass_drift = mass_drift
        self.energy_drift = energy_drift
        self.cfl_max = cfl_max
        self.reference: Invariants | None = None

    @classmethod
    def from_config(cls, mesh, b_cell: np.ndarray, config) -> "Watchdog":
        """Build from the :class:`~repro.swm.config.SWConfig` guard knobs."""
        return cls(
            mesh,
            b_cell,
            config.gravity,
            mass_drift=config.guard_mass_drift,
            energy_drift=config.guard_energy_drift,
            cfl_max=config.guard_cfl_max,
        )

    # ------------------------------------------------------------------ check
    def _violation(
        self, step: int, guard: str, field: str, value: float, limit: float, detail: str
    ) -> GuardReport:
        get_registry().counter("resilience.guard.violation", guard=guard).inc()
        return GuardReport(step, guard, field, value, limit, detail)

    def in_step_failure(self, step: int, exc: BaseException) -> GuardReport:
        """Translate a mid-step floating-point failure into a guard report.

        A violently unstable ``dt`` can raise ``FloatingPointError`` inside
        the RK stages (non-positive thickness) before any end-of-step check
        runs; the stepping loop routes it here so the same halt/rollback
        policy applies.
        """
        return self._violation(
            step, "instability", "h,u", float("inf"), 0.0, str(exc)
        )

    def check(self, step: int, state, diag, dt: float) -> GuardReport | None:
        """Run all enabled guards; return the first violation (or ``None``)."""
        # 1. Finite scan first: everything below compares against these
        # fields, and comparisons with NaN are silently false.
        for name, arr in (("h", state.h), ("u", state.u)):
            bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
            if bad:
                return self._violation(
                    step, "finite", name, float(bad), 0.0,
                    f"{bad} non-finite values of {np.size(arr)}",
                )
        # 2. CFL ceiling on the current state.
        if self.cfl_max > 0.0:
            cfl = cfl_number(self.mesh, state, diag, self.b_cell, self.gravity, dt)
            if cfl > self.cfl_max:
                return self._violation(
                    step, "cfl", "u", cfl, self.cfl_max,
                    f"dt={dt:.6g} s exceeds the gravity-wave limit",
                )
        # 3. Invariant drift against the first checked state.
        if self.mass_drift > 0.0 or self.energy_drift > 0.0:
            inv = invariants(self.mesh, state, diag, self.b_cell, self.gravity)
            if self.reference is None:
                self.reference = inv
                return None
            ref = self.reference
            if self.mass_drift > 0.0:
                drift = abs(inv.mass - ref.mass) / abs(ref.mass)
                if drift > self.mass_drift:
                    return self._violation(
                        step, "mass_drift", "h", drift, self.mass_drift,
                        "relative drift of the mass integral",
                    )
            if self.energy_drift > 0.0:
                drift = abs(inv.total_energy - ref.total_energy) / abs(
                    ref.total_energy
                )
                if drift > self.energy_drift:
                    return self._violation(
                        step, "energy_drift", "h,u", drift, self.energy_drift,
                        "relative drift of the total-energy integral",
                    )
        return None
