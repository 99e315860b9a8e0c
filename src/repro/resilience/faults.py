"""Deterministic fault injection: named sites, seeded plans, counted fires.

A production run of the paper's pattern-level design must survive a flaky
PCIe transfer, a lost halo exchange or the process itself dying.  The
precondition for *testing* that survival is the ability to make those
failures happen on demand — deterministically, so a recovered run can be
compared bitwise against a fault-free one.

Every place in the execution stack where hardware can fail is a named
*fault site* (:data:`KNOWN_SITES`):

``halo.exchange``
    One halo exchange of the multi-rank runner
    (:class:`repro.parallel.runner.DecomposedShallowWater`), tagged
    ``ranks``.
``hybrid.transfer``
    One PCIe transfer of the simulated hybrid executor
    (:class:`repro.hybrid.executor.HybridExecutor`), tagged ``dst``.
``process.crash``
    One integration step about to start in the one run loop,
    :meth:`repro.swm.model.ShallowWaterModel.run`, tagged ``step``.
    The chaos site: with ``action="kill"`` the fire is not an exception
    but a real ``SIGKILL`` of the current process — the crash-consistency
    tests use it to die mid-integration and prove that resuming from the
    run directory is bitwise-invisible.

Each site calls :func:`fault_site` unconditionally; with no plan installed
that is a single module-global ``None`` check.  A :class:`FaultPlan`
(installed with :func:`use_fault_plan`) matches each call against its
:class:`FaultSpec` entries and raises :class:`FaultInjected` when one fires
— either at exact 1-based call indices (``at=(3,)``, the reproducible mode
the recovery tests use) or with per-call probability ``p`` from a seeded
generator.  Every fire is counted into the metrics registry as
``resilience.fault.injected`` tagged by site, so the cost report can show
exactly what was thrown at a run.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..obs.metrics import get_registry

__all__ = [
    "KNOWN_SITES",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "active_fault_plan",
    "use_fault_plan",
    "fault_site",
]

#: Every fault site wired into the execution stack.
KNOWN_SITES: tuple[str, ...] = (
    "halo.exchange",
    "hybrid.transfer",
    "process.crash",
)


class FaultInjected(RuntimeError):
    """An injected fault fired at a site (never raised by real hardware).

    Recovery layers catch exactly this type: a real bug raising ``ValueError``
    or ``FloatingPointError`` must *not* be silently retried into oblivion.
    """

    def __init__(self, site: str, tags: dict, fire_index: int) -> None:
        self.site = site
        self.tags = dict(tags)
        self.fire_index = fire_index
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        super().__init__(f"injected fault #{fire_index} at {site!r} ({detail})")


@dataclass
class FaultSpec:
    """When one fault site should fire.

    Attributes
    ----------
    site : str
        The fault-site name (one of :data:`KNOWN_SITES`).
    at : sequence of int
        1-based indices of *matching* calls at which to fire — call 3 means
        "the third call of this site whose tags satisfy ``match``".
        Deterministic regardless of seed.
    probability : float
        Per-matching-call fire probability, drawn from the plan's seeded
        generator (0 disables; combine with ``at`` freely).
    max_fires : int or None
        Stop firing after this many fires (``None`` = unlimited).  The knob
        that turns "always fails" into "fails once, then recovers".
    match : dict
        Tag filters: the spec only considers calls whose tags contain every
        ``key: value`` pair (compared as strings), e.g.
        ``{"ranks": 4}`` or ``{"step": 3}``.
    action : str
        What a fire does.  ``"raise"`` (default) raises
        :class:`FaultInjected` for the recovery layers to catch.
        ``"kill"`` delivers ``SIGKILL`` to the current process — no
        exception, no cleanup, no ``atexit`` — the real-crash mode the
        durable-run tests use (``{"step": N}`` + ``at=(1,)`` kills at the
        first call for step ``N``).
    """

    site: str
    at: Sequence[int] = ()
    probability: float = 0.0
    max_fires: int | None = None
    match: dict = field(default_factory=dict)
    action: str = "raise"
    # Mutable bookkeeping (per plan run).
    calls: int = field(default=0, compare=False)
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {KNOWN_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if any(i < 1 for i in self.at):
            raise ValueError("`at` uses 1-based call indices")
        if not self.at and self.probability == 0.0:
            raise ValueError("spec never fires: give `at` and/or `probability`")
        if self.action not in ("raise", "kill"):
            raise ValueError("action must be 'raise' or 'kill'")

    def matches(self, tags: dict) -> bool:
        return all(str(tags.get(k)) == str(v) for k, v in self.match.items())


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries, checked at every site call.

    Two plans built with the same specs and seed fire identically — the
    property that lets a test prove bitwise-identical recovery.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.total_fires = 0

    def reset(self) -> None:
        """Rewind call counters and the RNG to the initial state."""
        self._rng = np.random.default_rng(self.seed)
        self.total_fires = 0
        for spec in self.specs:
            spec.calls = 0
            spec.fires = 0

    def check(self, site: str, **tags) -> None:
        """Raise :class:`FaultInjected` if any spec fires for this call."""
        for spec in self.specs:
            if spec.site != site or not spec.matches(tags):
                continue
            spec.calls += 1
            if spec.max_fires is not None and spec.fires >= spec.max_fires:
                continue
            fire = spec.calls in spec.at
            if not fire and spec.probability > 0.0:
                fire = float(self._rng.random()) < spec.probability
            if fire:
                spec.fires += 1
                self.total_fires += 1
                get_registry().counter(
                    "resilience.fault.injected", site=site
                ).inc()
                if spec.action == "kill":
                    # A real crash: the process dies here, mid-whatever it
                    # was doing.  No Python-level unwinding happens.
                    sig = getattr(signal, "SIGKILL", None)
                    if sig is not None:
                        os.kill(os.getpid(), sig)
                    os._exit(137)
                raise FaultInjected(site, tags, self.total_fires)


# ------------------------------------------------------------- active plan
_PLAN: FaultPlan | None = None


def active_fault_plan() -> FaultPlan | None:
    """The currently installed plan (``None`` almost always)."""
    return _PLAN


@contextmanager
def use_fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` process-wide for the duration of the block."""
    global _PLAN
    old = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = old


def fault_site(site: str, **tags) -> None:
    """Declare one fault-site call; raises :class:`FaultInjected` if it fires.

    The unconditional hot-path cost is one global read and one ``None``
    check — cheap enough to leave in every step.
    """
    if _PLAN is not None:
        _PLAN.check(site, **tags)
