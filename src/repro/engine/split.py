"""Split execution: one stencil operator partitioned across two devices.

The hybrid layer's *adjustable* placements (the light-yellow boxes of the
paper's Figure 4b) say a pattern instance should run a CPU fraction ``f`` on
the host and ``1 - f`` on the accelerator.  Historically that split existed
only inside the simulated :class:`~repro.hybrid.executor.HybridExecutor`;
this module makes it real on two *logical* in-process devices so its
correctness contract is checkable:

* Output points are partitioned by a contiguous index cut at
  ``floor(f * n_out)``; input points of each field use the same cut on
  their own point type, so consecutive split patterns form a de-facto
  host/device domain decomposition (Section III-C).
* Each device holds only its own share of every input field.  Before the
  kernel runs, the *boundary band* — the gathered input indices that fall
  on the other device's side of the cut — is reconciled into the local
  copy (this is the "redundant computations ... without destroying the
  completeness of the pattern structure" transfer of the paper; its size
  is counted into the metrics registry as ``engine.split.band_points``).
* Because every registered stencil operator is a pure per-output-row
  gather (the race-free Algorithm 3 form), the stitched result is bitwise
  identical to unsplit execution — asserted by the test suite, which turns
  the executor's modelled split timelines into a checkable semantics.

Placements are activated with :func:`use_placements`, keyed by Table I
label; :func:`repro.engine.registry.KernelRegistry.dispatch` consults them
on every call.  Any object with ``device == "split"`` and a
``cpu_fraction`` attribute qualifies — in practice a
:class:`repro.hybrid.executor.Placement`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..resilience.faults import FaultInjected, fault_site
from ..resilience.recovery import active_recovery_policy

__all__ = [
    "use_placements",
    "active_placement",
    "active_placements",
    "placements_active",
    "run_split",
]

#: Table I label -> Placement, installed by :func:`use_placements`.
_ACTIVE: dict[str, object] = {}


def placements_active() -> bool:
    """True when any placement is installed (the plan executor's fast check).

    The fused-plan executor (:mod:`repro.engine.plan`) bypasses the
    per-dispatch placement lookup entirely; this single truthiness test is
    what keeps that legal — when it is False no stage can need routing.
    """
    return bool(_ACTIVE)


def active_placements() -> dict[str, object]:
    """A snapshot of the installed label -> placement mapping.

    Returns a copy: mutating it must not edit the live routing table (that
    is :func:`use_placements`'s job — and degraded-mode demotion's).
    """
    return dict(_ACTIVE)


def active_placement(label: str | None):
    """The active placement for one Table I label (or a fused group)."""
    if label is None or not _ACTIVE:
        return None
    p = _ACTIVE.get(label)
    if p is not None:
        return p
    for part in label.split(","):
        p = _ACTIVE.get(part)
        if p is not None:
            return p
    return None


@contextmanager
def use_placements(placements: Mapping[str, object]) -> Iterator[dict[str, object]]:
    """Temporarily route dispatches of the given Table I labels.

    Only ``split`` placements change execution (single-device placements are
    accepted and ignored: on one process every device is the local one).
    """
    for label, p in placements.items():
        device = getattr(p, "device", None)
        if device is None:
            raise TypeError(f"placement for {label!r} has no device: {p!r}")
        if device == "split" and not 0.0 < float(p.cpu_fraction) < 1.0:
            raise ValueError(f"split placement for {label!r} needs 0 < f < 1")
    old = dict(_ACTIVE)
    _ACTIVE.update(placements)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE.clear()
        _ACTIVE.update(old)


def _run_share(entry, fn, backend: str, mesh, fields, table, rows, owned, n_in, device):
    """One device's share of a split execution: reconcile the band, run, slice."""
    sub = table[rows]
    needed = np.unique(sub[sub >= 0])
    owned_mask = np.zeros(n_in, dtype=bool)
    owned_mask[owned] = True
    band = needed[~owned_mask[needed]]
    get_registry().counter(
        "engine.split.band_points", op=entry.op, device=device, backend=backend
    ).inc(band.size)
    # Each device's local copy: its own contiguous share plus the
    # reconciled boundary band; everything else stays zero (absent).
    local_fields = []
    for field_arr in fields:
        local = np.zeros_like(field_arr)
        local[owned] = field_arr[owned]
        local[band] = field_arr[band]
        local_fields.append(local)
    if hasattr(fn, "apply_rows"):
        # Precompiled operators (the sparse backend) slice their CSR rows
        # instead of computing the whole output and discarding the other
        # device's half.  CSR matvec treats each row independently, so
        # ``M[rows] @ x == (M @ x)[rows]`` bitwise and the stitched result
        # keeps the unsplit-equivalence contract.
        return np.asarray(fn.apply_rows(mesh, local_fields, rows))
    full = np.asarray(fn(mesh, *local_fields))
    return full[rows]


def _demote(placement, survivor: str) -> None:
    """Degraded mode: route the failed placement's labels to the survivor.

    Mutates the live ``_ACTIVE`` table in place, so every *subsequent*
    dispatch under the same :func:`use_placements` block runs single-device;
    leaving the block restores whatever was installed before it.  Surfaced
    as a ``resilience.split.degraded`` counter and a zero-width tracer event.
    """
    from ..hybrid.executor import Placement  # deferred: engine stays light

    demoted = Placement(device=survivor)
    labels = [label for label, p in _ACTIVE.items() if p is placement]
    for label in labels:
        _ACTIVE[label] = demoted
    get_registry().counter("resilience.split.degraded", device=survivor).inc()
    tracer = get_tracer()
    if tracer.enabled:
        now = tracer.now()
        tracer.add_span(
            "split.degraded", now, now, category="resilience",
            device=survivor, labels=",".join(labels),
        )


def run_split(entry, fn, backend: str, mesh, fields, placement):
    """Execute one operator split across two logical devices.

    ``entry`` is the :class:`~repro.engine.registry.OpEntry`; ``fn`` the
    resolved backend implementation; ``fields`` the positional input arrays
    (all of ``entry.input_point`` type).  Returns the stitched output,
    bitwise identical to ``fn(mesh, *fields)``.

    Each device's share is one ``engine.split.device`` fault site — the
    "accelerator died mid-pattern" scenario.  When a device's share faults
    and the recovery policy allows ``split_degrade``, the survivor
    re-executes the failed rows (same data, same gather order: bitwise
    identical) and the placement is demoted to single-device for subsequent
    dispatches.  With degradation disabled, or both devices faulted, the
    injected fault propagates.
    """
    if entry.stencil is None or entry.no_split:
        raise ValueError(
            f"operator {entry.op!r} does not support split execution"
        )
    if entry.input_point is None or entry.output_point is None:
        raise ValueError(f"operator {entry.op!r} lacks point-type metadata")

    f = float(placement.cpu_fraction)
    n_out = entry.output_point.count(mesh)
    n_in = entry.input_point.count(mesh)
    if n_out < 2 or n_in < 2:
        # Degenerate domain: there is no cut that gives both devices work
        # (the clamped-cut formula would invert to an empty cpu share).
        return np.asarray(fn(mesh, *fields))
    cut_out = min(max(int(f * n_out), 1), n_out - 1)
    cut_in = min(max(int(f * n_in), 1), n_in - 1)

    table = np.asarray(entry.stencil(mesh))
    metrics = get_registry()
    shares = (
        ("cpu", slice(0, cut_out), slice(0, cut_in)),
        ("mic", slice(cut_out, n_out), slice(cut_in, n_in)),
    )
    parts: list = []
    failed: list[tuple[int, tuple, FaultInjected]] = []
    for i, (device, rows, owned) in enumerate(shares):
        try:
            fault_site("engine.split.device", op=entry.op, device=device)
            parts.append(
                _run_share(entry, fn, backend, mesh, fields, table, rows, owned, n_in, device)
            )
        except FaultInjected as exc:
            parts.append(None)
            failed.append((i, (device, rows, owned), exc))
    if failed:
        if len(failed) == len(shares) or not active_recovery_policy().split_degrade:
            raise failed[0][2]
        (i, (device, rows, owned), _), = failed
        survivor = shares[1 - i][0]
        metrics.counter(
            "resilience.split.redo", op=entry.op, device=survivor
        ).inc(rows.stop - rows.start)
        # The survivor re-executes the failed rows from the same local view
        # the dead device would have built — bitwise-identical recovery.
        parts[i] = _run_share(
            entry, fn, backend, mesh, fields, table, rows, owned, n_in, survivor
        )
        _demote(placement, survivor)
    metrics.gauge("engine.split.cpu_fraction", op=entry.op).set(f)
    return np.concatenate(parts, axis=0)
