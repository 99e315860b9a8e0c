"""Measured-vs-modeled cost reporting (and the observability CLI).

The performance model (:mod:`repro.machine.cost`) predicts per-pattern
times; the tracer measures them on the real NumPy kernels.  This module
joins the two on the Table I labels, so "is the model drifting from the
code?" is one function call: :func:`measured_vs_modeled` returns one row per
pattern with measured/modeled *shares* of a step and their difference.
Shares — not absolute times — are the comparable quantity: the model prices
a simulated Xeon, the measurement times NumPy, but both must agree on
*where the time goes* for the Figure 4b scheduling story to hold.

Run it::

    python -m repro.obs.report --case galewsky --steps 10 \\
        --chrome trace.json --jsonl run.jsonl --kernels
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from ..engine import BACKENDS
from ..swm.config import SWConfig
from .export import validate_chrome_trace, write_chrome_trace, write_jsonl
from .instrument import pattern_info
from .metrics import MetricsRegistry, get_registry, use_registry
from .trace import SpanRecord, Tracer, use_tracer

__all__ = [
    "PatternCost",
    "BackendCost",
    "measured_pattern_costs",
    "modeled_pattern_costs",
    "measured_vs_modeled",
    "render_cost_report",
    "backend_cost_rows",
    "render_backend_cost_report",
    "kernel_profile_rows",
    "render_kernel_profile",
    "resilience_rows",
    "render_resilience_report",
    "ensemble_rows",
    "render_ensemble_report",
    "halo_rows",
    "render_halo_report",
    "pool_startup_line",
    "run_traced",
    "main",
]


# ------------------------------------------------------------------- measured
def pattern_self_times(spans: list[SpanRecord]) -> dict[str, float]:
    """Self time per pattern label (child pattern spans subtracted).

    Pattern spans may nest (``D1`` runs the fused ``C1,C2`` sweep inside),
    so each span is charged only for the time not covered by its own
    pattern children; fused labels (``"C1,C2"``) are split among their
    members in proportion to the catalog's bytes-per-point.
    """
    finished = [s for s in spans if s.end is not None]
    self_time: dict[int, float] = {
        s.index: s.duration for s in finished if s.category == "pattern"
    }
    for s in finished:
        if s.category != "pattern" or s.parent is None:
            continue
        if s.parent in self_time:
            self_time[s.parent] -= s.duration
    by_index = {s.index: s for s in finished}
    info = pattern_info()
    totals: dict[str, float] = {}
    for index, seconds in self_time.items():
        label = str(by_index[index].tags.get("pattern", by_index[index].name))
        parts = label.split(",")
        weights = [info[p]["bytes_per_point"] if p in info else 1.0 for p in parts]
        total_w = sum(weights) or 1.0
        for part, w in zip(parts, weights):
            totals[part] = totals.get(part, 0.0) + seconds * (w / total_w)
    return totals


def measured_pattern_costs(tracer: Tracer) -> dict[str, float]:
    """Total measured self time per Table I label, in seconds."""
    return pattern_self_times(tracer.spans)


# -------------------------------------------------------------------- modeled
def occurrences_per_step(config=None) -> dict[str, int]:
    """How many times each pattern instance runs in one RK-4 step."""
    from ..dataflow.build import build_step_graph

    dfg = build_step_graph(config, with_halo=False)
    counts: dict[str, int] = {}
    for node in dfg.compute_nodes():
        label = dfg.instance(node).label
        counts[label] = counts.get(label, 0) + 1
    return counts


def modeled_pattern_costs(
    mesh_counts, config=None, device=None, profile=None
) -> dict[str, float]:
    """Model-predicted seconds per pattern for one full RK-4 step."""
    from ..machine.cost import CostModel, ExecutionProfile
    from ..machine.spec import XEON_E5_2680V2
    from ..patterns.catalog import build_catalog

    if device is None:
        device = XEON_E5_2680V2
    if profile is None:
        # Single-threaded, unvectorized: the profile closest to NumPy.
        profile = ExecutionProfile(threads=1, vectorized=False)
    model = CostModel(device=device, profile=profile)
    occurrences = occurrences_per_step(config)
    costs: dict[str, float] = {}
    for inst in build_catalog(config):
        n = inst.output_point.count(mesh_counts)
        costs[inst.label] = model.instance_time(inst, n) * occurrences.get(
            inst.label, 0
        )
    return costs


# ---------------------------------------------------------------------- join
@dataclass(frozen=True)
class PatternCost:
    """One row of the measured-vs-modeled table."""

    label: str
    kind: str
    kernel: str
    point: str
    per_step: int
    measured_s: float
    measured_share: float
    modeled_s: float
    modeled_share: float

    @property
    def drift_pp(self) -> float:
        """Measured minus modeled share, in percentage points."""
        return 100.0 * (self.measured_share - self.modeled_share)


def measured_vs_modeled(
    tracer: Tracer, mesh_counts, config=None, device=None, profile=None
) -> list[PatternCost]:
    """Join measured and modeled per-pattern costs on the Table I labels."""
    from ..patterns.catalog import build_catalog

    measured = measured_pattern_costs(tracer)
    modeled = modeled_pattern_costs(mesh_counts, config, device, profile)
    occurrences = occurrences_per_step(config)
    m_total = sum(measured.get(i.label, 0.0) for i in build_catalog(config)) or 1.0
    p_total = sum(modeled.values()) or 1.0
    rows = []
    for inst in build_catalog(config):
        m = measured.get(inst.label, 0.0)
        p = modeled.get(inst.label, 0.0)
        rows.append(
            PatternCost(
                label=inst.label,
                kind=inst.kind_letter,
                kernel=inst.kernel,
                point=inst.output_point.value,
                per_step=occurrences.get(inst.label, 0),
                measured_s=m,
                measured_share=m / m_total,
                modeled_s=p,
                modeled_share=p / p_total,
            )
        )
    rows.sort(key=lambda r: -r.measured_s)
    return rows


def render_cost_report(rows: list[PatternCost], title: str) -> str:
    """The per-pattern measured-vs-modeled table, render_table-formatted."""
    from ..bench.tables import fmt_time, render_table

    table_rows = [
        [
            r.label,
            r.kind,
            r.kernel,
            r.point,
            r.per_step,
            fmt_time(r.measured_s),
            f"{100 * r.measured_share:.1f}%",
            f"{100 * r.modeled_share:.1f}%",
            f"{r.drift_pp:+.1f}",
        ]
        for r in rows
    ]
    return render_table(
        title,
        ["pattern", "kind", "kernel", "point", "n/step",
         "measured", "meas %", "model %", "drift pp"],
        table_rows,
    )


# --------------------------------------------------------- per-backend costs
@dataclass(frozen=True)
class BackendCost:
    """One ``engine.op`` timer series: an operator under one backend."""

    pattern: str
    op: str
    backend: str
    calls: int
    total_s: float
    mean_s: float


def backend_cost_rows(registry: MetricsRegistry) -> list[BackendCost]:
    """Per-backend per-pattern dispatch costs from the ``engine.op`` timers.

    Every registry dispatch is timed into a series tagged
    ``(op, pattern, backend)`` (see :meth:`repro.engine.KernelRegistry.
    dispatch`), so one run — or several runs under different backends into
    the same registry — yields directly comparable rows.
    """
    rows = [
        BackendCost(
            pattern=str(s.tags.get("pattern", "-")),
            op=str(s.tags.get("op", "?")),
            backend=str(s.tags.get("backend", "?")),
            calls=s.count,
            total_s=s.total,
            mean_s=s.mean,
        )
        for s in registry.series("engine.op")
    ]
    rows.sort(key=lambda r: (-r.total_s, r.pattern, r.op, r.backend))
    return rows


def render_backend_cost_report(rows: list[BackendCost], title: str) -> str:
    """The per-backend per-pattern dispatch-cost table."""
    from ..bench.tables import fmt_time, render_table

    table_rows = [
        [r.pattern, r.op, r.backend, r.calls, fmt_time(r.total_s), fmt_time(r.mean_s)]
        for r in rows
    ]
    return render_table(
        title, ["pattern", "op", "backend", "calls", "total", "mean"], table_rows
    )


# --------------------------------------------------------- fault and recovery
def _series_rows(registry: MetricsRegistry, prefix: str) -> list[list[str]]:
    """``[name, tags, value]`` of every series under a metric namespace."""
    rows = []
    for s in registry.series():
        if not s.name.startswith(prefix):
            continue
        tags = ", ".join(f"{k}={v}" for k, v in sorted(s.tags.items())) or "-"
        if s.kind == "timer":
            shown = f"{s.count} calls, {s.total:.4f} s total"
        else:
            shown = f"{s.value:g}"
        rows.append([s.name, tags, shown])
    return rows


def resilience_rows(registry: MetricsRegistry) -> list[list[str]]:
    """Every recovery series: retries, respawns, checkpoints, watchdog
    violations and quarantined cache entries.

    Covers the ``resilience.*`` namespace written by the pool's respawns,
    the watchdog and rollback, the cache integrity layer
    (``resilience.cache.quarantined``, tagged by cache ``kind``) and the
    checkpoint path (``resilience.checkpoint.saved`` / ``.bytes`` /
    ``.write_s`` and ``resilience.durable.commit_s``), so one cost report
    shows how a run survived and what its restart files cost.
    """
    return _series_rows(registry, "resilience.")


def render_resilience_report(registry: MetricsRegistry, title: str) -> str:
    """The fault/recovery counter table."""
    from ..bench.tables import render_table

    return render_table(title, ["series", "tags", "value"], resilience_rows(registry))


# ------------------------------------------------------------ ensemble runs
def ensemble_rows(registry: MetricsRegistry) -> list[list[str]]:
    """Every ``ensemble.*`` metric series: width, survivors, per-member
    step counts and divergences (tagged ``member=k``), and the
    member-step timer."""
    return _series_rows(registry, "ensemble.")


def render_ensemble_report(result, registry: MetricsRegistry, title: str) -> str:
    """The per-member verdict table plus the ``ensemble.*`` metric series.

    ``result`` is an :class:`~repro.ensemble.run.EnsembleResult`; its
    member summary leads, the registry rows (including the per-member
    ``ensemble.member.steps`` counters) follow.
    """
    from ..bench.tables import render_table

    parts = [f"{title}", "", result.summary_table()]
    rows = ensemble_rows(registry)
    if rows:
        parts += ["", render_table("Ensemble metrics", ["series", "tags", "value"], rows)]
    return "\n".join(parts)


# ----------------------------------------------------------- halo exchanges
def halo_rows(tracer: Tracer) -> list[list[str]]:
    """Per-sync-point halo traffic from the ``halo``-category spans.

    The decomposed runners tag every exchange span with its Algorithm-1
    sync point (``pre@s1`` .. ``post@s4``), the variables moved, a bytes
    estimate and — in the pool, under either schedule — how much of the
    span was spent blocked (``wait_s``) versus usefully computing inside
    the overlap window (``overlap_s``).  A span without those tags (the
    lockstep exchange) counts its whole duration as wait.
    """
    from ..dataflow.schedule import SYNC_POINT_NAMES

    by_sync: dict[str, list] = {}
    for s in tracer.spans:
        if s.category != "halo" or s.end is None:
            continue
        key = str(s.tags.get("sync", "full"))
        row = by_sync.setdefault(key, [0, 0.0, 0.0, 0.0, 0.0, set()])
        row[0] += 1
        row[1] += s.duration
        row[2] += float(s.tags.get("wait_s", s.duration))
        row[3] += float(s.tags.get("overlap_s", 0.0))
        row[4] += float(s.tags.get("bytes_est", 0.0))
        row[5].update(str(s.tags.get("vars", "h,u")).split(","))
    order = {name: i for i, name in enumerate(SYNC_POINT_NAMES)}
    rows = []
    for sync in sorted(by_sync, key=lambda k: (order.get(k, len(order)), k)):
        count, wall, wait, overlap, nbytes, variables = by_sync[sync]
        rows.append([
            sync,
            ",".join(sorted(variables)),
            count,
            f"{nbytes / 1024.0:.1f} KiB",
            f"{wall * 1e3:.2f} ms",
            f"{wait * 1e3:.2f} ms",
            f"{overlap * 1e3:.2f} ms",
        ])
    return rows


def render_halo_report(tracer: Tracer, title: str) -> str:
    """The per-sync-point halo table (empty-safe)."""
    from ..bench.tables import render_table

    rows = halo_rows(tracer) or [["(no halo exchanges)", "-", 0, "-", "-", "-", "-"]]
    return render_table(
        title,
        ["sync", "vars", "exchanges", "bytes", "wall", "wait", "overlap"],
        rows,
    )


def pool_startup_line(tracer: Tracer, registry: MetricsRegistry) -> str | None:
    """What a pool run paid before its first step, on one line: the
    ``pool.spawn`` span with its children, then each worker's own
    ``pool.worker.ready_s`` and the ``pool.worker.local_mesh_s`` inside it.
    ``None`` when the run spawned no pool."""
    spawn = next((s for s in tracer.finished() if s.name == "pool.spawn"), None)
    if spawn is None:
        return None
    phases = ", ".join(
        f"{c.name} {c.duration * 1e3:.0f} ms" for c in tracer.children(spawn)
    )
    mesh_s = {
        s.tags.get("rank"): s.value for s in registry.series("pool.worker.local_mesh_s")
    }
    ready = ", ".join(
        f"rank {s.tags.get('rank')} {s.value * 1e3:.0f} ms (local mesh "
        f"{mesh_s[s.tags.get('rank')] * 1e3:.0f} ms)"
        for s in registry.series("pool.worker.ready_s")
    )
    return (
        f"Pool start-up: {spawn.duration * 1e3:.0f} ms ({phases}); "
        f"worker ready after {ready}"
    )


# ------------------------------------------------------------- kernel profile
def kernel_profile_rows(tracer: Tracer) -> list[list[str]]:
    """The classic per-kernel breakdown (kernel, wall time, share, spans).

    The span count separates the kernels of the step program (per stage,
    step and rank) from ``mpas_reconstruct``, which the run loop runs once
    per result it builds — once per run unless a callback reads it."""
    totals = tracer.aggregate_names(category="kernel")
    total = sum(totals.values()) or 1.0
    spans = [s.name for s in tracer.finished() if s.category == "kernel"]
    return [
        [kernel, f"{secs * 1e3:.2f} ms", f"{100 * secs / total:.1f}%",
         spans.count(kernel)]
        for kernel, secs in sorted(totals.items(), key=lambda kv: -kv[1])
    ]


def render_kernel_profile(tracer: Tracer, title: str) -> str:
    from ..bench.tables import render_table

    return render_table(
        title, ["kernel", "wall time", "share", "spans"], kernel_profile_rows(tracer)
    )


# ------------------------------------------------------------------ traced run
def _report_config(mesh, case: str, **overrides) -> SWConfig:
    """The report's default configuration of a scenario token: order-4
    thickness advection at the CFL-safe ``suggested_dt`` (``case`` resolves
    through :mod:`repro.swm.scenarios`, so every alias works)."""
    from ..swm import scenarios

    return scenarios.default_config(
        mesh, scenarios.resolve(case), thickness_adv_order=4, **overrides
    )


def run_traced(
    case: str = "galewsky",
    level: int = 3,
    steps: int = 10,
    config=None,
    warmup: bool = True,
    backend: str = "numpy",
    parallel: str = "serial",
    ranks: int = 1,
    halo_schedule: str = SWConfig.halo_schedule,
    run_dir=None,
) -> tuple[Tracer, MetricsRegistry, object, object]:
    """Integrate ``steps`` RK-4 steps through :func:`repro.api.run`, traced.

    Returns ``(tracer, registry, mesh, config)``.  A warm-up run of one
    step (untraced) pays the one-time per-mesh setup — reconstruction
    matrices, deriv_two coefficients — so the spans measure steady-state
    kernel cost.  ``backend``/``parallel``/``ranks``/``halo_schedule`` build
    the default config (ignored when an explicit ``config`` is given).

    Every executor goes through the same call: a decomposed run adds its
    per-exchange ``halo`` spans (:func:`halo_rows`) to the ``kernel`` spans
    its ranks share with the serial step (:func:`kernel_profile_rows`).
    ``run_dir`` makes the traced run durable (a fresh directory), so the
    registry also carries what its checkpoints cost
    (``resilience.checkpoint.*``, ``resilience.durable.*``).
    """
    from ..api import run as api_run
    from ..mesh import cached_mesh

    mesh = cached_mesh(level)
    if config is None:
        config = _report_config(
            mesh, case, backend=backend, parallel=parallel, ranks=ranks,
            halo_schedule=halo_schedule,
        )
    if warmup:
        api_run(case, mesh=mesh, config=config, steps=1)
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        # The token, not the object: a durable manifest records it.
        api_run(case, mesh=mesh, config=config, steps=steps, run_dir=run_dir)
    registry.counter("swm.steps", case=case, level=level).inc(steps)
    return tracer, registry, mesh, config


# ------------------------------------------------------------------------ CLI
def _overhead(case: str, level: int, steps: int) -> float:
    """Wall-time ratio of a traced over an untraced run (same steps)."""
    import time

    from ..api import run as api_run
    from ..mesh import cached_mesh

    mesh = cached_mesh(level)
    config = _report_config(mesh, case)

    def timed(traced: bool) -> float:
        t0 = time.perf_counter()
        with use_tracer(Tracer(enabled=traced)), use_registry(MetricsRegistry()):
            api_run(case, mesh=mesh, config=config, steps=steps)
        return time.perf_counter() - t0

    # Warm the process caches (mesh, reconstruction matrices, deriv-two
    # coefficients) so neither timed run pays one-time setup.
    timed(False)
    off = min(timed(False) for _ in range(3))
    on = min(timed(True) for _ in range(3))
    return on / off


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Trace a shallow-water run and report per-pattern costs.",
    )
    parser.add_argument("--case", default="galewsky",
                        help="scenario name, alias, Williamson number, or "
                             "perturbed:<base>:<member>:<seed> token "
                             "(catalogue: python -m repro cases)")
    parser.add_argument("--level", type=int, default=3,
                        help="icosahedral mesh level (default 3 = 642 cells)")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--chrome", type=Path, default=None,
                        help="write a chrome://tracing JSON here")
    parser.add_argument("--jsonl", type=Path, default=None,
                        help="write a JSON-lines export here")
    parser.add_argument("--kernels", action="store_true",
                        help="also print the per-kernel breakdown (always "
                             "printed for --parallel lockstep|pool)")
    parser.add_argument("--overhead", action="store_true",
                        help="measure tracing overhead (traced/untraced ratio)")
    parser.add_argument("--backend", default="numpy", choices=BACKENDS,
                        help="engine execution backend")
    parser.add_argument("--parallel", default="serial",
                        choices=("serial", "lockstep", "pool"),
                        help="executor; non-serial runs add the per-sync-"
                             "point halo table")
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--halo-schedule", default=SWConfig.halo_schedule,
                        choices=SWConfig.HALO_SCHEDULES,
                        help="halo schedule of the decomposed executors")
    parser.add_argument("--run-dir", type=Path, default=None,
                        help="trace a durable run into this fresh directory; "
                             "the fault/recovery table then shows what its "
                             "checkpoints cost")
    parser.add_argument("--compare-backends", action="store_true",
                        help="run under every backend and print the "
                             "per-backend per-pattern dispatch costs")
    parser.add_argument("--ensemble", type=int, default=0,
                        help="trace an ensemble of N members and "
                             "print the per-member summary table")
    args = parser.parse_args(argv)

    from ..mesh import cached_mesh

    # An unknown case or contradictory flags end here, whichever mode runs.
    try:
        config = _report_config(
            cached_mesh(args.level), args.case, backend=args.backend,
            parallel=args.parallel, ranks=args.ranks,
            halo_schedule=args.halo_schedule,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    if args.ensemble:
        from ..api import run_ensemble

        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            ens = run_ensemble(
                args.case, level=args.level, steps=args.steps,
                ensemble=args.ensemble, invariant_interval=1,
            )
        print(render_ensemble_report(
            ens, registry,
            f"Ensemble summary ({args.case}, {args.ensemble} members, "
            f"{args.steps} steps, level {args.level})",
        ))
        return 0

    if args.overhead:
        ratio = _overhead(args.case, args.level, args.steps)
        print(f"tracing overhead: {100 * (ratio - 1):+.1f}% "
              f"({args.steps} steps, level {args.level})")
        return 0

    if args.compare_backends:
        all_rows: list[BackendCost] = []
        for backend in BACKENDS:
            _, registry, mesh, _ = run_traced(
                args.case, args.level, args.steps, backend=backend
            )
            all_rows.extend(backend_cost_rows(registry))
        all_rows.sort(key=lambda r: (r.pattern, r.op, r.backend))
        print(render_backend_cost_report(
            all_rows,
            f"Per-backend per-pattern dispatch cost ({args.case}, "
            f"{mesh.nCells} cells, {args.steps} steps)",
        ))
        return 0

    tracer, registry, mesh, config = run_traced(
        args.case, args.level, args.steps, config=config, run_dir=args.run_dir,
    )
    rows = measured_vs_modeled(tracer, mesh, config)
    print(render_cost_report(
        rows,
        f"Measured vs modeled per-pattern cost ({args.case}, "
        f"{mesh.nCells} cells, {args.steps} steps)",
    ))
    print()
    print(render_backend_cost_report(
        backend_cost_rows(registry),
        f"Per-backend per-pattern dispatch cost (backend={args.backend})",
    ))
    if resilience_rows(registry):
        print()
        print(render_resilience_report(registry, "Fault and recovery counters"))
    if halo_rows(tracer):
        print()
        print(render_halo_report(
            tracer,
            f"Halo exchanges per sync point ({args.parallel}, "
            f"ranks={args.ranks}, schedule={args.halo_schedule})",
        ))
    if args.kernels or args.parallel != "serial":
        # Every executor runs the one step program, so decomposed runs carry
        # the same kernel spans (summed over ranks here, one row per kernel).
        print()
        startup = pool_startup_line(tracer, registry)
        if startup:
            print(startup)
        print(render_kernel_profile(
            tracer,
            f"Measured kernel cost breakdown ({mesh.nCells} cells, "
            f"{args.steps} steps, {args.parallel}, ranks={args.ranks})",
        ))
    if args.chrome is not None:
        n = write_chrome_trace(tracer, args.chrome, registry)
        validate_chrome_trace(args.chrome)
        print(f"wrote {n} trace events to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl is not None:
        n = write_jsonl(tracer, args.jsonl, registry)
        print(f"wrote {n} JSONL records to {args.jsonl}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
