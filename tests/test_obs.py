"""Tests of the observability layer: tracer, metrics, exporters, report.

The round-trip tests exercise the real instrumentation: a traced 2-step
shallow-water run on the session mesh, exported through both formats and
read back with span nesting and tag integrity intact.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    get_tracer,
    pattern_span,
    use_registry,
    use_tracer,
)
from repro.obs.export import (
    chrome_trace_events,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import (
    kernel_profile_rows,
    measured_pattern_costs,
    measured_vs_modeled,
    occurrences_per_step,
    pattern_self_times,
    render_cost_report,
)
from repro.swm import SWConfig, isolated_mountain, suggested_dt
from repro.swm.testcases import initialize
from repro.swm.timestep import RK4Integrator


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def traced_run(mesh3):
    """A 2-step traced TC5 integration: (tracer, registry, mesh, config)."""
    case = isolated_mountain()
    config = SWConfig(
        dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5), thickness_adv_order=4
    )
    state, b_cell = initialize(mesh3, case)
    f_vertex = config.coriolis(mesh3.metrics.latVertex)
    integ = RK4Integrator(mesh3, config, b_cell, f_vertex)
    diag = integ.diagnostics_for(state)
    integ.step(state, diag)  # warm-up pays one-time per-mesh setup

    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        for _ in range(2):
            result = integ.step(state, diag)
            state, diag = result.state, result.diagnostics
    registry.counter("swm.steps", case="tc5").inc(2)
    assert np.all(np.isfinite(state.h))
    return tracer, registry, mesh3, config


# --------------------------------------------------------------------- tracer
class TestTracer:
    def test_nesting(self):
        tr = Tracer()
        with tr.span("outer", category="kernel"):
            with tr.span("inner", category="pattern", pattern="A1"):
                pass
            with tr.span("inner2", category="pattern", pattern="B1"):
                pass
        names = [s.name for s in tr.spans]
        assert names == ["outer", "inner", "inner2"]
        outer, inner, inner2 = tr.spans
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1
        assert inner2.parent == outer.index and inner2.depth == 1
        assert outer.start <= inner.start <= inner.end <= inner2.end <= outer.end
        assert tr.children(outer) == [inner, inner2]

    def test_disabled_is_noop(self):
        tr = Tracer(enabled=False)
        cm = tr.span("x")
        assert cm is NULL_SPAN
        with cm:
            pass
        assert len(tr) == 0

    def test_global_default_disabled(self):
        assert not get_tracer().enabled
        assert pattern_span("A1") is NULL_SPAN

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        assert all(s.end is not None for s in tr.spans)
        with tr.span("after"):
            pass
        assert tr.spans[-1].depth == 0

    def test_add_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.add_span("bad", start=1.0, end=0.5)

    def test_aggregate(self):
        tr = Tracer()
        tr.add_span("a", 0.0, 1.0, category="sim", resource="cpu")
        tr.add_span("b", 1.0, 3.0, category="sim", resource="cpu")
        tr.add_span("c", 0.0, 5.0, category="sim", resource="mic")
        agg = tr.aggregate("resource", category="sim")
        assert agg == {"cpu": pytest.approx(3.0), "mic": pytest.approx(5.0)}


# -------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_gauge_timer(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc(2.0)
        reg.counter("c", k="v").inc()
        assert reg.counter("c", k="v").value == 3.0
        reg.gauge("g").set(0.25)
        assert reg.gauge("g").value == 0.25
        t = reg.timer("t")
        t.observe(1.0)
        t.observe(3.0)
        assert t.count == 2 and t.mean == 2.0 and t.min == 1.0 and t.max == 3.0

    def test_tags_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("halo.bytes", ranks=2).inc(10)
        reg.counter("halo.bytes", ranks=4).inc(20)
        assert reg.counter("halo.bytes", ranks=2).value == 10
        assert len(reg.series("halo.bytes")) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a", side="up").inc(5)
        reg.timer("b").observe(0.5)
        snap = reg.snapshot()
        assert {r["metric"] for r in snap} == {"a", "b"}
        by_name = {r["metric"]: r for r in snap}
        assert by_name["a"]["kind"] == "counter"
        assert by_name["a"]["tags"] == {"side": "up"}
        assert by_name["b"]["count"] == 1


    def test_get_or_create_is_one_series_across_threads(
        self, monkeypatch, on_threads
    ):
        """Threads touching a new series at once all update the same object
        (the ensemble's member blocks time into one registry)."""
        import threading
        import time

        from repro.obs.metrics import Counter

        real_init = Counter.__init__

        def slow_init(self, name, tags):
            time.sleep(0.002)  # hold the creation window open
            real_init(self, name, tags)

        monkeypatch.setattr(Counter, "__init__", slow_init)
        reg = MetricsRegistry()
        n_threads, n_series = 8, 5
        meet = threading.Barrier(n_threads)

        def work(_):
            for i in range(n_series):
                meet.wait(timeout=30)  # every thread meets at each new series
                reg.counter("touched", i=i).inc()

        _, errors = on_threads(work, n_threads)
        assert errors == []
        series = reg.series("touched")
        assert len(series) == n_series
        assert [s.value for s in series] == [float(n_threads)] * n_series


# ---------------------------------------------------------- traced run content
class TestInstrumentation:
    def test_kernel_spans_cover_algorithm1(self, traced_run):
        tracer, _, _, _ = traced_run
        kernels = tracer.aggregate_names(category="kernel")
        assert set(kernels) == {
            "compute_tend",
            "enforce_boundary_edge",
            "compute_next_substep_state",
            "compute_solve_diagnostics",
            "accumulative_update",
            "mpas_reconstruct",
        }

    def test_pattern_spans_nest_inside_kernels(self, traced_run):
        tracer, _, _, _ = traced_run
        by_index = {s.index: s for s in tracer.spans}
        patterns = [s for s in tracer.finished() if s.category == "pattern"]
        assert patterns
        for s in patterns:
            ancestor = s
            while ancestor.parent is not None:
                ancestor = by_index[ancestor.parent]
            assert ancestor.category == "kernel"
            assert s.start >= ancestor.start - 1e-9
            assert s.end <= ancestor.end + 1e-9

    def test_pattern_tags(self, traced_run):
        tracer, _, mesh, _ = traced_run
        spans = [s for s in tracer.finished() if s.tags.get("pattern") == "A1"]
        assert spans
        for s in spans:
            assert s.tags["kind"] == "A"
            assert s.tags["kernel"] == "compute_tend"
            assert s.tags["point"] == "cell"
            assert s.tags["n_points"] == mesh.nCells
            # A1 moves 20 doubles + 6 ints per cell (Table I catalog).
            assert s.tags["bytes_est"] == pytest.approx(
                (8.0 * 20 + 4.0 * 6) * mesh.nCells
            )

    def test_every_catalog_pattern_measured(self, traced_run):
        from repro.patterns.catalog import build_catalog

        tracer, _, _, config = traced_run
        measured = measured_pattern_costs(tracer)
        for inst in build_catalog(config):
            assert measured.get(inst.label, 0.0) > 0.0, inst.label

    def test_fused_c_sweep_split(self, traced_run):
        tracer, _, _, _ = traced_run
        measured = measured_pattern_costs(tracer)
        # C1/C2 come from one fused sweep, split evenly (equal byte counts).
        assert measured["C1"] == pytest.approx(measured["C2"])

    def test_self_time_subtracts_children(self, traced_run):
        tracer, _, _, _ = traced_run
        measured = measured_pattern_costs(tracer)
        d1_spans = [s for s in tracer.finished() if s.tags.get("pattern") == "D1"]
        d1_total = sum(s.duration for s in d1_spans)
        # D1's self time excludes the nested C1,C2 sweep.
        assert measured["D1"] < d1_total
        assert measured["D1"] + measured["C1"] + measured["C2"] == pytest.approx(
            d1_total, rel=1e-6
        )


# ------------------------------------------------------------------ exporters
class TestExporters:
    def test_jsonl_roundtrip(self, traced_run):
        tracer, registry, _, _ = traced_run
        buf = io.StringIO()
        n = write_jsonl(tracer, buf, registry)
        assert n == len(tracer.finished()) + len(registry.snapshot())
        buf.seek(0)
        spans, metrics = read_jsonl(buf)
        assert len(spans) == len(tracer.finished())
        for original, restored in zip(tracer.finished(), spans):
            assert restored.name == original.name
            assert restored.parent == original.parent
            assert restored.depth == original.depth
            assert restored.tags == {
                k: v for k, v in original.tags.items()
            }
        # Aggregations computed from the round-tripped spans are identical.
        assert pattern_self_times(spans) == pattern_self_times(tracer.spans)
        assert len(metrics) == len(registry.snapshot())

    def test_chrome_trace_valid(self, traced_run, tmp_path):
        tracer, registry, _, _ = traced_run
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tracer, path, registry)
        assert validate_chrome_trace(path) == n
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tracer.finished())
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        # Tags ride along in args.
        a1 = [e for e in xs if e["args"].get("pattern") == "A1"]
        assert a1 and a1[0]["cat"] == "pattern"

    def test_chrome_validation_rejects_overlap(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 0, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 0, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="overlap"):
            validate_chrome_trace(doc)

    def test_chrome_validation_rejects_negative_dur(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": -1.0, "pid": 0, "tid": 0}
            ]
        }
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(doc)

    def test_chrome_counter_events(self, traced_run):
        tracer, registry, _, _ = traced_run
        events = chrome_trace_events(tracer, registry)
        assert any(e["ph"] == "C" for e in events)


# --------------------------------------------------------------------- report
class TestReport:
    def test_measured_vs_modeled(self, traced_run):
        tracer, _, mesh, config = traced_run
        rows = measured_vs_modeled(tracer, mesh, config)
        assert rows[0].measured_s == max(r.measured_s for r in rows)
        assert sum(r.measured_share for r in rows) == pytest.approx(1.0)
        assert sum(r.modeled_share for r in rows) == pytest.approx(1.0)
        assert all(math.isfinite(r.drift_pp) for r in rows)
        # B1 is the most expensive instance in both views.
        b1 = next(r for r in rows if r.label == "B1")
        assert b1.modeled_share == max(r.modeled_share for r in rows)
        text = render_cost_report(rows, "test")
        assert "drift pp" in text and "B1" in text

    def test_occurrences_per_step(self):
        occ = occurrences_per_step(None)
        # Algorithm 1: 4 RK stages; 3 provisional states; 1 reconstruction.
        assert occ["A1"] == 4 and occ["B1"] == 4
        assert occ["X2"] == 3 and occ["X3"] == 3
        assert occ["A4"] == 1 and occ["X6"] == 1

    def test_kernel_profile_rows(self, traced_run):
        tracer, _, _, _ = traced_run
        rows = kernel_profile_rows(tracer)
        assert rows[0][0] in ("compute_tend", "compute_solve_diagnostics")
        shares = [float(r[2].rstrip("%")) for r in rows]
        assert sum(shares) == pytest.approx(100.0, abs=0.5)

    def test_durable_traced_run_reports_checkpoint_cost(self, tmp_path):
        """A durable run says what its restart files cost: the counters and
        the two timers are in the registry and the fault/recovery table
        renders timers (it used to assume every series has a ``value``)."""
        from repro.obs.report import render_resilience_report, run_traced

        _, registry, _, _ = run_traced(
            "tc5", level=2, steps=2, run_dir=tmp_path / "run"
        )
        on_disk = sum(
            p.stat().st_size for p in (tmp_path / "run").rglob("auto-*.npz")
        )
        (nbytes,) = registry.series("resilience.checkpoint.bytes")
        assert nbytes.value == on_disk > 0
        text = render_resilience_report(registry, "costs")
        for name in ("checkpoint.saved", "checkpoint.bytes"):
            assert f"resilience.{name}" in text
        for name in ("checkpoint.write_s", "durable.commit_s"):
            (row,) = [ln for ln in text.splitlines() if f"resilience.{name}" in ln]
            assert "3 calls" in row


# ------------------------------------------------------------- executor + tune
class TestSimulatedSpans:
    @pytest.fixture(scope="class")
    def hybrid_setup(self):
        from repro.dataflow import build_step_graph
        from repro.hybrid import HybridExecutor, node_times
        from repro.hybrid.stepmodel import _cpu_parallel_model, _mic_model, _perf_config
        from repro.machine import TransferModel
        from repro.machine.counts import MeshCounts
        from repro.machine.spec import PAPER_NODE

        dfg = build_step_graph(_perf_config())
        counts = MeshCounts(nCells=40962)
        times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
        transfer = TransferModel(PAPER_NODE.pcie_bw_gbs, PAPER_NODE.pcie_latency_us)
        return dfg, counts, times, transfer

    def test_executor_emits_sim_spans(self, hybrid_setup):
        from repro.hybrid import HybridExecutor, pattern_level_assignment

        dfg, counts, times, transfer = hybrid_setup
        tracer = Tracer()
        registry = MetricsRegistry()
        ex = HybridExecutor(
            dfg, times, counts, transfer, tracer=tracer, registry=registry
        )
        assignment = pattern_level_assignment(dfg, times, min_split_gain=0.0)
        tl = ex.run(assignment)
        sim = [s for s in tracer.finished() if s.category == "sim"]
        assert len(sim) == len(tl.tasks)
        compute = [s for s in sim if s.tags["task"] == "compute"]
        assert compute and all("pattern" in s.tags for s in compute)
        resources = {s.tags["resource"] for s in sim}
        assert "cpu" in resources and "mic" in resources
        # Split placements are exported as gauges.
        n_split = sum(1 for p in assignment.values() if p.device == "split")
        assert n_split > 0
        gauges = registry.series("hybrid.split.cpu_fraction")
        assert len(gauges) == n_split
        assert all(0.0 < g.value < 1.0 for g in gauges)
        assert registry.counter("hybrid.pcie.bytes", channel="pcie_up").value > 0

    def test_sim_spans_make_valid_chrome_trace(self, hybrid_setup, tmp_path):
        from repro.hybrid import HybridExecutor, kernel_level_assignment

        dfg, counts, times, transfer = hybrid_setup
        tracer = Tracer()
        ex = HybridExecutor(dfg, times, counts, transfer, tracer=tracer)
        ex.run(kernel_level_assignment(dfg))
        ex.run(kernel_level_assignment(dfg))  # second run offsets, no overlap
        path = tmp_path / "sim.json"
        write_chrome_trace(tracer, path)
        validate_chrome_trace(path)

    def test_autotune_records_trajectory(self, hybrid_setup):
        from repro.hybrid import HybridExecutor, tune_split_fraction

        dfg, counts, times, transfer = hybrid_setup
        registry = MetricsRegistry()
        with use_registry(registry):
            ex = HybridExecutor(dfg, times, counts, transfer)
            result = tune_split_fraction(dfg, times, ex)
        trials = registry.series("hybrid.autotune.makespan")
        assert len(trials) == result.evaluations
        assert registry.counter("hybrid.autotune.evaluations").value == (
            result.evaluations
        )
        assert registry.gauge("hybrid.autotune.best_fraction").value == (
            pytest.approx(result.fraction)
        )
        # The trajectory in the registry replays the TuneResult history.
        recorded = {
            (float(g.tags["fraction"]), g.value) for g in trials
        }
        expected = {(round(f, 4), m) for f, m in result.history}
        assert recorded == expected


class TestHaloCounters:
    def test_decomposed_run_counts_halo_traffic(self, mesh3):
        from repro.parallel.runner import DecomposedShallowWater

        registry = MetricsRegistry()
        tracer = Tracer()
        case = isolated_mountain()
        config = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5))
        with use_registry(registry), use_tracer(tracer):
            dec = DecomposedShallowWater(mesh3, 2, case, config)
            dec.run(1)
        exchanges = registry.counter("halo.exchanges", ranks=2).value
        assert exchanges == dec.exchange_count == 4  # 1 per RK stage
        per_exchange = registry.gauge("halo.bytes_per_exchange", ranks=2).value
        assert per_exchange > 0
        assert registry.counter("halo.bytes", ranks=2).value == pytest.approx(
            exchanges * per_exchange
        )
        halo_spans = [s for s in tracer.finished() if s.category == "halo"]
        assert len(halo_spans) == 4
        assert all(s.tags["bytes_est"] == per_exchange for s in halo_spans)


class TestDecomposedKernelSpans:
    """One step program, one run loop: every executor emits the serial
    run's per-kernel spans, per rank — and ``mpas_reconstruct`` once per
    run, on the gathered state, when the ``RunResult`` is built."""

    STEPS = 2
    RANKS = 2

    def _kernel_spans(self, mesh, **config):
        from repro.api import run

        case = isolated_mountain()
        cfg = SWConfig(dt=suggested_dt(mesh, case, GRAVITY, cfl=0.5), **config)
        with use_registry(MetricsRegistry()), use_tracer(Tracer()) as tracer:
            run(case, mesh=mesh, config=cfg, steps=self.STEPS)
        return [s for s in tracer.finished() if s.category == "kernel"]

    @pytest.mark.parametrize(
        "parallel,halo_schedule,engine",
        [
            ("lockstep", "static", {}),
            ("lockstep", "dataflow", {}),
            ("pool", "static", {}),
            ("pool", "dataflow", {}),
            ("pool", "static", {"backend": "sparse", "plan": True}),
            ("pool", "dataflow", {"backend": "sparse", "plan": True}),
        ],
        ids=[
            "lockstep-static", "lockstep-dataflow", "pool-static",
            "pool-dataflow", "pool-static-plan", "pool-dataflow-plan",
        ],
    )
    def test_each_rank_emits_the_serial_kernel_spans(
        self, mesh3, parallel, halo_schedule, engine
    ):
        from collections import Counter

        expected = Counter(s.name for s in self._kernel_spans(mesh3, **engine))
        assert expected.pop("mpas_reconstruct") == 1
        assert sum(expected.values()) == 19 * self.STEPS

        spans = self._kernel_spans(
            mesh3, parallel=parallel, ranks=self.RANKS,
            halo_schedule=halo_schedule, **engine,
        )
        (reconstruct,) = [s for s in spans if s.name == "mpas_reconstruct"]
        assert "rank" not in reconstruct.tags  # the driver's, not a rank's
        spans.remove(reconstruct)
        if parallel == "pool":  # merged from the workers, tagged rank=r
            per_rank = [
                Counter(s.name for s in spans if s.tags.get("rank") == r)
                for r in range(self.RANKS)
            ]
        else:  # one process sweeps the ranks phase by phase
            total = Counter(s.name for s in spans)
            assert all(n % self.RANKS == 0 for n in total.values())
            per_rank = [
                Counter({k: n // self.RANKS for k, n in total.items()})
            ] * self.RANKS
        for got in per_rank:
            assert got == expected


# ------------------------------------------------------------------ CLI smoke
class TestCLI:
    def test_selftest_smoke(self, capsys):
        from repro.obs.report import main

        assert main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "obs selftest OK" in out
        assert "measured vs modeled" in out

    def test_pool_report_leads_its_kernel_table_with_the_startup_line(self, capsys):
        from repro.obs.report import main

        assert main(
            ["--case", "tc2", "--level", "2", "--steps", "2", "--parallel", "pool",
             "--ranks", "2"]
        ) == 0
        out = capsys.readouterr().out
        startup = out.index("Pool start-up: ")
        assert startup < out.index("Measured kernel cost breakdown")
        line = out[startup:].splitlines()[0]
        for part in ("partition", "local_mesh", "fork", "ready", "rank 0", "rank 1"):
            assert part in line
        # one row per sync point the default (dataflow) schedule keeps
        assert "post@s1" in out and "post@s4" in out and "pre@s1" not in out
