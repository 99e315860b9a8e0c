"""Unit tests of the hybrid executor and schedulers (Figs. 2, 4b, 7)."""

from __future__ import annotations

import pytest

from repro.dataflow import build_step_graph
from repro.hybrid import (
    HybridExecutor,
    Placement,
    cpu_only_assignment,
    hybrid_step_time,
    kernel_level_assignment,
    model_step_times,
    node_times,
    pattern_level_assignment,
)
from repro.hybrid.schedule import balanced_fraction, static_split_assignment
from repro.hybrid.stepmodel import (
    LocalProblem,
    _cpu_parallel_model,
    _mic_model,
    _perf_config,
    decompose,
    serial_step_time,
)
from repro.machine import TransferModel
from repro.machine.counts import MeshCounts
from repro.machine.spec import PAPER_NODE


@pytest.fixture(scope="module")
def setup():
    dfg = build_step_graph(_perf_config())
    counts = MeshCounts(nCells=40962, name="120-km")
    times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
    transfer = TransferModel(PAPER_NODE.pcie_bw_gbs, PAPER_NODE.pcie_latency_us)
    executor = HybridExecutor(dfg, times, counts, transfer)
    return dfg, counts, times, executor


class TestPlacement:
    def test_valid_devices(self):
        Placement("cpu")
        Placement("mic")
        Placement("split", cpu_fraction=0.4)

    def test_invalid_device(self):
        with pytest.raises(ValueError):
            Placement("gpu")

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Placement("split", cpu_fraction=0.0)


class TestExecutor:
    def test_cpu_only_no_transfers(self, setup):
        dfg, _, _, executor = setup
        tl = executor.run(cpu_only_assignment(dfg))
        tl.validate_no_overlap()
        assert tl.transfer_time() == 0.0
        assert tl.busy("mic") == 0.0

    def test_cpu_only_equals_sum_of_times(self, setup):
        dfg, _, times, executor = setup
        tl = executor.run(cpu_only_assignment(dfg))
        assert tl.makespan == pytest.approx(
            sum(times[n]["cpu"] for n in dfg.compute_nodes()), rel=1e-9
        )

    def test_kernel_level_uses_both_devices(self, setup):
        dfg, _, times, executor = setup
        tl = executor.run(kernel_level_assignment(dfg, times))
        tl.validate_no_overlap()
        assert tl.busy("cpu") > 0.0
        assert tl.busy("mic") > 0.0
        assert tl.transfer_time() > 0.0  # kernels alternate devices

    def test_pattern_level_beats_kernel_level(self, setup):
        dfg, _, times, executor = setup
        t_kernel = executor.run(kernel_level_assignment(dfg, times)).makespan
        t_pattern = executor.run(
            pattern_level_assignment(dfg, times, min_split_gain=0.0)
        ).makespan
        assert t_pattern < t_kernel

    def test_schedules_beat_single_device(self, setup):
        dfg, _, times, executor = setup
        t_cpu = executor.run(cpu_only_assignment(dfg)).makespan
        t_pattern = executor.run(
            pattern_level_assignment(dfg, times, min_split_gain=0.0)
        ).makespan
        assert t_pattern < t_cpu

    def test_makespan_bounded_by_critical_path(self, setup):
        from repro.dataflow import critical_path

        dfg, _, times, executor = setup
        best_times = {n: min(times[n].values()) for n in dfg.compute_nodes()}
        lower, _ = critical_path(dfg, best_times)
        for assignment in (
            cpu_only_assignment(dfg),
            kernel_level_assignment(dfg, times),
            pattern_level_assignment(dfg, times, min_split_gain=0.0),
        ):
            tl = executor.run(assignment)
            assert tl.makespan >= 0.5 * lower  # splits may halve node times

    def test_dependencies_respected(self, setup):
        dfg, _, times, executor = setup
        tl = executor.run(kernel_level_assignment(dfg, times))
        tl.validate_dependencies(dfg)

    def test_split_runs_on_both(self, setup):
        dfg, _, times, executor = setup
        tl = executor.run(static_split_assignment(dfg, times, fraction=0.5))
        tl.validate_no_overlap()
        names = {t.name for t in tl.tasks if t.kind == "compute"}
        assert any("[cpu]" in n for n in names)
        assert any("[mic]" in n for n in names)

    def test_halo_forces_host_residency(self, setup):
        dfg, counts, times, _ = setup
        transfer = TransferModel(PAPER_NODE.pcie_bw_gbs, PAPER_NODE.pcie_latency_us)
        executor = HybridExecutor(dfg, times, counts, transfer, halo_time=1e-4)
        # Everything on MIC: provis fields must ship to the host for every
        # halo exchange and back.
        all_mic = {n: Placement("mic") for n in dfg.compute_nodes()}
        tl = executor.run(all_mic)
        assert tl.busy("net") == pytest.approx(1e-4 * len(dfg.halo_nodes()))
        assert tl.transfer_time() > 0.0

    def test_gantt_renders(self, setup):
        dfg, _, times, executor = setup
        tl = executor.run(kernel_level_assignment(dfg, times))
        text = tl.gantt()
        assert "cpu" in text and "makespan" in text


#: What the simulator schedules for one 120-km step under each assignment:
#: compute / halo / transfer task counts, makespan (s) and PCIe bytes.  The
#: Fig. 7 - 9 outputs are built from these timelines, so a change to any of
#: them is a change to the paper's figures.
PINNED_SCHEDULES = {
    "cpu_only": ((68, 8, 0), 0.06828033861799215, 0.0),
    "kernel": ((68, 8, 26), 0.05308941945681114, 16384224.0),
    "pattern": ((69, 8, 38), 0.04578928208928809, 25782774.571796715),
    "split": ((136, 8, 159), 0.034215597259884795, 20535752.246316433),
}


class TestPinnedSchedules:
    @staticmethod
    def _assignment(name, dfg, times):
        return {
            "cpu_only": lambda: cpu_only_assignment(dfg),
            "kernel": lambda: kernel_level_assignment(dfg, times),
            "pattern": lambda: pattern_level_assignment(dfg, times),
            "split": lambda: static_split_assignment(dfg, times, fraction=0.5),
        }[name]()

    @pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
    def test_the_schedule_is_the_pinned_one(self, setup, name):
        """The timeline is valid and carries exactly the pinned tasks: each
        transfer is one ``xfer:<var>-><device>`` move, none is repeated or
        rescheduled beyond what the data flow asks for."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        dfg, _, times, executor = setup
        registry = MetricsRegistry()
        with use_registry(registry):
            tl = executor.run(self._assignment(name, dfg, times))
        tl.validate_no_overlap()
        tl.validate_dependencies(dfg)
        kinds = [t.kind for t in tl.tasks]
        counts = tuple(kinds.count(k) for k in ("compute", "halo", "transfer"))
        (want_counts, want_makespan, want_bytes) = PINNED_SCHEDULES[name]
        assert counts == want_counts and len(kinds) == sum(counts)
        assert tl.makespan == pytest.approx(want_makespan, rel=1e-12)
        pcie = sum(s.value for s in registry.series("hybrid.pcie.bytes"))
        assert pcie == pytest.approx(want_bytes, rel=1e-12)
        transfers = [t.name for t in tl.tasks if t.kind == "transfer"]
        assert all(n.startswith("xfer:") for n in transfers)


class TestSchedulers:
    def test_balanced_fraction_range(self, setup):
        dfg, _, times, _ = setup
        f = balanced_fraction(dfg, times)
        assert 0.05 <= f <= 0.95

    def test_static_split_assignment_uniform(self, setup):
        dfg, _, times, _ = setup
        asg = static_split_assignment(dfg, times)
        fractions = {p.cpu_fraction for p in asg.values()}
        assert len(fractions) == 1
        assert all(p.device == "split" for p in asg.values())

    def test_kernel_level_fig2_placement(self, setup):
        dfg, _, _, _ = setup
        asg = kernel_level_assignment(dfg)
        for node, placement in asg.items():
            kernel = dfg.instance(node).kernel
            expected = (
                "mic"
                if kernel in ("compute_tend", "compute_solve_diagnostics")
                else "cpu"
            )
            assert placement.device == expected

    def test_greedy_kernel_level_runs(self, setup):
        dfg, _, times, executor = setup
        asg = kernel_level_assignment(dfg, times, greedy=True)
        tl = executor.run(asg)
        tl.validate_no_overlap()

    def test_greedy_requires_times(self, setup):
        dfg, _, _, _ = setup
        with pytest.raises(ValueError):
            kernel_level_assignment(dfg, greedy=True)

    def test_only_splittable_split(self, setup):
        dfg, _, times, _ = setup
        asg = pattern_level_assignment(dfg, times, min_split_gain=0.0)
        for node, placement in asg.items():
            if placement.device == "split":
                assert dfg.instance(node).splittable


class TestStepModel:
    def test_figure7_shape(self):
        st = model_step_times(MeshCounts(nCells=655362, name="30-km"))
        assert st.pattern_speedup > st.kernel_speedup > 4.0
        assert st.pattern_speedup < 11.0

    def test_modes(self):
        counts = MeshCounts(nCells=40962)
        t_cpu = hybrid_step_time(counts, mode="cpu")
        t_kernel = hybrid_step_time(counts, mode="kernel")
        t_pattern = hybrid_step_time(counts, mode="pattern")
        t_split_all = hybrid_step_time(counts, mode="split-all")
        assert t_pattern < t_kernel < t_cpu
        assert t_split_all < t_kernel

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            hybrid_step_time(MeshCounts(nCells=1000), mode="magic")

    def test_serial_slower_than_hybrid(self):
        counts = MeshCounts(nCells=40962)
        assert serial_step_time(counts) > hybrid_step_time(counts)

    def test_decompose_halo(self):
        local = decompose(40962, 4)
        assert local.owned_cells == 10241
        assert local.halo_cells > 0
        assert local.nCells == local.owned_cells + local.halo_cells

    def test_decompose_single_process_closed(self):
        local = decompose(40962, 1)
        assert local.halo_cells == 0
        assert local.nEdges == 3 * 40962 - 6

    def test_local_problem_counts(self):
        lp = LocalProblem(owned_cells=100, halo_cells=20)
        assert lp.nCells == 120
        assert lp.nEdges == 360
