"""Unit tests of the data-flow diagram construction and analysis."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dataflow import (
    build_stage_graph,
    build_step_graph,
    concurrency_profile,
    critical_path,
    independent_sets,
    stage_kernels,
    topological_levels,
    total_work,
)
from repro.dataflow.graph import DataFlowGraph
from repro.patterns import build_catalog
from repro.swm import SWConfig


def _cfg():
    return SWConfig(dt=1.0, thickness_adv_order=4)


class TestStageKernels:
    def test_early_stages(self):
        for s in (1, 2, 3):
            ks = stage_kernels(s)
            assert "compute_next_substep_state" in ks
            assert "mpas_reconstruct" not in ks

    def test_final_stage(self):
        ks = stage_kernels(4)
        assert "mpas_reconstruct" in ks
        assert "compute_next_substep_state" not in ks
        # Algorithm 1: accumulate before the final diagnostics.
        assert ks.index("accumulative_update") < ks.index("compute_solve_diagnostics")

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            stage_kernels(0)


class TestStageGraph:
    def test_acyclic(self):
        g = build_stage_graph(_cfg(), stage=1)
        order = g.topological_sort()
        assert sorted(order) == sorted(g.nodes)
        position = {n: i for i, n in enumerate(order)}
        assert all(position[a] < position[b] for a, b, _ in g.edges())

    def test_all_catalog_instances_present(self):
        g = build_stage_graph(_cfg(), stage=2)
        labels = {n.split(":")[1] for n in g.compute_nodes()}
        expected = {
            i.label
            for i in build_catalog(_cfg())
            if i.kernel != "mpas_reconstruct"
        }
        assert labels == expected

    def test_halo_nodes_present(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=True)
        assert len(g.halo_nodes()) == 2

    def test_halo_optional(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=False)
        assert g.halo_nodes() == []

    def test_to_dot_deterministic(self):
        # The committed benchmark artifact (fig4_stage1.dot) must be stable
        # across runs: emission sorts clusters, nodes and edges.
        dots = {build_stage_graph(_cfg(), stage=1).to_dot() for _ in range(3)}
        assert len(dots) == 1
        dot = dots.pop()
        committed = Path(__file__).parent.parent / "benchmarks/results/fig4_stage1.dot"
        assert dot == committed.read_text()
        body = [ln for ln in dot.splitlines() if " -> " in ln]
        assert body == sorted(body)

    def test_b1_depends_on_diag_sources(self):
        g = build_stage_graph(_cfg(), stage=1)
        # Stage 1 reads last step's diagnostics through the sources/halo.
        assert "pv_edge" in g.pred["s1:B1"].values()

    def test_accumulate_independent_of_diagnostics(self):
        g = build_stage_graph(_cfg(), stage=1)
        assert independent_sets(g, ["s1:X4", "s1:G1"])
        assert independent_sets(g, ["s1:X5", "s1:E1"])

    def test_dependent_pair_detected(self):
        g = build_stage_graph(_cfg(), stage=1)
        assert not independent_sets(g, ["s1:H1", "s1:E1"])  # vorticity -> pv


class TestStepGraph:
    def test_chained_stages(self):
        g = build_step_graph(_cfg())
        assert len(g.compute_nodes()) == 68
        # Stage 2's tend must depend on stage 1's provisional state.
        assert "s2:A1" in g.descendants("s1:X2")
        assert "s2:B1" in g.descendants("s1:X3")

    def test_stage4_reads_accumulator(self):
        g = build_step_graph(_cfg())
        # Final diagnostics read h_acc/u_acc produced by s4 accumulation.
        assert "s4:G1" in g.descendants("s4:X4")
        assert "s4:X5" in g.ancestors("s4:A4")

    def test_accumulator_not_aliased_to_state(self):
        g = build_step_graph(_cfg())
        # Stage 2's next-substep state reads the *original* h, not stage 1's
        # accumulator: no path from s1:X4 into s2:X2.
        assert "s2:X2" not in g.descendants("s1:X4")
        assert "s1:X4" not in g.ancestors("s2:X2")

    def test_duplicate_occurrence_rejected(self):
        g = DataFlowGraph()
        inst = build_catalog(_cfg())[0]
        g.add_instance("x", inst)
        with pytest.raises(ValueError):
            g.add_instance("x", inst)


class TestAnalysis:
    def test_levels_start_at_zero(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=False)
        levels = topological_levels(g)
        compute_levels = [levels[n] for n in g.compute_nodes()]
        assert min(compute_levels) == 0

    def test_profile_partitions_nodes(self):
        g = build_step_graph(_cfg())
        prof = concurrency_profile(g)
        assert sum(len(v) for v in prof.values()) == len(g.compute_nodes())

    def test_critical_path_unit_costs(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=False)
        length, path = critical_path(g)
        assert length == len(path)
        # The pv chain is the deepest: ... H1 -> E1 -> F1 -> G1.
        tail = [p.split(":")[1] for p in path[-3:]]
        assert tail == ["E1", "F1", "G1"]

    def test_critical_path_weighted(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=False)
        heavy = {n: (1000.0 if n.endswith("B1") else 1.0) for n in g.compute_nodes()}
        length, path = critical_path(g, heavy)
        assert any(p.endswith("B1") for p in path)
        assert length > 1000.0

    def test_total_work(self):
        g = build_stage_graph(_cfg(), stage=1, with_halo=False)
        cost = {n: 2.0 for n in g.compute_nodes()}
        assert total_work(g, cost) == 2.0 * len(g.compute_nodes())

    def test_cycle_detection(self):
        g = DataFlowGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.validate()


# ------------------------------------------------ graph store vs networkx
def _golden_matrix_configs(mesh):
    """Every config the golden matrix runs, plus the catalog shapes it does
    not reach (orders 2 and 3, viscosity, APVM off)."""
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    try:
        from test_golden import BACKENDS, CASES, MODES, _config, skip_reason
    finally:
        sys.path.pop(0)
    configs = [
        _config(case, mesh, backend, **MODES[mode])
        for case in CASES
        for backend in BACKENDS
        for mode in MODES
        if skip_reason(case, backend, mode) is None
    ]
    return configs + [
        SWConfig(dt=1.0),
        SWConfig(dt=1.0, thickness_adv_order=3),
        SWConfig(dt=1.0, viscosity=1e5, apvm_upwinding=0.0),
    ]


@pytest.fixture()
def mirrored(monkeypatch):
    """Every graph the builders make also replays its node and edge calls
    into a ``networkx.DiGraph`` (``g.nx``): networkx is the reference the
    graph store must agree with."""
    nx = pytest.importorskip("networkx")
    import repro.dataflow.build as build

    class Mirrored(DataFlowGraph):
        def __init__(self):
            super().__init__()
            self.nx = nx.DiGraph()

        def _add_node(self, node, **attrs):
            super()._add_node(node, **attrs)
            self.nx.add_node(node, **attrs)

        def add_edge(self, a, b, variable=None):
            super().add_edge(a, b, variable)
            self.nx.add_edge(a, b, variable=variable)

    monkeypatch.setattr(build, "DataFlowGraph", Mirrored)
    return nx


class TestGraphStoreMatchesNetworkx:
    def test_every_golden_config(self, mesh3, mirrored):
        nx = mirrored
        shapes = set()
        for config in _golden_matrix_configs(mesh3):
            for g in (
                build_stage_graph(config, stage=1),
                build_stage_graph(config, stage=4),
                build_step_graph(config),
            ):
                G = g.nx
                assert list(g.nodes) == list(G.nodes)
                assert g.edges() == [
                    (a, b, d["variable"]) for a, b, d in G.edges(data=True)
                ]
                assert g.topological_sort() == list(nx.topological_sort(G))
                for n in g.nodes:
                    assert g.ancestors(n) == nx.ancestors(G, n)
                    assert g.descendants(n) == nx.descendants(G, n)
                shapes.add(len(g.nodes))
        assert len(shapes) > 3  # the configs reach distinct diagrams

    def test_generations_in_insertion_order(self):
        """Whole generations first, each in insertion order — not depth
        first and not by name."""
        nx = pytest.importorskip("networkx")
        g, G = DataFlowGraph(), nx.DiGraph()
        for a, b in [("z", "b"), ("a", "b"), ("z", "c"), ("m", "c"), ("b", "d")]:
            g.add_edge(a, b)
            G.add_edge(a, b)
        assert g.topological_sort() == list(nx.topological_sort(G))
        assert g.topological_sort() == ["z", "a", "m", "b", "c", "d"]
