"""Figure 4: the data-flow diagram of the whole model.

Regenerates the diagram from the pattern catalog, reports its dependency
structure (levels, concurrency widths, critical path — the information the
red numbers in Figure 4 convey) and benchmarks graph construction +
analysis.
"""

from __future__ import annotations

from repro.bench import render_table
from repro.dataflow import (
    build_stage_graph,
    build_step_graph,
    concurrency_profile,
    critical_path,
    topological_levels,
)
from repro.swm import SWConfig


def _build_and_analyze():
    dfg = build_step_graph(SWConfig(dt=1.0, thickness_adv_order=4))
    prof = concurrency_profile(dfg)
    length, path = critical_path(dfg)
    return dfg, prof, length, path


def test_fig4_dataflow(benchmark, report):
    dfg, prof, length, path = benchmark(_build_and_analyze)

    dfg.validate()  # acyclic: raises ValueError on a cycle
    # 4 substages x (17 stencil/local instances, reconstruct only in the
    # 4th, next-substep only in the first three).
    stage1 = build_stage_graph(SWConfig(dt=1.0, thickness_adv_order=4), stage=1)
    stage4 = build_stage_graph(SWConfig(dt=1.0, thickness_adv_order=4), stage=4)
    assert len(stage4.compute_nodes()) == len(stage1.compute_nodes())  # +recon -substep
    assert len(dfg.compute_nodes()) == 68

    # The concurrency the hybrid design exploits: several levels offer >= 2
    # independent patterns (e.g. accumulative_update runs against
    # compute_solve_diagnostics, A2/A3/B2/C1/C2/H1 run together).
    widths = {lvl: len(nodes) for lvl, nodes in prof.items()}
    max_width = max(widths.values())
    assert max_width >= 6, f"expected wide diagnostic level, widths={widths}"

    rows = [[lvl, len(nodes), " ".join(sorted(n.split(':')[1] for n in nodes))]
            for lvl, nodes in prof.items()]
    table = render_table(
        "Figure 4 - concurrency profile of one RK-4 step (ASAP levels)",
        ["Level", "Width", "Patterns"],
        rows,
    )
    cp = render_table(
        "Critical path (unit pattern costs)",
        ["Length", "Path"],
        [[int(length), " -> ".join(p.split(':')[-1] for p in path[:12]) + " ..."]],
    )
    report("fig4_dataflow", table + "\n\n" + cp)

    # Also emit the Figure 4 artwork itself (render with `dot -Tsvg`).
    from conftest import RESULTS_DIR

    stage = build_stage_graph(SWConfig(dt=1.0, thickness_adv_order=4), stage=1)
    (RESULTS_DIR / "fig4_stage1.dot").write_text(stage.to_dot())

    levels = topological_levels(dfg)
    # Halo exchanges gate the stages they guard.
    for halo in dfg.halo_nodes():
        assert levels[halo] >= 0
