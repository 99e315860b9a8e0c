"""Kernel cost profiling of the real Python model (the Section II-C step).

The paper's kernel-level design starts from a profile of the original code:
the heavy kernels (``compute_tend``, ``compute_solve_diagnostics``) go to the
accelerator.  This bench performs that measurement on the real NumPy model
and checks the same two kernels dominate, which is what justifies both the
Figure 2 placement and the cost model's pattern weights.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_level
from repro.constants import GRAVITY
from repro.mesh import cached_mesh
from repro.obs import Tracer, use_tracer
from repro.obs.report import render_kernel_profile
from repro.swm import RK4Integrator, SWConfig, isolated_mountain, suggested_dt
from repro.swm.testcases import initialize


def test_kernel_profile(benchmark, report):
    mesh = cached_mesh(min(bench_level() + 1, 6))
    case = isolated_mountain()
    cfg = SWConfig(dt=suggested_dt(mesh, case, GRAVITY, cfl=0.6),
                   thickness_adv_order=4)
    state, b = initialize(mesh, case)
    f_vertex = cfg.coriolis(mesh.metrics.latVertex)
    integ = RK4Integrator(mesh, cfg, b, f_vertex)
    diag = integ.diagnostics_for(state)
    # Warm-up step (untraced): pays the one-time per-mesh setup
    # (reconstruction matrices, deriv_two coefficients), which is not
    # kernel cost.
    integ.step(state, diag)
    steps = 5
    tracer = Tracer()

    def run_steps():
        s, d = state, diag
        with use_tracer(tracer):
            for _ in range(steps):
                r = integ.step(s, d)
                s, d = r.state, r.diagnostics
        return s

    final = benchmark.pedantic(run_steps, rounds=1, iterations=1)
    assert np.all(np.isfinite(final.h))

    report(
        "kernel_profile",
        render_kernel_profile(
            tracer,
            f"Measured kernel cost breakdown ({mesh.nCells} cells, "
            f"{steps} steps, real NumPy kernels)",
        ),
    )

    seconds = tracer.aggregate_names(category="kernel")
    total = sum(seconds.values())
    fractions = {kernel: secs / total for kernel, secs in seconds.items()}
    # The Figure 2 rationale: the two stencil-heavy kernels dominate.
    heavy = fractions["compute_tend"] + fractions["compute_solve_diagnostics"]
    assert heavy > 0.6
    assert max(seconds, key=seconds.get) in (
        "compute_tend", "compute_solve_diagnostics"
    )
    # The local kernels are cheap.
    assert fractions["accumulative_update"] < 0.15
    assert fractions["enforce_boundary_edge"] < 0.05
