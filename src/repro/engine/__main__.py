"""Engine CLI: end-to-end backend smoke test.

Run it::

    python -m repro.engine --selftest

The selftest builds the default registry, runs one RK-4 step of the
Galewsky jet on a small mesh under every registered backend, and checks the
resulting states agree with the ``numpy`` backend to tight relative
tolerance, and that the compiled plan of ``backend="sparse"`` (which
composes the order-4 ``h_edge`` chain) agrees with the unfused step to the
same tolerance.  Exit code 0 on success.
"""

from __future__ import annotations

import argparse
import sys

from .registry import BACKENDS, default_registry

#: Relative agreement required between any backend and ``numpy`` after one
#: full RK-4 step (the acceptance threshold of the backend refactor).
SELFTEST_RTOL = 1.0e-12


def _step_state(level: int, backend: str, plan: bool = False):
    """One RK-4 step of the Galewsky jet under ``backend``; returns (h, u)."""
    from ..constants import GRAVITY
    from ..mesh.cache import cached_mesh
    from ..swm.config import SWConfig
    from ..swm.galewsky import galewsky_jet
    from ..swm.model import suggested_dt
    from ..swm.testcases import coriolis_at_vertices, initialize
    from ..swm.timestep import RK4Integrator

    mesh = cached_mesh(level)
    case = galewsky_jet()
    config = SWConfig(
        dt=suggested_dt(mesh, case, GRAVITY, cfl=0.5),
        thickness_adv_order=4,
        backend=backend,
        plan=plan,
    )
    state, b_cell = initialize(mesh, case)
    f_vertex = coriolis_at_vertices(mesh, case, config)
    integ = RK4Integrator(mesh, config, b_cell, f_vertex)
    diag = integ.diagnostics_for(state)
    result = integ.step(state, diag)
    return result.state.h, result.state.u


def _selftest(level: int) -> int:
    import numpy as np

    reg = default_registry()
    missing = [b for b in BACKENDS if b not in reg.backends()]
    if missing:
        print(f"engine selftest FAILED: backends not registered: {missing}")
        return 1
    print(
        f"registry: {len(reg.ops())} operators, "
        f"{len(reg.kernels())} Algorithm-1 kernels, "
        f"backends {', '.join(reg.backends())}, "
        f"labels {', '.join(sorted(reg.labels()))}"
    )

    states = {b: _step_state(level, b) for b in BACKENDS}
    states["plan"] = _step_state(level, "sparse", plan=True)
    failed = False
    for name, ref in [(b, "numpy") for b in BACKENDS] + [("plan", "sparse")]:
        (h, u), (h_ref, u_ref) = states[name], states[ref]
        dh = float(np.max(np.abs(h - h_ref))) / float(np.max(np.abs(h_ref)))
        du = float(np.max(np.abs(u - u_ref))) / float(np.max(np.abs(u_ref)))
        ok = dh <= SELFTEST_RTOL and du <= SELFTEST_RTOL
        failed = failed or not ok
        print(
            f"  {name:8s} vs {ref} after 1 RK-4 step: "
            f"|dh|/|h| = {dh:.3e}, |du|/|u| = {du:.3e} "
            f"[{'ok' if ok else 'FAIL'}]"
        )
    if failed:
        print(f"engine selftest FAILED: backends disagree beyond {SELFTEST_RTOL:g}")
        return 1
    print(f"engine selftest OK: {len(BACKENDS)} backends agree to {SELFTEST_RTOL:g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Kernel-registry execution engine utilities.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="one RK-4 step per backend on a small mesh; states must agree",
    )
    parser.add_argument(
        "--level",
        type=int,
        default=2,
        help="icosahedral mesh level for the selftest (default 2 = 162 cells)",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return _selftest(args.level)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
