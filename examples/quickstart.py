#!/usr/bin/env python3
"""Quickstart: build an SCVT mesh, run the shallow-water model, check errors.

Runs Williamson test case 2 (steady zonal geostrophic flow) for one simulated
day on a small quasi-uniform SCVT mesh and reports the discretization error
against the exact solution plus the conservation record — the minimal
end-to-end exercise of the public API (:mod:`repro.api`).

Usage:  python examples/quickstart.py [icosahedron_level=3] [backend=numpy]

``backend`` selects the engine execution backend (numpy/sparse);
every stencil operator of the run dispatches through the kernel registry
under that name.
"""

from __future__ import annotations

import sys
import time

from repro.api import SWConfig, build_mesh, error_norms, resolve_case, run, suggested_dt
from repro.constants import GRAVITY
from repro.mesh import assess_quality


def main(level: int = 3, backend: str = "numpy") -> None:
    print(f"Building quasi-uniform SCVT mesh (icosahedral level {level}) ...")
    t0 = time.perf_counter()
    mesh = build_mesh(level)
    mesh.validate()
    quality = assess_quality(mesh)
    print(f"  {quality.summary()}")
    print(f"  built/loaded in {time.perf_counter() - t0:.2f} s")

    case = resolve_case("steady_zonal_flow")
    dt = suggested_dt(mesh, case, GRAVITY, cfl=0.6)
    print(
        f"\nRunning Williamson TC{case.number} ({case.name}), dt = {dt:.0f} s, "
        f"backend = {backend} ..."
    )
    t0 = time.perf_counter()
    result = run(
        case,
        mesh=mesh,
        config=SWConfig(dt=dt, backend=backend),
        days=1.0,
        invariant_interval=10,
    )
    wall = time.perf_counter() - t0
    print(
        f"  {result.steps} RK-4 steps in {wall:.2f} s "
        f"({wall / result.steps * 1e3:.1f} ms/step)"
    )

    href = case.exact_thickness(mesh.metrics.xCell)
    err = error_norms(mesh, result.state.h, href)
    print("\nError vs the exact steady solution after 1 day:")
    print(f"  l1   = {err.l1:.3e}")
    print(f"  l2   = {err.l2:.3e}")
    print(f"  linf = {err.linf:.3e}")
    print("\nConservation over the run:")
    print(f"  relative mass drift   = {result.mass_drift():.2e}")
    print(f"  relative energy drift = {result.energy_drift():.2e}")

    rec = result.reconstruction
    print("\nReconstructed winds at cell centres (mpas_reconstruct):")
    print(f"  max |zonal|      = {abs(rec.uReconstructZonal).max():.2f} m/s")
    print(f"  max |meridional| = {abs(rec.uReconstructMeridional).max():.2f} m/s")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 3,
        sys.argv[2] if len(sys.argv) > 2 else "numpy",
    )
