"""Shared fixtures: cached session meshes and deterministic random fields."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def mesh3():
    """642-cell SCVT mesh (icosahedral level 3, Lloyd-relaxed)."""
    from repro.mesh import cached_mesh

    return cached_mesh(3)


@pytest.fixture(scope="session")
def mesh4():
    """2,562-cell SCVT mesh (icosahedral level 4, Lloyd-relaxed)."""
    from repro.mesh import cached_mesh

    return cached_mesh(4)


@pytest.fixture()
def on_threads():
    """``run(fn, n_threads) -> (results, errors)``: ``fn(i)`` on barrier-started
    threads under a shortened switch interval, every join bounded."""
    import sys
    import threading

    def run(fn, n_threads: int = 2):
        barrier = threading.Barrier(n_threads)
        results, errors = [None] * n_threads, []

        def work(i):
            try:
                barrier.wait(timeout=30)
                results[i] = fn(i)
            except Exception as exc:  # reported to the asserting thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results, errors

    return run


@pytest.fixture()
def rng():
    return np.random.default_rng(20150815)  # ICPP 2015


@pytest.fixture()
def edge_field(mesh3, rng):
    return rng.standard_normal(mesh3.nEdges)


@pytest.fixture()
def cell_field(mesh3, rng):
    return rng.standard_normal(mesh3.nCells)


@pytest.fixture()
def vertex_field(mesh3, rng):
    return rng.standard_normal(mesh3.nVertices)


def _coriolis_plan_stage(mesh, u, h_edge, q, batch=0):
    """The compiled plan's B1 stage alone (``batch`` > 0: member column 1
    of a block whose other columns hold unrelated data)."""
    from repro.engine.plan import compiled_plan
    from repro.swm.config import SWConfig

    plan = compiled_plan(
        mesh, SWConfig(dt=60.0, backend="sparse", plan=True), batch=batch
    )
    (stage,) = [s for s in plan.stages()["tend"] if s.op == "coriolis_edge_term"]
    if batch:
        noise = np.random.default_rng(7)
        u, h_edge, q = (
            np.ascontiguousarray(
                np.stack([noise.standard_normal(f.shape), f, -f], axis=1)
            )
            for f in (u, h_edge, q)
        )
    out = np.empty_like(u)
    stage.fast({"u": u, "h_edge": h_edge, "pv_edge": q, "tend_u": out})
    return out[:, 1] if batch else out


@pytest.fixture(scope="session")
def coriolis_paths():
    """``name -> fn(mesh, u, h_edge, q)``: B1 on every surviving execution
    path, so the physics properties are not proven on numpy only."""
    from repro.engine import dispatch

    def via(backend):
        return lambda mesh, *f: dispatch(
            "coriolis_edge_term", mesh, *f, backend=backend
        )

    return {
        "numpy": via("numpy"),
        "sparse": via("sparse"),
        "plan": _coriolis_plan_stage,
        "plan-batch-column": lambda mesh, *f: _coriolis_plan_stage(mesh, *f, batch=3),
    }
