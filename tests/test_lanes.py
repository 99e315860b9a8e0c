"""The second core: a serial plan's independent ``K`` products on a pinned lane.

Level 3's ``K`` is far below ``HELPER_MIN_NNZ``, so every test here lowers
the constant to force the compiler to mark the products, and compares a run
whose plan hands them to the lane with the same run inline.  Contracts:

* bitwise: helper == inline over 5 steps across orders 2 / 3 / 4 (composed),
  APVM on and off, del2 / del4, ``advection_only`` and tc5 topography;
* an E1 failure with ``v = K u`` in flight joins the lane, restores the
  caller's affinity and leaves the next run working;
* only ``ShallowWaterModel.advance``'s serial branch engages the lane: not a
  forked child, a pool rank, a traced run or an ensemble block thread;
* serial runs on more threads than cores share one lane without a lost
  handoff: whichever thread holds it, every run is the inline one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import repro.engine.lanes as lanes
import repro.engine.plan as plan
import repro.ensemble.run as ensemble_run
from repro.api import resolve_case, run, suggested_dt
from repro.constants import GRAVITY
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.swm.config import SWConfig
from repro.swm.model import ShallowWaterModel

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the lane needs a second usable CPU"
)


@pytest.fixture()
def forced(monkeypatch):
    """Plans compiled with every ``K`` product marked for the second core;
    yields the names of the functions handed to any lane."""
    monkeypatch.setattr(plan, "HELPER_MIN_NNZ", 1)
    plan.clear_plan_memory_cache()
    handed = []
    real_submit = lanes.Lane.submit

    def submit(self, fn, *args):
        handed.append(fn.__name__)
        return real_submit(self, fn, *args)

    monkeypatch.setattr(lanes.Lane, "submit", submit)
    yield handed
    plan.clear_plan_memory_cache()


def _inline(monkeypatch):
    monkeypatch.setattr(lanes, "second_core", contextlib.nullcontext)


def _config(mesh, case, **kw) -> SWConfig:
    return SWConfig(
        dt=suggested_dt(mesh, resolve_case(case), GRAVITY),
        backend="sparse", plan=True, **kw,
    )


CASES = {
    "order2": ("galewsky", {}),
    "order3": ("galewsky", {"thickness_adv_order": 3}),
    "order4-composed": ("galewsky", {"thickness_adv_order": 4}),
    "no-apvm": ("galewsky", {"apvm_upwinding": 0.0}),
    "del2": ("galewsky", {"viscosity": 1.0e5}),
    "del4-composed": ("galewsky", {"hyperviscosity": 1.0e13}),
    "advection-only": ("tc1", {"advection_only": True}),
    "tc5-topography": ("tc5", {"thickness_adv_order": 4}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_helper_equals_inline_bitwise(mesh3, forced, monkeypatch, name):
    case, kw = CASES[name]
    config = _config(mesh3, case, **kw)
    described = plan.compiled_plan(mesh3, config).describe()
    # B1 starts the tendencies and is joined after A1, before its sum; v = K u
    # starts the diagnostics and is joined before its first reader.
    assert kw.get("advection_only") or "tend:\n  coriolis_edge_term " in described
    assert kw.get("advection_only") or "A1\n  join_coriolis_edge_term " in described
    reader = "apvm_upwinding" if config.apvm_upwinding else "reconstruct:"
    assert "diagnostics:\n  tangential_velocity " in described
    join = described.index("join_tangential_velocity")
    assert described.index("pv_cell") < join < described.index(reader)
    registry = MetricsRegistry()
    with use_registry(registry):
        helped = run(case, mesh=mesh3, config=config, steps=5)
    assert "_matvec" in forced  # the lane ran products...
    assert registry.series("engine.plan.lane.wait_s")  # ...and the joins were timed
    forced.clear()
    _inline(monkeypatch)
    inline = run(case, mesh=mesh3, config=config, steps=5)
    assert forced == []
    for field in ("h", "u"):
        assert np.array_equal(getattr(helped.state, field), getattr(inline.state, field))
    for field in ("v", "pv_edge", "h_edge"):
        assert np.array_equal(
            getattr(helped.diagnostics, field), getattr(inline.diagnostics, field)
        )


def test_levels_up_to_4_run_inline(mesh3, monkeypatch):
    """At the shipped constant nothing at level <= 4 is marked (level 3 has
    a quarter of level 4's entries), so a run there neither claims the lane
    nor pins its caller."""
    config = _config(mesh3, "galewsky")
    assert "helper=" not in plan.compiled_plan(mesh3, config).describe()
    assert 4 * plan.sparse_operator(mesh3, "tangential_velocity").nnz < plan.HELPER_MIN_NNZ
    claims = []
    monkeypatch.setattr(lanes, "claimed", lambda cpus: claims.append(cpus))
    run("galewsky", mesh=mesh3, config=config, steps=2)
    assert claims == []


def test_a_guard_failure_with_a_product_in_flight(mesh3, forced, monkeypatch):
    """E1 raises while ``v = K u`` runs on the lane: the exit joins it,
    restores the caller's affinity, and the next run is the inline one."""
    config = _config(mesh3, "galewsky")
    model = ShallowWaterModel(mesh3, config)
    model.initialize(resolve_case("galewsky"))
    bad = model.state.copy()
    bad.h *= -1.0  # h_vertex <= 0
    busy_at_join = []
    real_join = lanes.Lane.join

    def join(self):
        busy_at_join.append(self.busy)
        return real_join(self)

    monkeypatch.setattr(lanes.Lane, "join", join)
    before = os.sched_getaffinity(0)
    with pytest.raises(FloatingPointError, match="non-positive h_vertex"):
        with lanes.second_core():
            lane = lanes.engaged()
            assert lane is not None
            assert os.sched_getaffinity(0) != before or len(before) == 1
            model.integrator.diagnostics_for(bad)
    assert forced == ["_matvec"] and busy_at_join == [True]
    assert not lane.busy and lanes.engaged() is None
    assert os.sched_getaffinity(0) == before
    helped = run("galewsky", mesh=mesh3, config=config, steps=2)
    _inline(monkeypatch)
    inline = run("galewsky", mesh=mesh3, config=config, steps=2)
    assert np.array_equal(helped.state.u, inline.state.u)


def test_a_forked_child_never_engages(mesh3, forced):
    run("galewsky", mesh=mesh3, config=_config(mesh3, "galewsky"), steps=1)
    assert lanes._LANES  # the parent holds a lane thread across the fork
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        code = 3
        try:
            with lanes.second_core():
                code = 0 if lanes.engaged() is None and not lanes._LANES else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_pool_rank_never_engages(mesh3, forced):
    config = _config(mesh3, "galewsky")
    registry = MetricsRegistry()
    with use_registry(registry):
        pooled = run("galewsky", mesh=mesh3, steps=3,
                     config=dataclasses.replace(config, parallel="pool", ranks=2))
    assert any("rank" in s.tags for s in registry.series("engine.plan"))  # merged
    assert not registry.series("engine.plan.lane.wait_s") and forced == []
    serial = run("galewsky", mesh=mesh3, config=config, steps=3)
    assert np.array_equal(pooled.state.u, serial.state.u)


def test_a_traced_run_runs_inline(mesh3, forced):
    config = _config(mesh3, "galewsky")
    with use_tracer(Tracer()):
        traced = run("galewsky", mesh=mesh3, config=config, steps=2)
    assert forced == []
    helped = run("galewsky", mesh=mesh3, config=config, steps=2)
    assert forced and np.array_equal(traced.state.u, helped.state.u)


def test_ensemble_block_threads_never_engage(mesh3, forced, monkeypatch):
    """The lanes step member blocks and no block hands a product on: an
    engaged lane belongs to the thread that engaged it."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: cpus)
    config = _config(mesh3, "galewsky")
    ensemble_run.run_ensemble(
        mesh3, resolve_case("galewsky"), dataclasses.replace(config, ensemble=4), 2
    )
    assert forced and set(forced) == {"_advance"}
    seen = []
    with lanes.second_core():
        other = threading.Thread(target=lambda: seen.append(lanes.engaged()))
        other.start()
        other.join(timeout=10)
        assert lanes.engaged() is not None
    assert not other.is_alive() and seen == [None]


def test_threads_contending_for_the_lane_stay_bitwise(mesh3, forced):
    config = _config(mesh3, "galewsky")
    reference = run("galewsky", mesh=mesh3, config=config, steps=3).state.u
    assert "_matvec" in forced
    results, errors = [], []

    def worker():
        try:
            results.append(run("galewsky", mesh=mesh3, config=config, steps=3).state.u)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(results) == 4
    assert all(np.array_equal(u, reference) for u in results)
