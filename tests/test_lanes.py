"""Two lanes: a serial plan's stages placed on the caller and a pinned lane.

Level 3's ``K`` is far below ``HELPER_MIN_NNZ``, so every test here lowers
the constant to compile two-lane plans (and scales ``HANDOFF_COST`` by level
3's sixteenth of level 5's points, which gives every config below the lane
groups it gets at level 5), and compares a run whose plan hands stage
groups to the lane with the same run inline.  Contracts:

* bitwise: two lanes == inline over 5 steps across orders 2 / 3 / 4
  (composed), APVM on and off, del2 / del4, ``advection_only`` and tc5;
* every stage writes only what it declares (undeclared inputs read-only);
* mass is conserved to round-off and the Coriolis term does no work on the
  two-lane plan too;
* an E1 failure with a lane group in flight, or on the lane itself, joins
  the lane, restores the caller's affinity and leaves the next run working;
* only ``ShallowWaterModel``'s serial executor and a lone ensemble worker
  engage the lane, once per call (IC diagnostics, every step, the result):
  not a forked child, a pool rank or a worker of a multi-worker ensemble;
* a traced run hands the lane the untraced run's stage groups, lands on
  the same bits and traces the lane's stages on the lane's thread;
* serial runs on more threads than cores share one lane without a lost
  handoff: whichever thread holds it, every run is the inline one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import threading
from types import SimpleNamespace

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
from repro.swm.operators import coriolis_edge_term

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the lane needs a second usable CPU"
)


@pytest.fixture()
def forced(monkeypatch):
    """Two-lane plans at level 3, placed as at level 5; yields the names of
    the functions handed to any lane."""
    monkeypatch.setattr(plan, "HELPER_MIN_NNZ", 1)
    monkeypatch.setattr(plan, "HANDOFF_COST", plan.HANDOFF_COST // 16)
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
    compiled = plan.compiled_plan(mesh3, config)
    assert compiled.lanes == 2
    described = compiled.describe()
    assert "lane=1" in described and "\n  join\n" in described
    registry = MetricsRegistry()
    with use_registry(registry):
        laned = run(case, mesh=mesh3, config=config, steps=5)
    assert "_run_group" in forced  # the lane ran stage groups...
    assert registry.series("engine.plan.lane.wait_s")  # ...and the joins were timed
    forced.clear()
    _inline(monkeypatch)
    inline = run(case, mesh=mesh3, config=config, steps=5)
    assert forced == []
    for field in ("h", "u"):
        assert np.array_equal(getattr(laned.state, field), getattr(inline.state, field))
    for field in ("v", "pv_edge", "h_edge"):
        assert np.array_equal(
            getattr(laned.diagnostics, field), getattr(inline.diagnostics, field)
        )


@pytest.fixture(scope="module")
def galewsky3(mesh3):
    """The model the write check feeds every config's stages from: one
    initialized galewsky state and its diagnostics."""
    config = _config(mesh3, "galewsky")
    model = ShallowWaterModel(mesh3, config)
    model.initialize(resolve_case("galewsky"))
    return model


@pytest.mark.parametrize("name", list(CASES))
def test_every_stage_writes_only_what_it_declares(mesh3, galewsky3, name):
    """Each stage runs with every array it does not declare written made
    read-only, so an undeclared write raises.  (Kernels share scratch
    arrays under different names, so arrays are told apart by identity.)
    Which values flow does not matter here, so one state serves every
    config, and each config's memoized plan is the one checked."""
    case, kw = CASES[name]
    state, diag = galewsky3.state, galewsky3.diagnostics
    fields = {k: getattr(diag, k).copy() for k in (
        "h_edge", "ke", "vorticity", "divergence", "v",
        "h_vertex", "pv_vertex", "pv_cell", "pv_edge",
    )}
    inputs = {
        "tend": {"h": state.h.copy(), "u": state.u.copy(),
                 "b": galewsky3.b_cell.copy(), **fields},
        "diagnostics": {"h": state.h.copy(), "u": state.u.copy(),
                        "f": galewsky3.integrator.f_vertex.copy(), **fields},
        "reconstruct": {"u": state.u.copy()},
    }
    compiled = plan.compiled_plan(mesh3, _config(mesh3, case, **kw))
    for segment, stages in compiled.stages().items():
        ctx = {**compiled._buffers, **inputs[segment]}
        for stage in stages:
            written = {id(ctx[key]) for key in stage.writes if key in ctx}
            frozen = [a for a in ctx.values()
                      if isinstance(a, np.ndarray) and id(a) not in written]
            for array in frozen:
                array.flags.writeable = False
            try:
                stage.fast(ctx)
            finally:
                for array in frozen:
                    array.flags.writeable = True


def test_two_lanes_conserve_mass_and_coriolis_does_no_work(mesh3, forced, rng):
    config = _config(mesh3, "galewsky")
    model = ShallowWaterModel(mesh3, config)
    model.initialize(resolve_case("galewsky"))
    m0 = np.sum(model.state.h * mesh3.areaCell)
    model.advance(5)
    assert "_run_group" in forced
    assert abs(np.sum(model.state.h * mesh3.areaCell) - m0) / m0 < 1e-13

    # With h + b = 0 and ke = 0 the Bernoulli term vanishes: tend_u is B1.
    u = rng.standard_normal(mesh3.nEdges)
    h_edge = rng.uniform(0.5, 2.0, mesh3.nEdges)
    q = rng.standard_normal(mesh3.nEdges)
    h, zero_c = np.ones(mesh3.nCells), np.zeros(mesh3.nCells)
    diag = SimpleNamespace(h_edge=h_edge, ke=zero_c, pv_edge=q,
                           divergence=zero_c, vorticity=np.zeros(mesh3.nVertices))
    forced.clear()
    with lanes.second_core():
        _, term = plan.compiled_plan(mesh3, config).tend(
            SimpleNamespace(h=h, u=u), diag, -h)
    assert forced == ["_run_group"]
    scale = np.sum((u * h_edge) ** 2 * mesh3.dcEdge * mesh3.dvEdge)
    assert abs(np.sum(u * h_edge * term * mesh3.dcEdge * mesh3.dvEdge)) < 1e-10 * scale
    reference = coriolis_edge_term(mesh3, u, h_edge, q)
    assert np.max(np.abs(term - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_levels_up_to_4_run_inline(mesh3, monkeypatch):
    """At the shipped constant a plan at level <= 4 runs one lane (level 3
    has a quarter of level 4's entries), so a run there neither claims the
    lane nor pins its caller."""
    config = _config(mesh3, "galewsky")
    compiled = plan.compiled_plan(mesh3, config)
    assert compiled.lanes == 1 and "lane=" not in compiled.describe()
    assert 4 * plan.sparse_operator(mesh3, "tangential_velocity").nnz < plan.HELPER_MIN_NNZ
    claims = []
    monkeypatch.setattr(lanes, "claimed", lambda cpus: claims.append(cpus))
    run("galewsky", mesh=mesh3, config=config, steps=2)
    assert claims == []


def test_a_run_engages_the_lane_once_and_before_its_first_step(
    mesh3, forced, monkeypatch
):
    """A run observed every step (a callback, as a durable run's checkpoint
    hook) advances in one-step chunks under one claim, and the IC's
    diagnostics already hand their groups to the lane."""
    import repro.swm.model as model_module

    claims, at_first_step = [], []
    real_claimed, real_step = lanes.claimed, model_module.rk4_step

    def claimed(cpus):
        claims.append(cpus)
        return real_claimed(cpus)

    def step(*args, **kwargs):
        at_first_step.append(at_first_step[0] if at_first_step else len(forced))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(lanes, "claimed", claimed)
    monkeypatch.setattr(model_module, "rk4_step", step)
    seen = []
    laned = run("galewsky", mesh=mesh3, config=_config(mesh3, "galewsky"), steps=4,
                callback=lambda k, result: seen.append(k))
    assert seen == [1, 2, 3, 4] and len(claims) == 1
    assert at_first_step[0] > 0  # groups handed over before step 1
    _inline(monkeypatch)
    inline = run("galewsky", mesh=mesh3, config=_config(mesh3, "galewsky"), steps=4)
    assert np.array_equal(laned.state.u, inline.state.u)
    assert np.array_equal(laned.state.h, inline.state.h)


def test_a_lone_member_engages_the_lane_once_and_before_its_first_step(
    mesh3, forced, monkeypatch
):
    """A 1-member ensemble is one worker on the caller and steps on the
    two-lane plan as its serial run does: one claim, and the IC's
    diagnostics already hand their groups to the lane."""
    claims, at_first_step = [], []
    real_claimed, real_step = lanes.claimed, ensemble_run.rk4_step

    def claimed(cpus):
        claims.append(cpus)
        return real_claimed(cpus)

    def step(*args, **kwargs):
        at_first_step.append(at_first_step[0] if at_first_step else len(forced))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(lanes, "claimed", claimed)
    monkeypatch.setattr(ensemble_run, "rk4_step", step)
    config = _config(mesh3, "galewsky")
    ens = ensemble_run.run_ensemble(
        mesh3, resolve_case("galewsky"),
        dataclasses.replace(config, ensemble=1, ensemble_seed=7), 4,
    )
    assert len(claims) == 1 and len(at_first_step) == 4
    assert at_first_step[0] > 0 and set(forced) == {"_run_group"}
    _inline(monkeypatch)
    serial = run("perturbed:galewsky:0:7", mesh=mesh3, config=config, steps=4)
    (member,) = ens.members
    assert np.array_equal(member.state.u, serial.state.u)
    assert np.array_equal(member.state.h, serial.state.h)


def test_a_guard_failure_with_a_product_in_flight(mesh3, forced, monkeypatch):
    """E1 raises on the caller while ``K u`` runs on the lane: the lane is
    joined, the caller's affinity restored, and the next run is the inline
    one."""
    _guard_failure(mesh3, forced, monkeypatch, e1_on_lane=False)


def test_a_guard_failure_on_the_lane(mesh3, forced, monkeypatch):
    """With a cheaper handoff E1 itself runs on the lane and raises at the
    join."""
    monkeypatch.setattr(plan, "HANDOFF_COST", plan.HANDOFF_COST // 2)
    _guard_failure(mesh3, forced, monkeypatch, e1_on_lane=True)


def _guard_failure(mesh3, forced, monkeypatch, e1_on_lane):
    config = _config(mesh3, "galewsky")
    on_lane = {st.name: st.lane for st in plan.compiled_plan(mesh3, config)._diag}
    assert on_lane["pv_vertex"] == e1_on_lane
    assert e1_on_lane or on_lane["tangential_velocity"]
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
    assert forced == ["_run_group"] and busy_at_join == [True]
    assert not lane.busy and lanes.engaged() is None
    assert os.sched_getaffinity(0) == before
    laned = run("galewsky", mesh=mesh3, config=config, steps=2)
    _inline(monkeypatch)
    inline = run("galewsky", mesh=mesh3, config=config, steps=2)
    assert np.array_equal(laned.state.u, inline.state.u)


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


def test_a_traced_run_hands_the_lane_the_same_groups(mesh3, forced, monkeypatch):
    config = _config(mesh3, "galewsky")
    groups = []
    recorded_submit = lanes.Lane.submit

    def submit(self, fn, *args):
        groups.append(tuple(st.name for st in args[0]))
        return recorded_submit(self, fn, *args)

    monkeypatch.setattr(lanes.Lane, "submit", submit)
    laned = run("galewsky", mesh=mesh3, config=config, steps=2)
    untraced, handed = groups[:], forced[:]
    groups.clear()
    forced.clear()
    tracer = Tracer()
    with use_tracer(tracer):
        traced = run("galewsky", mesh=mesh3, config=config, steps=2)
    assert untraced and groups == untraced
    assert set(handed) == {"_run_group"} and forced == ["_run_traced"] * len(handed)
    for field in ("h", "u"):
        assert np.array_equal(getattr(traced.state, field), getattr(laned.state, field))
    # The caller opens every non-plan span; the lane's stages carry another
    # thread's ordinal, and exactly the handed stages do.
    (caller,) = {s.tags["thread"] for s in tracer.spans if s.category != "plan"}
    on_lane = [s for s in tracer.spans if s.tags["thread"] != caller]
    assert len({s.tags["thread"] for s in on_lane}) == 1
    assert all(s.category == "plan" and s.parent is None for s in on_lane)
    assert sorted(s.name for s in on_lane) == sorted(n for g in groups for n in g)


def test_ensemble_block_threads_never_engage(mesh3, forced, monkeypatch):
    """The lanes run the ensemble's member-step workers and no worker of a
    multi-worker run hands a stage on: an engaged lane belongs to the thread
    that engaged it."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    monkeypatch.setattr(ensemble_run, "_usable_cpus", lambda: cpus)
    config = _config(mesh3, "galewsky")
    ensemble_run.run_ensemble(
        mesh3, resolve_case("galewsky"), dataclasses.replace(config, ensemble=4), 2
    )
    assert forced and set(forced) == {"work"}
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
    assert "_run_group" in forced
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
