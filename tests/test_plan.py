"""Fused execution plans: scheduling, bitwise equivalence, caching, lint.

Contracts pinned here:

* the substep scheduler — program order is a verified topological order,
  halo exchanges segment the fused program, and the single-consumer
  analysis (the fusion-legality oracle) never offers a protected kernel
  output as a fusion seam;
* plan-vs-unfused **bitwise** equivalence — every fused kernel (tend,
  diagnostics, reconstruct) reproduces the unfused sparse backend bit for
  bit, per kernel on icosahedral and random SCVT meshes across the
  physics options, and end-to-end over 10 Galewsky RK steps in serial,
  split and 4-rank pool execution;
* the plan cache — per-mesh memoization keyed by the structure-affecting
  config fields (a dt change recompiles), composed matrices round-trip
  through the versioned disk archive and a version-stamp mismatch
  recompiles instead of loading;
* the registry lint — every Algorithm-1 operator is consumed by a plan
  emitter (no stage is a fallback), and every scheduled Table I label has
  an emitter or a whitelist entry;
* the algebraic mode — composition happens exactly where the legality
  oracle allows it, and stays within 1e-12 of the exact plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.schedule import (
    schedule_substep,
    single_consumer_vars,
    topological_order,
)
from repro.engine import default_registry, use_placements
from repro.engine.plan import (
    PLAN_CACHE_VERSION,
    PLAN_LOCAL_LABELS,
    PLANNED_OPS,
    clear_plan_memory_cache,
    compile_plan,
    compiled_plan,
    plan_key,
    unplanned_labels,
)
from repro.engine.sparse import clear_operator_memory_cache, operator_cache_path
from repro.hybrid.executor import Placement
from repro.swm.config import SWConfig
from repro.swm.diagnostics import compute_solve_diagnostics
from repro.swm.model import initialize
from repro.swm.reconstruct import mpas_reconstruct
from repro.swm.state import State
from repro.swm.tendencies import compute_tend
from repro.swm.timestep import RK4Integrator

DIAG_FIELDS = (
    "h_edge", "ke", "vorticity", "divergence", "v",
    "h_vertex", "pv_vertex", "pv_cell", "pv_edge",
)
RECON_FIELDS = (
    "uReconstructX", "uReconstructY", "uReconstructZ",
    "uReconstructZonal", "uReconstructMeridional",
)

# The physics options a plan bakes in, exercised per kernel.
CONFIGS = {
    "default": dict(),
    "order3_apvm": dict(thickness_adv_order=3, apvm_upwinding=0.5),
    "order4": dict(thickness_adv_order=4),
    "viscous": dict(viscosity=1.0e4),
    "hyperviscous": dict(thickness_adv_order=4, hyperviscosity=1.0e13),
}


def _cfg(plan=False, **kw):
    kw.setdefault("dt", 60.0)
    return SWConfig(backend="sparse", plan=plan, **kw)


def _galewsky_inputs(mesh):
    from repro.swm.galewsky import galewsky_jet

    cfg = _cfg()
    state, b_cell = initialize(mesh, galewsky_jet())
    return state, b_cell, cfg.coriolis(mesh.metrics.latVertex)


@pytest.fixture()
def plan_cache(tmp_path, monkeypatch):
    """Redirect the disk cache and clear plan/operator memory around a test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_plan_memory_cache()
    clear_operator_memory_cache()
    yield tmp_path
    clear_plan_memory_cache()
    clear_operator_memory_cache()


# -------------------------------------------------------------- scheduling
class TestSchedule:
    def test_program_order_is_topological(self):
        sched = schedule_substep(_cfg(thickness_adv_order=4), stage=1)
        assert topological_order(sched.graph) == list(sched.graph.order)

    def test_halo_exchanges_segment_the_substep(self):
        sched = schedule_substep(_cfg(thickness_adv_order=4), stage=1)
        assert len(sched.segments) == 2
        pre, post = sched.segments
        # Tendencies + local updates depend only on the pre-exchange...
        assert len(pre.barriers) == 1
        assert set(sched.graph.instance(n).label for n in pre.nodes) >= {"A1", "B1"}
        # ... and the diagnostics wait for both exchanges.
        assert len(post.barriers) == 2
        assert "D1" in [sched.graph.instance(n).label for n in post.nodes]

    def test_stage4_schedules_reconstruction(self):
        sched = schedule_substep(_cfg(), stage=4)
        assert sched.nodes_for_kernel("mpas_reconstruct")

    def test_single_consumer_respects_protection(self):
        sched = schedule_substep(_cfg(thickness_adv_order=4), stage=1)
        free = single_consumer_vars(sched.graph)
        # pv_cell is read in-graph only by the APVM correction, so without
        # protection it *looks* like a seam — but the caller observes it.
        protected = single_consumer_vars(
            sched.graph, protected=frozenset({"pv_cell"})
        )
        assert "pv_cell" not in protected
        assert protected <= free


# -------------------------------------------------------------------- lint
class TestRegistryLint:
    def test_every_op_planned(self):
        assert PLANNED_OPS == set(default_registry().ops())

    @pytest.mark.parametrize("batch", [0, 3], ids=["serial", "batch3"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_no_fallback_stage(self, mesh3, name, batch):
        plan = compile_plan(mesh3, _cfg(plan=True, **CONFIGS[name]), batch=batch)
        assert "fallback" not in plan.describe()
        kinds = {st.kind for stages in plan.stages().values() for st in stages}
        assert kinds <= {"matvec", "elementwise", "composed"}

    def test_every_scheduled_label_plannable(self):
        for name, kw in CONFIGS.items():
            assert unplanned_labels(_cfg(**kw)) == set(), name

    def test_local_labels_are_really_local(self):
        sched = schedule_substep(_cfg(), stage=4)
        for node in sched.nodes():
            inst = sched.graph.instance(node)
            if inst.label in PLAN_LOCAL_LABELS:
                assert inst.is_local, inst.label


# ------------------------------------------------------------- validation
class TestConfigValidation:
    def test_plan_requires_sparse_backend(self):
        with pytest.raises(ValueError, match="backend='sparse'"):
            SWConfig(dt=60.0, backend="numpy", plan=True)

    def test_bad_fuse_mode_rejected(self):
        with pytest.raises(ValueError, match="plan_fuse"):
            SWConfig(dt=60.0, backend="sparse", plan=True, plan_fuse="magic")

    def test_compile_rejects_non_sparse(self, mesh3):
        with pytest.raises(ValueError, match="sparse"):
            compile_plan(mesh3, SWConfig(dt=60.0, backend="numpy"))


# ------------------------------------------------- per-kernel bitwise laws
def _assert_kernels_bitwise(mesh, kw):
    state, b_cell, f_vertex = _galewsky_inputs(mesh)
    ref_cfg = _cfg(**kw)
    plan_cfg = _cfg(plan=True, **kw)
    diag = compute_solve_diagnostics(mesh, state, f_vertex, ref_cfg)
    pd = compute_solve_diagnostics(mesh, state, f_vertex, plan_cfg)
    for f in DIAG_FIELDS:
        assert np.array_equal(getattr(diag, f), getattr(pd, f)), f
    th, tu = compute_tend(mesh, state, diag, b_cell, ref_cfg)
    pth, ptu = compute_tend(mesh, state, pd, b_cell, plan_cfg)
    assert np.array_equal(th, pth)
    assert np.array_equal(tu, ptu)
    r = mpas_reconstruct(mesh, state.u, backend="sparse")
    pr = compiled_plan(mesh, plan_cfg).reconstruct(state.u)
    for f in RECON_FIELDS:
        assert np.array_equal(getattr(r, f), getattr(pr, f)), f


class TestKernelBitwise:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_icosahedral(self, mesh3, name):
        _assert_kernels_bitwise(mesh3, CONFIGS[name])

    @pytest.mark.parametrize("seed", [11, 23])
    def test_random_scvt(self, seed):
        from repro.geometry import lloyd_relax, normalize
        from repro.mesh import Mesh

        rng = np.random.default_rng(seed)
        pts = lloyd_relax(
            normalize(rng.standard_normal((120, 3))), iterations=60
        ).points
        mesh = Mesh.from_points(pts, name=f"plan-random120-{seed}")
        _assert_kernels_bitwise(mesh, CONFIGS["order3_apvm"])

    @pytest.mark.parametrize("name", ["default", "order3_apvm", "hyperviscous"])
    def test_batched_column_equals_serial_stage(self, mesh3, name):
        """Column k of every batched stage (B1's two matvecs included) is
        bitwise the serial plan applied to member k."""
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        rng = np.random.default_rng(5)
        members = [
            State(
                h=state.h * (1.0 + 1e-3 * rng.standard_normal(state.h.shape)),
                u=state.u + 0.1 * rng.standard_normal(state.u.shape),
            )
            for _ in range(3)
        ]
        cfg = _cfg(plan=True, **CONFIGS[name])
        batched = compile_plan(mesh3, cfg, batch=3)
        block = State.stack(members)
        bdiag = batched.diagnostics(block, f_vertex)
        btend_h, btend_u = batched.tend(block, bdiag, b_cell)
        serial = compiled_plan(mesh3, cfg)
        for k, member in enumerate(members):
            diag = serial.diagnostics(member, f_vertex)
            for f in DIAG_FIELDS:
                assert np.array_equal(getattr(bdiag, f)[:, k], getattr(diag, f)), f
            tend_h, tend_u = serial.tend(member, diag, b_cell)
            assert np.array_equal(btend_h[:, k], tend_h)
            assert np.array_equal(btend_u[:, k], tend_u)

    def test_advection_only_freezes_velocity(self, mesh3):
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True, advection_only=True)
        diag = compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
        th, tu = compute_tend(mesh3, state, diag, b_cell, cfg)
        ref = compute_tend(
            mesh3, state, diag, b_cell, _cfg(advection_only=True)
        )
        assert np.array_equal(th, ref[0])
        assert not tu.any()

    def test_instability_raises_like_unfused(self, mesh3):
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        bad = State(h=np.full_like(state.h, -1.0), u=state.u)
        with pytest.raises(FloatingPointError, match="unstable"):
            compute_solve_diagnostics(mesh3, bad, f_vertex, _cfg(plan=True))


# ---------------------------------------------------- end-to-end 10 steps
class TestAcceptanceRun:
    """10 Galewsky RK steps: plan bitwise == unfused sparse in all modes."""

    @pytest.fixture(scope="class")
    def galewsky_states(self, mesh3):
        from repro import api

        case = api.resolve_case("galewsky")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.5)
        ref = api.run(
            case, mesh=mesh3, config=api.SWConfig(dt=dt, backend="sparse"),
            steps=10,
        )
        return {"dt": dt, "h": ref.state.h, "u": ref.state.u}

    def _run(self, mesh3, dt, **kw):
        from repro import api

        case = api.resolve_case("galewsky")
        return api.run(
            case, mesh=mesh3,
            config=api.SWConfig(dt=dt, backend="sparse", plan=True, **kw),
            steps=10,
        )

    def test_serial_bitwise(self, mesh3, galewsky_states):
        result = self._run(mesh3, galewsky_states["dt"])
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])

    def test_split_bitwise(self, mesh3, galewsky_states):
        labels = (
            "A1", "A2", "A3", "A4", "B1", "B2", "D1", "E1", "F1", "G1", "H1"
        )
        placements = {
            lab: Placement(device="split", cpu_fraction=0.43) for lab in labels
        }
        with use_placements(placements):
            result = self._run(mesh3, galewsky_states["dt"])
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])

    def test_pool_bitwise(self, mesh3, galewsky_states):
        result = self._run(
            mesh3, galewsky_states["dt"], parallel="pool", ranks=4
        )
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])


# ------------------------------------------------------------- plan cache
class TestPlanCache:
    def test_memoized_per_config_key(self, mesh3, plan_cache):
        a = compiled_plan(mesh3, _cfg(plan=True))
        b = compiled_plan(mesh3, _cfg(plan=True))
        assert a is b
        # The rollback handler halves dt in place: a different key, plan.
        c = compiled_plan(mesh3, _cfg(plan=True, dt=30.0))
        assert c is not a
        assert plan_key(_cfg(dt=30.0)) != plan_key(_cfg())

    def test_composed_matrix_disk_roundtrip(self, plan_cache):
        from repro.mesh import cached_mesh, clear_memory_cache

        clear_memory_cache()
        mesh = cached_mesh(2, lloyd_iterations=0, use_disk=True)
        cfg = _cfg(
            plan=True, plan_fuse="algebraic", thickness_adv_order=4,
            hyperviscosity=1.0e13,
        )
        a = compiled_plan(mesh, cfg)
        assert set(a.composed) == {"del4", "h_edge_order4"}
        for name in a.composed:
            assert operator_cache_path(mesh, f"plan_{name}").exists()
        clear_plan_memory_cache()
        b = compiled_plan(mesh, cfg)  # reloaded from the archives
        assert b is not a
        state, b_cell, f_vertex = _galewsky_inputs(mesh)
        ra = a.diagnostics(State(h=state.h, u=state.u), f_vertex)
        rb = b.diagnostics(State(h=state.h, u=state.u), f_vertex)
        assert np.array_equal(ra.h_edge, rb.h_edge)
        clear_memory_cache()

    def test_version_bump_recompiles(self, plan_cache):
        from repro.mesh import cached_mesh, clear_memory_cache

        clear_memory_cache()
        mesh = cached_mesh(2, lloyd_iterations=0, use_disk=True)
        cfg = _cfg(
            plan=True, plan_fuse="algebraic", thickness_adv_order=4,
        )
        compiled_plan(mesh, cfg)
        path = operator_cache_path(mesh, "plan_h_edge_order4")
        stale = dict(np.load(path))
        stale["plan_version"] = np.array(PLAN_CACHE_VERSION + 1)
        stale["data"] = np.zeros_like(stale["data"])  # poison the payload
        np.savez_compressed(path, **stale)
        clear_plan_memory_cache()
        plan = compiled_plan(mesh, cfg)
        state, b_cell, f_vertex = _galewsky_inputs(mesh)
        d = plan.diagnostics(state, f_vertex)
        ref = compute_solve_diagnostics(
            mesh, state, f_vertex, _cfg(thickness_adv_order=4)
        )
        # Recompiled, not the zeroed load: matches the unfused h_edge.
        scale = np.max(np.abs(ref.h_edge))
        assert np.max(np.abs(d.h_edge - ref.h_edge)) <= 1e-12 * scale
        with np.load(path) as f:
            assert int(f["plan_version"]) == PLAN_CACHE_VERSION
        clear_memory_cache()

    def test_memory_only_for_undisk_meshes(self, mesh3, plan_cache):
        cfg = _cfg(plan=True, plan_fuse="algebraic", thickness_adv_order=4)
        plan = compiled_plan(mesh3, cfg)
        # mesh3 is the session fixture: its archives live in the *real*
        # cache dir; under the redirected dir nothing may appear unless the
        # mesh identity says disk-cached there.  Composition still works.
        assert "h_edge_order4" in plan.composed

    def test_reconstruction_compiles_on_first_use(self, mesh3, plan_cache):
        """A rank that only steps never pays for ``mpas_reconstruct``: the
        A4 operator (per-cell least-squares fits) of its mesh is compiled by
        the first ``reconstruct()``, not by ``compiled_plan``."""
        from repro.engine.sparse import _MEMORY_OPS
        from repro.parallel import build_local_mesh, partition_cells

        cfg = _cfg(plan=True)
        lm = build_local_mesh(mesh3, partition_cells(mesh3, 2), 0)
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        local = State(h=state.h[lm.cells_global], u=state.u[lm.edges_global])
        plan = compiled_plan(lm, cfg)
        diag = plan.diagnostics(local, f_vertex[lm.vertices_global])
        plan.tend(local, diag, b_cell[lm.cells_global])
        assert "velocity_reconstruction" not in _MEMORY_OPS[lm]

        recon = plan.reconstruct(local.u)
        assert "velocity_reconstruction" in _MEMORY_OPS[lm]
        reference = mpas_reconstruct(lm, local.u, backend="sparse")
        for field in RECON_FIELDS:
            assert np.array_equal(getattr(recon, field), getattr(reference, field))
        # describe() is the other trigger: a fresh plan lists the A4 stage.
        assert "velocity_reconstruction" in compile_plan(lm, cfg).describe()


# --------------------------------------------------------- plans and threads
class TestPlansArePerThread:
    """A plan owns scratch buffers, so ``compiled_plan`` memoizes per thread;
    the CSR operators behind every thread's plan are the same instances."""

    @staticmethod
    def _captured(plan, kind):
        """Objects of ``kind`` the tend/diagnostics stage closures hold."""
        found = [v for v in plan._buffers.values() if isinstance(v, kind)]
        for stages in (plan._tend, plan._diag):
            for st in stages:
                for cell in st.fast.__closure__ or ():
                    if isinstance(cell.cell_contents, kind):
                        found.append(cell.cell_contents)
        return found

    def test_two_threads_get_two_plans_over_the_same_operators(
        self, mesh3, plan_cache, on_threads
    ):
        import scipy.sparse as sp

        cfg = _cfg(plan=True, thickness_adv_order=3, apvm_upwinding=0.5)
        mine = compiled_plan(mesh3, cfg)
        theirs, errors = on_threads(lambda i: compiled_plan(mesh3, cfg))
        assert errors == []
        plans = [mine, *theirs]
        assert len({id(p) for p in plans}) == 3
        assert compiled_plan(mesh3, cfg) is mine  # still memoized, per thread
        operators = [{id(m) for m in self._captured(p, sp.csr_matrix)} for p in plans]
        assert operators[0] and operators[0] == operators[1] == operators[2]
        buffers = [self._captured(p, np.ndarray) for p in plans]
        assert buffers[0]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert not any(
                np.shares_memory(a, b) for a in buffers[i] for b in buffers[j]
            )

    def test_two_threads_stepping_one_config_produce_the_serial_bits(
        self, mesh3, plan_cache, on_threads
    ):
        cfg = _cfg(plan=True)
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        integ = RK4Integrator(mesh3, cfg, b_cell, f_vertex)

        def six_steps(_):
            s, d = state, integ.diagnostics_for(state)
            for _ in range(6):
                out = integ.step(s, d)
                s, d = out.state, out.diagnostics
            return s

        ref = six_steps(0)
        stepped, errors = on_threads(six_steps)
        assert errors == []
        for got in stepped:
            assert np.array_equal(got.h, ref.h)
            assert np.array_equal(got.u, ref.u)


# ---------------------------------------------------------- algebraic mode
class TestAlgebraicFusion:
    def test_nothing_to_compose_on_default_config(self, mesh3):
        plan = compiled_plan(mesh3, _cfg(plan=True, plan_fuse="algebraic"))
        assert plan.composed == ()

    def test_order3_never_composes(self, mesh3):
        # sign(u)-dependent coefficients: composition is illegal.
        plan = compiled_plan(
            mesh3, _cfg(plan=True, plan_fuse="algebraic", thickness_adv_order=3)
        )
        assert "h_edge_order4" not in plan.composed

    @pytest.mark.parametrize(
        "kw", [dict(thickness_adv_order=4),
               dict(thickness_adv_order=4, hyperviscosity=1.0e13)],
        ids=["order4", "order4+del4"],
    )
    def test_composed_within_1e12_of_exact(self, mesh3, kw):
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        exact_cfg = _cfg(plan=True, **kw)
        alg_cfg = _cfg(plan=True, plan_fuse="algebraic", **kw)
        d_exact = compute_solve_diagnostics(mesh3, state, f_vertex, exact_cfg)
        d_alg = compute_solve_diagnostics(mesh3, state, f_vertex, alg_cfg)
        for f in DIAG_FIELDS:
            a, b = getattr(d_exact, f), getattr(d_alg, f)
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, f
        t_exact = compute_tend(mesh3, state, d_exact, b_cell, exact_cfg)
        t_alg = compute_tend(mesh3, state, d_exact, b_cell, alg_cfg)
        for a, b in zip(t_exact, t_alg):
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


# ----------------------------------------------------------- observability
class TestObservability:
    def test_plan_stage_spans(self, mesh3):
        from repro.obs.trace import Tracer, use_tracer

        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True)
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
        spans = [s for s in tracer.spans if s.category == "plan"]
        assert {s.name for s in spans} >= {
            "cell_to_edge_mean", "kinetic_energy", "pv_vertex", "pv_edge"
        }

    def test_plan_timer_per_segment(self, mesh3):
        from repro.obs.metrics import MetricsRegistry, use_registry

        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True)
        compiled_plan(mesh3, cfg)  # compile outside the measured window
        with use_registry(MetricsRegistry()) as metrics:
            diag = compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
            compute_tend(mesh3, state, diag, b_cell, cfg)
        segments = {
            s.tags["segment"] for s in metrics.series("engine.plan")
        }
        assert segments == {"diagnostics", "tend"}
