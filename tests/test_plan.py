"""Fused execution plans: scheduling, bitwise equivalence, caching, lint.

Contracts pinned here:

* the substep scheduler — program order is a verified topological order,
  halo exchanges segment the fused program, and the single-consumer
  analysis (the fusion-legality oracle) never offers a protected kernel
  output as a fusion seam;
* plan-vs-unfused equivalence — every fused kernel (tend, diagnostics,
  reconstruct) reproduces the unfused sparse backend bit for bit, per
  kernel on icosahedral and random SCVT meshes across the physics options,
  except where a linear chain composes (order-4 ``h_edge``, del4: within
  1e-12); end-to-end over 10 Galewsky RK steps, serial and 4-rank pool
  are bitwise equal to each other;
* the plan cache — per-mesh memoization keyed by the structure-affecting
  config fields (a dt change recompiles), composed matrices round-trip
  through the versioned disk archive and a version-stamp mismatch
  recompiles instead of loading;
* the registry lint — every Algorithm-1 operator is consumed by a plan
  emitter (no stage is a fallback), and every scheduled Table I label has
  an emitter or a whitelist entry;
* composition — it happens exactly where the legality oracle allows it,
  and stays within 1e-12 of the unfused sparse backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.schedule import (
    schedule_substep,
    single_consumer_vars,
    topological_order,
)
from repro.engine import default_registry
from repro.engine.plan import (
    _Compiler,
    PLAN_CACHE_VERSION,
    PLAN_LOCAL_LABELS,
    PLANNED_OPS,
    clear_plan_memory_cache,
    compile_plan,
    compiled_plan,
    plan_key,
)
from repro.engine.sparse import clear_operator_memory_cache, operator_cache_path
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

#: The configs whose plans compose a chain, and the tolerance that buys.
COMPOSED_TOL = {"order4": 1e-12, "hyperviscous": 1e-12}


def _cfg(plan=False, **kw):
    kw.setdefault("dt", 60.0)
    return SWConfig(backend="sparse", plan=plan, **kw)


def _assert_close(a, b, tol, what=""):
    """Bitwise for ``tol == 0``, else within ``tol`` of ``a``'s scale."""
    if tol == 0.0:
        assert np.array_equal(a, b), what
    else:
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(a - b)) <= tol * scale, what


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


def unplanned_labels(config=None) -> set[str]:
    """Scheduled Table I labels with neither a plan emitter nor a whitelist:
    a new catalog instance must gain an emitter in ``_Compiler`` or join
    ``PLAN_LOCAL_LABELS``."""
    handled = set(_Compiler.EMITTED_LABELS) | set(PLAN_LOCAL_LABELS)
    return {
        schedule_substep(config, stage=stage).graph.instance(node).label
        for stage in (1, 4) for node in schedule_substep(config, stage=stage).nodes()
    } - handled


# -------------------------------------------------------------------- lint
class TestRegistryLint:
    def test_every_op_planned(self):
        assert PLANNED_OPS == set(default_registry().ops())

    # The "-serial" ids date from when a batched plan had stages of its own.
    @pytest.mark.parametrize("name", list(CONFIGS), ids=lambda n: f"{n}-serial")
    def test_no_fallback_stage(self, mesh3, name):
        plan = compile_plan(mesh3, _cfg(plan=True, **CONFIGS[name]))
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

    def test_fuse_mode_is_no_longer_a_field(self):
        """Composition is a compile-time fact, not an option; stored configs
        that carry the retired knob still load."""
        with pytest.raises(TypeError, match="plan_fuse"):
            SWConfig(dt=60.0, backend="sparse", plan=True, plan_fuse="algebraic")
        cfg = SWConfig.from_dict({"dt": 60.0, "plan_fuse": "exact"})
        assert cfg == SWConfig(dt=60.0)

    def test_compile_rejects_non_sparse(self, mesh3):
        with pytest.raises(ValueError, match="sparse"):
            compile_plan(mesh3, SWConfig(dt=60.0, backend="numpy"))


# ------------------------------------------------- per-kernel bitwise laws
def _assert_kernels_bitwise(mesh, kw, tol=0.0):
    """Plan == unfused sparse per kernel: bitwise, or within ``tol`` for a
    config whose plan composes a chain."""
    state, b_cell, f_vertex = _galewsky_inputs(mesh)
    ref_cfg = _cfg(**kw)
    plan_cfg = _cfg(plan=True, **kw)
    assert bool(compiled_plan(mesh, plan_cfg).composed) == (tol != 0.0)
    diag = compute_solve_diagnostics(mesh, state, f_vertex, ref_cfg)
    pd = compute_solve_diagnostics(mesh, state, f_vertex, plan_cfg)
    for f in DIAG_FIELDS:
        _assert_close(getattr(diag, f), getattr(pd, f), tol, f)
    th, tu = compute_tend(mesh, state, diag, b_cell, ref_cfg)
    pth, ptu = compute_tend(mesh, state, pd, b_cell, plan_cfg)
    _assert_close(th, pth, tol, "tend_h")
    _assert_close(tu, ptu, tol, "tend_u")
    r = mpas_reconstruct(mesh, state.u, backend="sparse")
    pr = compiled_plan(mesh, plan_cfg).reconstruct(state.u)
    for f in RECON_FIELDS:
        assert np.array_equal(getattr(r, f), getattr(pr, f)), f


class TestKernelBitwise:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_icosahedral(self, mesh3, name):
        _assert_kernels_bitwise(mesh3, CONFIGS[name], COMPOSED_TOL.get(name, 0.0))

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
        """Column k of the probes' ``batch=N`` adapter is bitwise the serial
        plan applied to member k."""
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
    """10 Galewsky RK steps: plan bitwise == unfused sparse in all modes
    where nothing composes; with composition, serial == lockstep == pool
    bitwise and within 1e-12 of unfused sparse."""

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

    def _run(self, mesh3, dt, plan=True, **kw):
        from repro import api

        case = api.resolve_case("galewsky")
        return api.run(
            case, mesh=mesh3,
            config=api.SWConfig(dt=dt, backend="sparse", plan=plan, **kw),
            steps=10,
        )

    def test_serial_bitwise(self, mesh3, galewsky_states):
        result = self._run(mesh3, galewsky_states["dt"])
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])

    def test_pool_bitwise(self, mesh3, galewsky_states):
        result = self._run(
            mesh3, galewsky_states["dt"], parallel="pool", ranks=4
        )
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])

    COMPOSED = dict(thickness_adv_order=4, hyperviscosity=1.0e13)

    def test_composed_modes_bitwise(self, mesh3, galewsky_states):
        """A rank's composed matrices are the serial plan's, restricted to its
        rows: every row whose stencil the rank holds (every owned one among
        them) gives the serial matvec's bits, so the decomposed runs keep
        the serial plan's bits; the plan stays within 1e-12 of unfused."""
        from repro.engine.plan import _COMPOSED_MEM
        from repro.parallel import build_local_mesh, partition_cells

        dt = galewsky_states["dt"]
        serial = self._run(mesh3, dt, **self.COMPOSED)
        cfg = _cfg(plan=True, dt=dt, **self.COMPOSED)
        x = np.random.default_rng(4).standard_normal(mesh3.nEdges + mesh3.nCells)
        for r in range(4):
            lm = build_local_mesh(mesh3, partition_cells(mesh3, 4), r, halo_layers=3)
            compiled_plan(lm, cfg)
            for name, held in (("del4", lm.edges_global), ("h_edge_order4", lm.cells_global)):
                whole = _COMPOSED_MEM[mesh3][f"plan_{name}"]
                mine = _COMPOSED_MEM[lm][f"plan_{name}"]
                x_global = np.zeros(whole.shape[1])
                x_global[held] = x[held]
                got, want = mine @ x[held], (whole @ x_global)[lm.edges_global]
                stencils_held = np.diff(mine.indptr) == np.diff(whole.indptr)[lm.edges_global]
                assert np.all(stencils_held[: lm.n_owned_edges]), name
                assert np.array_equal(got[stencils_held], want[stencils_held]), name
        for mode in ("lockstep", "pool"):
            got = self._run(mesh3, dt, parallel=mode, ranks=4, **self.COMPOSED)
            assert np.array_equal(got.state.h, serial.state.h), mode
            assert np.array_equal(got.state.u, serial.state.u), mode
        unfused = self._run(mesh3, dt, plan=False, **self.COMPOSED)
        _assert_close(unfused.state.h, serial.state.h, 1e-12, "h")
        _assert_close(unfused.state.u, serial.state.u, 1e-12, "u")

    def test_composed_random_scvt_decomposition_bitwise(self):
        from repro.geometry import lloyd_relax, normalize
        from repro.mesh import Mesh
        from repro.parallel import DecomposedShallowWater
        from repro.swm import ShallowWaterModel, steady_zonal_flow, suggested_dt

        rng = np.random.default_rng(11)
        pts = lloyd_relax(normalize(rng.standard_normal((120, 3))), iterations=60)
        mesh = Mesh.from_points(pts.points, name="plan-random120-composed")
        case = steady_zonal_flow()
        cfg = _cfg(
            plan=True, dt=suggested_dt(mesh, case, 9.80616, cfl=0.4), **self.COMPOSED
        )
        serial = ShallowWaterModel(mesh, cfg)
        serial.initialize(case)
        res = serial.run(steps=3)
        dec = DecomposedShallowWater(mesh, 2, case, cfg)
        dec.run(3)
        gathered = dec.gather_state()
        assert np.array_equal(gathered.h, res.state.h)
        assert np.array_equal(gathered.u, res.state.u)


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
        cfg = _cfg(plan=True, thickness_adv_order=4, hyperviscosity=1.0e13)
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
        cfg = _cfg(plan=True, thickness_adv_order=4)
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
        cfg = _cfg(plan=True, thickness_adv_order=4)
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
        from repro.engine.sparse import CSR

        cfg = _cfg(plan=True, thickness_adv_order=3, apvm_upwinding=0.5)
        mine = compiled_plan(mesh3, cfg)
        theirs, errors = on_threads(lambda i: compiled_plan(mesh3, cfg))
        assert errors == []
        plans = [mine, *theirs]
        assert len({id(p) for p in plans}) == 3
        assert compiled_plan(mesh3, cfg) is mine  # still memoized, per thread
        operators = [{id(m) for m in self._captured(p, CSR)} for p in plans]
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


# ------------------------------------------------------------ composition
class TestAlgebraicFusion:
    """Composition is decided by the compiler, not an option: exactly the
    chains the legality oracle certifies fold into one matrix."""

    def test_nothing_to_compose_on_default_config(self, mesh3):
        assert compiled_plan(mesh3, _cfg(plan=True)).composed == ()

    def test_order3_never_composes(self, mesh3):
        # sign(u)-dependent coefficients: composition is illegal.
        plan = compiled_plan(mesh3, _cfg(plan=True, thickness_adv_order=3))
        assert plan.composed == ()

    @pytest.mark.parametrize(
        "kw", [dict(thickness_adv_order=4),
               dict(thickness_adv_order=4, hyperviscosity=1.0e13)],
        ids=["order4", "order4+del4"],
    )
    def test_composed_within_1e12_of_exact(self, mesh3, kw):
        """Composed plan against the unfused sparse kernels."""
        expected = {"h_edge_order4"} | ({"del4"} if "hyperviscosity" in kw else set())
        assert set(compiled_plan(mesh3, _cfg(plan=True, **kw)).composed) == expected
        _assert_kernels_bitwise(mesh3, kw, tol=1e-12)

    def test_composition_follows_the_oracle(self, mesh3, monkeypatch):
        """del4 composes at any order; a chain whose intermediate the caller
        observes does not compose — order 4 then replays the unfused
        kernels bit for bit, and del4 (which has no unfused stage) refuses
        to compile."""
        import repro.engine.plan as plan_module

        hv = dict(hyperviscosity=1.0e13)
        assert compiled_plan(mesh3, _cfg(plan=True, **hv)).composed == ("del4",)
        protected = plan_module._PROTECTED_VARS
        monkeypatch.setattr(
            plan_module, "_PROTECTED_VARS", protected | {"d2fdx2_cell1"}
        )
        assert compile_plan(mesh3, _cfg(plan=True, thickness_adv_order=4)).composed == ()
        clear_plan_memory_cache()
        try:
            _assert_kernels_bitwise(mesh3, dict(thickness_adv_order=4))
            monkeypatch.setattr(plan_module, "_PROTECTED_VARS", protected | {"div2"})
            with pytest.raises(ValueError, match="del4"):
                compile_plan(mesh3, _cfg(plan=True, **hv))
        finally:
            clear_plan_memory_cache()


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
