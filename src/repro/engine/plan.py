"""Fused per-mesh execution plans compiled from the Fig. 4 dataflow graph.

Dispatching the 14 operators one at a time pays, per call, a registry
lookup, a metrics timer, a fault site and a fresh output allocation.  For
``backend="sparse"`` this module removes all of that: :func:`compile_plan`
topologically schedules an RK substep from the data-flow diagram
(:mod:`repro.dataflow.schedule`) and emits one :class:`ExecutionPlan` per
``(mesh, config)`` — a flat list of closures over the cached CSR operators
and preallocated scratch buffers.  That includes the bilinear
``coriolis_edge_term`` (B1), emitted as the two matvecs + four elementwise
ops of :class:`repro.engine.sparse.CoriolisOp`.

Composition
-----------
Every stage executes the floating-point expressions of the unfused sparse
backend (same matvecs, same ufunc sequence, into reused ``out=`` buffers):
those stages are **bitwise identical** to it.  The one exception is decided
at compile time: a chain of linear operators with input-independent
coefficients whose intermediates the scheduler's single-consumer oracle
certifies is composed into one matrix — the 4th-order ``h_edge`` operator
and the del4 chain — which reassociates the row sums (~1e-12 relative).
Composing runs in ``scipy.sparse``, imported only when a composed matrix
misses the cache; a rank's composed matrix is the parent mesh's, restricted
to its rows like every operator (:mod:`repro.engine.sparse`).

Caching
-------
Plans are memoized **per thread** and per mesh, keyed by :func:`plan_key`:
a plan owns scratch buffers and is not re-entrant, so two threads stepping
one ``(mesh, config)`` each compile their own over the same shared CSR
operators (:func:`repro.engine.sparse.sparse_operator`).  Composed matrices
are the operator archive ``"plan_<name>"`` stamped :data:`PLAN_CACHE_VERSION`.
The ``mpas_reconstruct`` stages compile on first use.

Execution semantics
-------------------
One entry point per Algorithm-1 kernel (:meth:`ExecutionPlan.tend`,
:meth:`~ExecutionPlan.diagnostics`, :meth:`~ExecutionPlan.reconstruct`):
the halo exchanges of Fig. 4 are barriers between those segments, and the
decomposed executors run them.  With the tracer enabled every stage runs
under a ``category="plan"`` span.  The two tendency outputs live in
plan-owned buffers reused across calls; Diagnostics and Reconstruction
outputs are allocated per call because callers retain them.

From :data:`HELPER_MIN_NNZ` entries of ``K`` on, B1 and B2 start their
kernels, and one ``K`` product of each runs on the lane that
:func:`repro.engine.lanes.second_core` engaged for the calling thread until
a ``join`` stage, or inline without one: the same bits either way.

Batched plans
-------------
``compile_plan(..., batch=N)`` returns the memoized serial plan wrapped in a
column loop (:class:`repro.ensemble.batch.ColumnPlan`): each member column
runs the serial program, so column k is member k's serial result by
construction.  No run path builds one; the benchmark probes of
``benchmarks/e2e`` still do.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .lanes import engaged
from .sparse import (
    CSR,
    _cached_operator,
    _matvec,
    _triples,
    scipy_sparse,
    sparse_operator,
)

__all__ = [
    "PLAN_CACHE_VERSION",
    "PLANNED_OPS",
    "PLAN_LOCAL_LABELS",
    "ExecutionPlan",
    "PlanStage",
    "plan_key",
    "compile_plan",
    "compiled_plan",
    "kernel_plan",
    "clear_plan_memory_cache",
    "unplanned_labels",
]

#: Format version of compiled-plan disk artifacts (the composed matrices).
#: Bump whenever the plan compiler's emitted algebra changes; stale files
#: are recompiled and overwritten, never loaded blindly.
PLAN_CACHE_VERSION = 1

#: Fewest entries of ``K`` whose products go to the second core: ~100 us of
#: matvec against ~30 us for a lane to start.  Level 5 has 307,140; <= 4 inline.
HELPER_MIN_NNZ = 150_000

#: Registry ops the plan compiler consumes into fused stages.  This must
#: be the whole registry — the lint test asserts it, so a newly registered
#: operator must gain a plan emitter.
PLANNED_OPS = frozenset(
    {
        "flux_divergence",
        "kinetic_energy",
        "cell_divergence",
        "velocity_reconstruction",
        "coriolis_edge_term",
        "tangential_velocity",
        "d2fdx2",
        "cell_to_edge_mean",
        "vertex_from_cells_kite",
        "cell_from_vertices_kite",
        "vertex_to_edge_mean",
        "vertex_curl",
        "edge_gradient_of_cell",
        "edge_gradient_of_vertex",
    }
)

#: Table I labels that are integrator-local state updates (X patterns):
#: they live in :mod:`repro.swm.timestep` / ``boundary`` and are not part
#: of a fused kernel program.
PLAN_LOCAL_LABELS = frozenset({"X1", "X2", "X3", "X4", "X5"})

#: Kernel outputs the caller observes; never legal fusion seams.
_PROTECTED_VARS = frozenset(
    {
        "tend_h",
        "tend_u",
        "h_edge",
        "ke",
        "vorticity",
        "divergence",
        "v",
        "h_vertex",
        "pv_vertex",
        "pv_cell",
        "pv_edge",
    }
)

_UNSTABLE_MSG = (
    "non-positive h_vertex: the simulation has gone unstable "
    "(reduce dt or check the initial condition)"
)


# ------------------------------------------------------------- plan stages
@dataclass(slots=True)
class PlanStage:
    """One step of a fused program: its one zero-dispatch closure ``fast(ctx)``."""

    name: str
    fast: Callable
    kind: str = "elementwise"
    op: str | None = None
    pattern: str | None = None
    helper: str = ""  # "start" / "join": work on the second core


def _start(lane, fn, *args) -> None:
    if lane is None:
        fn(*args)
    else:
        lane.submit(fn, *args)


def _join(lane) -> None:
    if lane is not None:
        start = time.perf_counter()
        lane.join()
        get_registry().counter("engine.plan.lane.wait_s").inc(time.perf_counter() - start)


# ---------------------------------------------------------- composed cache
_COMPOSED_MEM: "weakref.WeakKeyDictionary[object, dict[str, CSR]]" = (
    weakref.WeakKeyDictionary()
)


def _composed_operator(mesh, name: str, build: Callable[[object], CSR]):
    """A composed matrix behind the operator cache's two levels: the archive
    is the operator ``"plan_<name>"``, stamped :data:`PLAN_CACHE_VERSION`."""
    return _cached_operator(
        _COMPOSED_MEM, mesh, f"plan_{name}", build,
        kind="plan", plan_version=PLAN_CACHE_VERSION,
    )


# ------------------------------------------------------------ the compiler
def plan_key(config) -> tuple:
    """The config fields that change a compiled plan's structure or algebra."""
    return (
        config.backend,
        bool(config.advection_only),
        int(config.thickness_adv_order),
        float(config.coef_3rd_order),
        float(config.apvm_upwinding),
        float(config.dt),
        float(config.gravity),
        float(config.viscosity),
        float(config.hyperviscosity),
    )


def unplanned_labels(config=None) -> set[str]:
    """Scheduled Table I labels with neither a plan emitter nor a whitelist.

    Empty for the shipped model; a new catalog instance must either gain an
    emitter in :class:`_Compiler` or join :data:`PLAN_LOCAL_LABELS`.
    """
    from ..dataflow.schedule import schedule_substep

    handled = set(_Compiler.EMITTED_LABELS) | set(PLAN_LOCAL_LABELS)
    labels: set[str] = set()
    for stage in (1, 4):
        sched = schedule_substep(config, stage=stage)
        for node in sched.nodes():
            labels.add(sched.graph.instance(node).label)
    return {lab for lab in labels if lab not in handled}


class ExecutionPlan:
    """A compiled, fused RK-substep program for one ``(mesh, config)``."""

    def __init__(
        self,
        mesh,
        tend_stages: list[PlanStage],
        diag_stages: list[PlanStage],
        compile_recon: Callable[[object], list[PlanStage]],
        buffers: dict[str, np.ndarray],
        composed: tuple[str, ...],
    ) -> None:
        self._mesh = weakref.ref(mesh)
        self._tend = tend_stages
        self._diag = diag_stages
        self._compile_recon = compile_recon
        self._buffers = buffers
        self.composed = composed
        self._n = (mesh.nCells, mesh.nEdges, mesh.nVertices)
        self.helped = any(st.helper for st in tend_stages + diag_stages)

    @functools.cached_property
    def _recon(self) -> list[PlanStage]:
        # On first use: ``mpas_reconstruct`` is not part of the RK step and a
        # decomposed rank never runs it, so neither its stages nor the
        # per-cell fits behind the A4 operator are compiled with the plan.
        return self._compile_recon(self._mesh())

    # ------------------------------------------------------------ executor
    def _run(self, stages: list[PlanStage], ctx: dict) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            for st in stages:
                with tracer.span(
                    st.name,
                    category="plan",
                    stage_kind=st.kind,
                    op=st.op or "-",
                    pattern=st.pattern or "-",
                ):
                    st.fast(ctx)
        else:
            for st in stages:
                st.fast(ctx)

    def _ctx(self, **runtime) -> dict:
        return {**self._buffers, "lane": engaged(), **runtime}

    # ------------------------------------------------------- kernel bodies
    def tend(self, state, diag, b_cell) -> tuple[np.ndarray, np.ndarray]:
        """Fused ``compute_tend``: the (A1, B1) segment of the schedule."""
        with get_registry().timer("engine.plan", segment="tend").time():
            ctx = self._ctx(
                h=state.h,
                u=state.u,
                b=b_cell,
                h_edge=diag.h_edge,
                ke=diag.ke,
                pv_edge=diag.pv_edge,
                divergence=diag.divergence,
                vorticity=diag.vorticity,
            )
            self._run(self._tend, ctx)
            return ctx["tend_h"], ctx["tend_u"]

    def diagnostics(self, state, f_vertex):
        """Fused ``compute_solve_diagnostics``: the post-exchange segment."""
        from ..swm.state import Diagnostics

        n_cells, n_edges, n_vertices = self._n
        with get_registry().timer("engine.plan", segment="diagnostics").time():
            ctx = self._ctx(
                h=state.h,
                u=state.u,
                f=f_vertex,
                h_edge=np.empty(n_edges),
                ke=np.empty(n_cells),
                vorticity=np.empty(n_vertices),
                divergence=np.empty(n_cells),
                v=np.empty(n_edges),
                h_vertex=np.empty(n_vertices),
                pv_vertex=np.empty(n_vertices),
                pv_cell=np.empty(n_cells),
                pv_edge=np.empty(n_edges),
            )
            self._run(self._diag, ctx)
            return Diagnostics(
                h_edge=ctx["h_edge"],
                ke=ctx["ke"],
                vorticity=ctx["vorticity"],
                divergence=ctx["divergence"],
                v=ctx["v"],
                h_vertex=ctx["h_vertex"],
                pv_vertex=ctx["pv_vertex"],
                pv_cell=ctx["pv_cell"],
                pv_edge=ctx["pv_edge"],
            )

    def reconstruct(self, u_edge):
        """Fused ``mpas_reconstruct``: the (A4, X6) segment of stage 4."""
        from ..swm.state import Reconstruction

        with get_registry().timer("engine.plan", segment="reconstruct").time():
            ctx = self._ctx(u=u_edge)
            self._run(self._recon, ctx)
            U = ctx["U"]
            return Reconstruction(
                uReconstructX=U[:, 0],
                uReconstructY=U[:, 1],
                uReconstructZ=U[:, 2],
                uReconstructZonal=ctx["zonal"],
                uReconstructMeridional=ctx["meridional"],
            )

    # ------------------------------------------------------- introspection
    def stages(self) -> dict[str, list[PlanStage]]:
        return {
            "tend": list(self._tend),
            "diagnostics": list(self._diag),
            "reconstruct": list(self._recon),
        }

    def describe(self) -> str:
        """A deterministic, human-readable stage table (used by the docs)."""
        lines = [f"ExecutionPlan composed={list(self.composed)}"]
        for segment, stages in self.stages().items():
            lines.append(f"{segment}:")
            for st in stages:
                lines.append(
                    f"  {st.name:24s} {st.kind:11s} "
                    f"op={st.op or '-'} pattern={st.pattern or '-'}"
                    + (f" helper={st.helper}" if st.helper else "")
                )
        return "\n".join(lines)


class _Compiler:
    """Builds the stage lists for one ``(mesh, config)`` pair.

    Emitters are keyed by Table I label and walk the scheduler's node
    order, so the fused program is exactly the dataflow diagram's
    topological schedule.  Every closure captures matrices, buffers and
    scalars — never the mesh or the compiler — so a cached plan does not
    keep its (weakly referenced) mesh alive.
    """

    #: Labels this compiler can emit stages for (the lint's other half is
    #: :data:`PLAN_LOCAL_LABELS`).
    EMITTED_LABELS = (
        "A1", "B1", "C1", "C2", "D1", "A2", "A3", "H1", "B2",
        "E1", "F1", "G1", "A4", "X6",
    )

    def __init__(self, mesh, config) -> None:
        self.mesh = mesh
        self.config = config
        n_cells, n_edges = mesh.nCells, mesh.nEdges
        self.buffers: dict[str, np.ndarray] = {
            "tend_h": np.zeros(n_cells),
            "tend_u": np.zeros(n_edges),
        }
        # Scratch arena, reused across steps (sized by the widest stage).
        self._e1 = np.zeros(n_edges)
        self._e2 = np.zeros(n_edges)
        self._e3 = np.zeros(n_edges)
        self._c1 = np.zeros(n_cells)
        # With HELPER_MIN_NNZ entries in K, B1 starts before A1 and the second
        # core reads e1 meanwhile: A1's flux and B1's f q get a buffer of their own.
        self.helped = self.matrix("tangential_velocity").nnz >= HELPER_MIN_NNZ
        self._e4 = np.zeros(n_edges) if self.helped else self._e1
        self.composed: list[str] = []

    def matrix(self, name: str) -> CSR:
        return sparse_operator(self.mesh, name)

    @staticmethod
    def _composable(sched, intermediates: tuple[str, ...]) -> bool:
        """May a linear chain through ``intermediates`` fold into one matrix?

        Each intermediate must be a seam the scheduler's single-consumer
        oracle certifies, or a value no graph edge carries (internal to one
        Table I node) that the caller does not observe either.
        """
        from ..dataflow.schedule import single_consumer_vars

        instances = [sched.graph.instance(node) for node in sched.graph.order]
        carried = {var for i in instances for var in (*i.inputs, *i.outputs)}
        seams = single_consumer_vars(sched.graph, protected=_PROTECTED_VARS)
        return all(
            var in seams or (var not in carried and var not in _PROTECTED_VARS)
            for var in intermediates
        )

    def _h_edge_composes(self, sched) -> bool:
        # Only the 4th-order combine has input-independent coefficients;
        # order 3's sign(u) never composes.
        return self.config.thickness_adv_order == 4 and self._composable(
            sched, ("d2fdx2_cell1", "d2fdx2_cell2")
        )

    def _composed(self, name: str, build: Callable[[object], CSR]):
        self.composed.append(name)
        return _composed_operator(self.mesh, name, build)

    # ----------------------------------------------------------- emitters
    def compile_kernel(self, sched, kernel: str) -> list[PlanStage]:
        emitted: list[tuple[str, list[PlanStage]]] = []
        for node in sched.nodes_for_kernel(kernel):
            label = sched.graph.instance(node).label
            emit = getattr(self, f"_emit_{label}".replace(",", "_"), None)
            if emit is None:
                raise KeyError(
                    f"no plan emitter for Table I label {label!r} "
                    f"(node {node!r}); add one or whitelist it"
                )
            emitted.append((node, emit(sched)))
        # A node's second-core work starts the kernel and is joined before the
        # node's other stages, or else before the first node reading its outputs;
        # the graph must certify it independent of all the caller runs meanwhile.
        at = next((i for i, (_, sts) in enumerate(emitted) if sts[:1]
                   and sts[0].helper == "start"), None)
        if at is not None:
            from ..dataflow.analysis import independent_sets

            graph, (node, (start, *rest)) = sched.graph, emitted.pop(at)
            out = set(graph.instance(node).outputs)
            until = at if rest else next((i for i, (n, _) in enumerate(emitted)
                                          if out & set(graph.instance(n).inputs)), len(emitted))
            if not all(independent_sets(graph, [node, n]) for n, _ in emitted[:until]):
                raise ValueError(f"{node} depends on a node it would run beside")
            join = PlanStage(f"join_{start.name}", lambda ctx: _join(ctx["lane"]),
                             kind="join", helper="join")
            emitted[:until] = [(node, [start]), *emitted[:until], (node, [join, *rest])]
        return [st for _, stages in emitted for st in stages]

    def _emit_A1(self, sched) -> list[PlanStage]:
        M = self.matrix("cell_divergence")
        e4, c1 = self._e4, self._c1

        def fast(ctx):
            np.multiply(ctx["u"], ctx["h_edge"], out=e4)
            _matvec(M, e4, c1)
            np.negative(c1, out=ctx["tend_h"])

        return [
            PlanStage(
                "flux_divergence", fast, kind="matvec",
                op="flux_divergence", pattern="A1",
            )
        ]

    def _emit_B1(self, sched) -> list[PlanStage]:
        if self.config.advection_only:
            def freeze(ctx):
                ctx["tend_u"].fill(0.0)

            return [PlanStage("freeze_u", freeze, kind="elementwise")]

        # 0.5 * (q * (K f) + K (f * q)) with f = u * h_edge: the ufunc
        # sequence of :class:`repro.engine.sparse.CoriolisOp`, into buffers.
        # With a helper K f runs there; compile_kernel then moves the start
        # stage first and joins before the sum.
        K = self.matrix("tangential_velocity")
        e1, e2, e3, fq, helped = self._e1, self._e2, self._e3, self._e4, self.helped

        def cor_start(ctx):
            np.multiply(ctx["u"], ctx["h_edge"], out=e1)
            _start(ctx["lane"] if helped else None, _matvec, K, e1, e2)
            np.multiply(e1, ctx["pv_edge"], out=fq)
            _matvec(K, fq, e3)

        def cor_sum(ctx):
            np.multiply(ctx["pv_edge"], e2, out=e2)
            np.add(e2, e3, out=e2)
            np.multiply(e2, 0.5, out=ctx["tend_u"])

        def cor_fast(ctx):
            cor_start(ctx)
            cor_sum(ctx)

        cor = PlanStage("coriolis_edge_term", cor_fast, kind="matvec",
                        op="coriolis_edge_term", pattern="B1")
        stages = [cor]
        if helped:
            cor.fast, cor.helper = cor_start, "start"
            stages.append(PlanStage("coriolis_sum", cor_sum))

        Mgc = self.matrix("edge_gradient_of_cell")
        g = self.config.gravity
        c1 = self._c1

        def bern_fast(ctx):
            np.add(ctx["h"], ctx["b"], out=c1)
            np.multiply(c1, g, out=c1)
            np.add(ctx["ke"], c1, out=c1)
            _matvec(Mgc, c1, e1)
            np.subtract(ctx["tend_u"], e1, out=ctx["tend_u"])

        stages.append(
            PlanStage(
                "bernoulli_gradient", bern_fast, kind="matvec",
                op="edge_gradient_of_cell",
            )
        )

        if self.config.viscosity != 0.0:
            Mgv = self.matrix("edge_gradient_of_vertex")
            visc = self.config.viscosity

            def visc_fast(ctx):
                _matvec(Mgc, ctx["divergence"], e1)
                _matvec(Mgv, ctx["vorticity"], e2)
                np.subtract(e1, e2, out=e1)
                np.multiply(e1, visc, out=e1)
                np.add(ctx["tend_u"], e1, out=ctx["tend_u"])

            stages.append(
                PlanStage("del2_dissipation", visc_fast, kind="matvec")
            )

        if self.config.hyperviscosity != 0.0:
            stages.append(self._hyperviscosity_stage(sched))
        return stages

    def _hyperviscosity_stage(self, sched) -> PlanStage:
        # del4 = (grad_c . div - grad_v . curl)(del2_u): the four matvecs
        # after del2_u composed into one matrix.  Its intermediates (div2,
        # vort2) are internal to the B1 pricing, so the oracle allows it.
        if not self._composable(sched, ("div2", "vort2")):
            raise ValueError(
                "the del4 intermediates div2/vort2 are observed: the chain "
                "cannot compose and the plan has no unfused del4 stage"
            )
        Mgc = self.matrix("edge_gradient_of_cell")
        Mgv = self.matrix("edge_gradient_of_vertex")
        hv = self.config.hyperviscosity
        e1, e2 = self._e1, self._e2

        def build(mesh):
            sp = scipy_sparse()  # composing is the one use of the package
            grad_c, grad_v, div, curl = (sparse_operator(mesh, op).to_scipy() for op in (
                "edge_gradient_of_cell", "edge_gradient_of_vertex",
                "cell_divergence", "vertex_curl",
            ))
            return CSR.from_scipy(sp.csr_matrix(grad_c @ div - grad_v @ curl))

        D4 = self._composed("del4", build)

        def fast(ctx):
            _matvec(Mgc, ctx["divergence"], e1)
            _matvec(Mgv, ctx["vorticity"], e2)
            np.subtract(e1, e2, out=e1)  # del2_u
            _matvec(D4, e1, e2)  # del4_u in one composed matvec
            np.multiply(e2, hv, out=e2)
            np.subtract(ctx["tend_u"], e2, out=ctx["tend_u"])

        return PlanStage("del4_dissipation", fast, kind="composed")

    def _emit_C1(self, sched) -> list[PlanStage]:
        if self.config.thickness_adv_order == 2 or self._h_edge_composes(sched):
            return []  # nothing to correct, or folded into the composed D1
        Md2 = self.matrix("d2fdx2")
        d2 = self._d2 = np.zeros(2 * self.mesh.nEdges)  # read by D1

        def fast(ctx):
            _matvec(Md2, ctx["h"], d2)

        return [PlanStage("d2fdx2", fast, kind="matvec", op="d2fdx2")]

    def _emit_C2(self, sched) -> list[PlanStage]:
        return []  # computed by the fused C1 sweep (one two-row matvec)

    def _emit_D1(self, sched) -> list[PlanStage]:
        order = self.config.thickness_adv_order
        if self._h_edge_composes(sched):

            def build(mesh):
                sp = scipy_sparse()  # composing is the one use of the package
                dc2_half = (mesh.metrics.dcEdge**2 / 12.0) * 0.5
                Mmean = sparse_operator(mesh, "cell_to_edge_mean").to_scipy()
                Md2 = sparse_operator(mesh, "d2fdx2").to_scipy()
                S = Md2[0::2] + Md2[1::2]  # d2_1 + d2_2 rows per edge
                return CSR.from_scipy(sp.csr_matrix(Mmean - sp.diags(dc2_half) @ S))

            H4 = self._composed("h_edge_order4", build)

            def fast(ctx):
                _matvec(H4, ctx["h"], ctx["h_edge"])

            return [PlanStage("h_edge_order4", fast, kind="composed")]

        Mmean = self.matrix("cell_to_edge_mean")
        stages = [
            PlanStage(
                "cell_to_edge_mean",
                lambda ctx, M=Mmean: _matvec(M, ctx["h"], ctx["h_edge"]),
                kind="matvec",
                op="cell_to_edge_mean",
                pattern="D1",
            )
        ]
        if order == 2:
            return stages

        d2 = self._d2
        d2_1, d2_2 = d2[0::2], d2[1::2]
        e1, e2 = self._e1, self._e2
        dc2_12 = self.mesh.metrics.dcEdge**2 / 12.0
        dc2_half = dc2_12 * 0.5

        def corr_fast(ctx):
            np.add(d2_1, d2_2, out=e1)
            np.multiply(e1, dc2_half, out=e1)
            np.subtract(ctx["h_edge"], e1, out=ctx["h_edge"])

        stages.append(PlanStage("h_edge_correction", corr_fast))
        if order == 3:
            coef = self.config.coef_3rd_order

            def upwind_fast(ctx):
                np.sign(ctx["u"], out=e2)
                np.multiply(e2, coef, out=e2)
                np.multiply(e2, dc2_12, out=e2)
                np.multiply(e2, 0.5, out=e2)
                np.subtract(d2_2, d2_1, out=e1)
                np.multiply(e2, e1, out=e2)
                np.add(ctx["h_edge"], e2, out=ctx["h_edge"])

            stages.append(PlanStage("h_edge_upwind3", upwind_fast))
        return stages

    def _emit_A2(self, sched) -> list[PlanStage]:
        M = self.matrix("kinetic_energy")
        e1 = self._e1

        def fast(ctx):
            np.multiply(ctx["u"], ctx["u"], out=e1)
            _matvec(M, e1, ctx["ke"])

        return [
            PlanStage(
                "kinetic_energy", fast, kind="matvec",
                op="kinetic_energy", pattern="A2",
            )
        ]

    def _plain_matvec(self, name, op, pattern, out_key, in_key) -> PlanStage:
        M = self.matrix(op)

        def fast(ctx):
            _matvec(M, ctx[in_key], ctx[out_key])

        return PlanStage(name, fast, kind="matvec", op=op, pattern=pattern)

    def _emit_A3(self, sched) -> list[PlanStage]:
        return [
            self._plain_matvec("divergence", "cell_divergence", "A3", "divergence", "u")
        ]

    def _emit_H1(self, sched) -> list[PlanStage]:
        return [self._plain_matvec("vorticity", "vertex_curl", "H1", "vorticity", "u")]

    def _emit_B2(self, sched) -> list[PlanStage]:
        stage = self._plain_matvec("tangential_velocity", "tangential_velocity", "B2", "v", "u")
        K = self.matrix("tangential_velocity")
        if self.helped:  # compile_kernel moves it first and adds the join
            stage.fast = lambda ctx: _start(ctx["lane"], _matvec, K, ctx["u"], ctx["v"])
            stage.helper = "start"
        return [stage]

    def _emit_E1(self, sched) -> list[PlanStage]:
        M = self.matrix("vertex_from_cells_kite")

        def fast(ctx):
            hv = _matvec(M, ctx["h"], ctx["h_vertex"])
            if np.any(hv <= 0.0):
                raise FloatingPointError(_UNSTABLE_MSG)
            np.add(ctx["f"], ctx["vorticity"], out=ctx["pv_vertex"])
            np.divide(ctx["pv_vertex"], hv, out=ctx["pv_vertex"])

        return [
            PlanStage(
                "pv_vertex", fast, kind="matvec",
                op="vertex_from_cells_kite", pattern="E1",
            )
        ]

    def _emit_F1(self, sched) -> list[PlanStage]:
        return [
            self._plain_matvec(
                "pv_cell", "cell_from_vertices_kite", "F1", "pv_cell", "pv_vertex"
            )
        ]

    def _emit_G1(self, sched) -> list[PlanStage]:
        stages = [
            self._plain_matvec(
                "pv_edge", "vertex_to_edge_mean", "G1", "pv_edge", "pv_vertex"
            )
        ]
        if self.config.apvm_upwinding != 0.0:
            Mgv = self.matrix("edge_gradient_of_vertex")
            Mgc = self.matrix("edge_gradient_of_cell")
            factor = self.config.apvm_upwinding * self.config.dt
            e1, e2 = self._e1, self._e2

            def apvm_fast(ctx):
                _matvec(Mgv, ctx["pv_vertex"], e1)
                _matvec(Mgc, ctx["pv_cell"], e2)
                np.multiply(ctx["v"], e1, out=e1)
                np.multiply(ctx["u"], e2, out=e2)
                np.add(e1, e2, out=e1)
                np.multiply(e1, factor, out=e1)
                np.subtract(ctx["pv_edge"], e1, out=ctx["pv_edge"])

            stages.append(PlanStage("apvm_upwinding", apvm_fast, kind="matvec"))
        return stages

    def _emit_A4(self, sched) -> list[PlanStage]:
        M = self.matrix("velocity_reconstruction")

        def fast(ctx):
            ctx["U"] = _triples(M @ ctx["u"])

        return [
            PlanStage(
                "velocity_reconstruction", fast, kind="matvec",
                op="velocity_reconstruction", pattern="A4",
            )
        ]

    def _emit_X6(self, sched) -> list[PlanStage]:
        from ..geometry.sphere import tangent_basis

        east, north = tangent_basis(self.mesh.metrics.xCell)

        def fast(ctx):
            U = ctx["U"]
            ctx["zonal"] = np.sum(U * east, axis=1)
            ctx["meridional"] = np.sum(U * north, axis=1)

        return [PlanStage("tangent_rotation", fast)]


def compile_plan(mesh, config, batch: int = 0) -> ExecutionPlan:
    """Compile the fused :class:`ExecutionPlan` for ``(mesh, config)``.

    Requires ``config.backend == "sparse"`` (the plan closes over the CSR
    operators).  ``batch=N`` wraps the memoized serial plan in a column loop
    (see *Batched plans* in the module docs).  Use :func:`compiled_plan` for
    the memoizing entry point the kernels call.
    """
    from ..dataflow.schedule import schedule_substep

    if batch:
        return compiled_plan(mesh, config, batch=batch)
    if config.backend != "sparse":
        raise ValueError(
            "execution plans require backend='sparse' "
            f"(got backend={config.backend!r})"
        )
    comp = _Compiler(mesh, config)
    sched1 = schedule_substep(config, stage=1)
    sched4 = schedule_substep(config, stage=4)
    tend = comp.compile_kernel(sched1, "compute_tend")
    diag = comp.compile_kernel(sched1, "compute_solve_diagnostics")

    def compile_recon(mesh) -> list[PlanStage]:
        # Takes the mesh as an argument: a closure over it would pin the
        # mesh the memoized plan only references weakly.
        recon = _Compiler(mesh, config)
        return recon.compile_kernel(sched4, "mpas_reconstruct")

    return ExecutionPlan(
        mesh,
        tend_stages=tend,
        diag_stages=diag,
        compile_recon=compile_recon,
        buffers=comp.buffers,
        composed=tuple(comp.composed),
    )


# ----------------------------------------------------------- plan memoizer
class _ThreadPlans(threading.local):
    """Per thread: mesh -> {key: plan}.  A plan's scratch buffers are written
    by every call, so no two threads may share one."""

    def __init__(self) -> None:
        self.by_mesh = weakref.WeakKeyDictionary()


_PLANS = _ThreadPlans()


def compiled_plan(mesh, config, batch: int = 0) -> ExecutionPlan:
    """The calling thread's memoized plan for ``(mesh, config)``.

    Compiled at most once per thread and keyed by :func:`plan_key`, so a
    config mutation that changes the compiled structure (e.g. the rollback
    handler halving ``dt``, which is baked into the APVM factor)
    transparently compiles a fresh plan.  Plans are per-thread because they
    own scratch buffers; the CSR operators they close over are the same
    read-only instances on every thread, shared through the operator cache.
    ``batch=N`` wraps that plan in a column loop (see *Batched plans*).
    """
    plans = _PLANS.by_mesh.setdefault(mesh, {})
    key = plan_key(config)
    plan = plans.get(key)
    if plan is None:
        plan = compile_plan(mesh, config)
        plans[key] = plan
        get_registry().counter("engine.plan.compile").inc()
    if batch:
        from ..ensemble.batch import ColumnPlan

        return ColumnPlan(plan)
    return plan


def kernel_plan(mesh, config) -> ExecutionPlan | None:
    """The plan an Algorithm-1 kernel executes, or ``None`` for the unfused
    per-op path without ``config.plan``."""
    return compiled_plan(mesh, config) if config.plan else None


def clear_plan_memory_cache() -> None:
    """Drop the calling thread's compiled plans and the composed matrices
    (cache tests)."""
    _PLANS.by_mesh.clear()
    _COMPOSED_MEM.clear()
