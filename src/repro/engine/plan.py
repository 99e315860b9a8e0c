"""Fused per-mesh execution plans compiled from the Fig. 4 dataflow graph.

Dispatching the 14 operators one at a time pays, per call, a registry
lookup, a placement probe, a metrics timer, a fault site and a fresh output
allocation.  For ``backend="sparse"`` this module removes all of that:
:func:`compile_plan` topologically schedules an RK substep from the
data-flow diagram (:mod:`repro.dataflow.schedule`) and emits one
:class:`ExecutionPlan` per ``(mesh, config)`` — a flat list of closures
over the cached CSR operators and preallocated scratch buffers.  That
includes the bilinear ``coriolis_edge_term`` (B1), emitted as the two
matvecs + four elementwise ops of :class:`repro.engine.sparse.CoriolisOp`.

Two fusion modes
----------------
``plan_fuse="exact"`` (the default)
    Executes *exactly* the floating-point expressions of the unfused
    sparse backend — same matvecs against the same lane-ordered CSR
    matrices, same elementwise ufunc sequence — only without the
    per-dispatch overhead, and writing into reused scratch buffers
    (``out=``, which does not change a ufunc's arithmetic).  The result is
    **bitwise identical** to the unfused sparse backend in serial,
    lockstep, pool and split execution.
``plan_fuse="algebraic"``
    Additionally composes chains of linear operators into single matrices
    (e.g. the 4th-order ``h_edge`` operator, the del4 hyperviscosity
    chain).  Matrix composition reassociates the row sums, so this mode is
    mathematically equivalent but *not* bitwise identical; the test suite
    bounds it at ~1e-12 relative.  Composition is only legal across
    *single-consumer* intermediates (the scheduler's fusion-legality
    oracle) that no caller observes; the order-3 upwinded correction can
    never compose because its ``sign(u)`` coefficients depend on the
    input.

Caching
-------
Plans are memoized **per thread** and per mesh (a ``threading.local``
holding a ``WeakKeyDictionary``), keyed by the structure-affecting config
fields (:func:`plan_key`): a plan owns scratch buffers, so two threads
stepping one ``(mesh, config)`` — the ensemble's member blocks — each
compile their own.  The CSR operators a plan closes over are shared,
read-only, by every thread's plan: they come from the two-level operator
cache (:func:`repro.engine.sparse.sparse_operator`: memory + versioned
``.npz`` on disk).  Matrices *composed* by the algebraic mode go through
the same archive reader/writer as the operator ``"plan_<name>"`` with
:data:`PLAN_CACHE_VERSION` stamped alongside the operator format version —
a version bump or mesh edit invalidates them exactly like the operators.
The ``mpas_reconstruct`` stages (and the A4 operator's per-cell fits)
compile on the first :meth:`~ExecutionPlan.reconstruct` / ``describe``.

Execution semantics
-------------------
The plan exposes one entry point per Algorithm-1 kernel it fuses
(:meth:`ExecutionPlan.tend`, :meth:`~ExecutionPlan.diagnostics`,
:meth:`~ExecutionPlan.reconstruct`) rather than one whole-substep program:
the halo exchanges of Fig. 4 are barriers between those segments
(:class:`repro.dataflow.schedule.Segment`), and the decomposed executors
must run them.  When split placements are active
(:func:`repro.engine.split.use_placements`), any stage whose Table I label
is split-placed routes through the registry dispatch — preserving the
band-reconciliation semantics and metrics — which stays bitwise identical
because CSR row-slicing commutes with the matvec.  When the tracer is
enabled, every stage runs under a ``category="plan"`` span.

Buffer discipline: the two tendency outputs live in plan-owned buffers
reused across calls (safe: every consumer reads them before the next
``tend`` call, and ``enforce_boundary_edge`` mutating them in place is the
contract); Diagnostics and Reconstruction outputs are freshly allocated
per call because callers retain them (run results, watchdogs, rollback
checkpoints).  A plan is not re-entrant across threads, which is why
:func:`compiled_plan` hands every thread its own.

Batched plans
-------------
``compile_plan(..., batch=N)`` emits the same stage program over
``(n, N)`` field blocks: every buffer gains a trailing *member* axis and
every CSR matvec becomes one matrix–matrix product against the whole
block (scipy's ``csr_matvecs`` kernel).  That kernel accumulates each
output row over the stored entries in exactly the order ``csr_matvec``
does, per column — so **column k of a batched stage is bitwise identical
to the serial stage applied to column k**, which is the foundation the
ensemble engine (:mod:`repro.ensemble`) builds its per-member
reproducibility contract on.  No stage loops over members (B1's two
matvecs run on the member block like every other stage); the ``E1``
stability check flags diverging members into a caller-provided mask
instead of raising, so one poisoned member cannot stall the batch.
Batched plans are memoized next to the serial ones, keyed by
``plan_key(config) + (batch,)``.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .sparse import _cached_operator, _triples, sparse_operator
from .split import active_placement, placements_active

__all__ = [
    "PLAN_CACHE_VERSION",
    "PLAN_FUSE_MODES",
    "PLANNED_OPS",
    "PLAN_LOCAL_LABELS",
    "ExecutionPlan",
    "PlanStage",
    "plan_key",
    "compile_plan",
    "compiled_plan",
    "clear_plan_memory_cache",
    "unplanned_labels",
]

#: Format version of compiled-plan disk artifacts (the composed matrices).
#: Bump whenever the plan compiler's emitted algebra changes; stale files
#: are recompiled and overwritten, never loaded blindly.
PLAN_CACHE_VERSION = 1

#: Accepted values of ``SWConfig.plan_fuse``.
PLAN_FUSE_MODES = ("exact", "algebraic")

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


# ------------------------------------------------------------ fast matvec
def _probe_kernel(name: str, x: np.ndarray):
    """scipy's raw ``csr_matvec`` / ``csr_matvecs`` kernel, verified bitwise
    against ``M @ x`` on the probe vector (1-D) or member block (2-D) ``x``.

    ``M @ x`` allocates a zero output and accumulates into it with exactly
    this kernel, so zeroing a reused buffer and calling it directly is
    bitwise identical while skipping the per-call allocation.  The
    multi-vector kernel walks each output row's stored entries in the same
    order as the single-vector one, so every column of a batched product is
    bitwise the serial matvec of that column — the batched plan's per-member
    reproducibility contract.  Any scipy that does not expose (or changes)
    a kernel falls back to ``M @ x``.
    """
    try:
        from scipy.sparse import _sparsetools

        fn = getattr(_sparsetools, name)
    except (ImportError, AttributeError):  # pragma: no cover - scipy variant
        return None
    m = sp.csr_matrix(np.arange(12.0).reshape(3, 4) / 7.0)
    out = np.zeros((3,) + x.shape[1:])
    try:
        fn(*m.shape, *x.shape[1:], m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    except Exception:  # pragma: no cover - scipy variant
        return None
    return fn if np.array_equal(out, m @ x) else None


_CSR_MATVEC = _probe_kernel("csr_matvec", np.linspace(-1.0, 1.0, 4))
_CSR_MATVECS = _probe_kernel("csr_matvecs", np.linspace(-1.0, 1.0, 8).reshape(4, 2))


def _matvec(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = m @ x`` into a preallocated buffer, bitwise-identical.

    Accepts a 1-D vector or a 2-D ``(n, N)`` member block; either way each
    column matches the serial ``m @ column`` bit for bit.
    """
    fn = _CSR_MATVECS if x.ndim == 2 else _CSR_MATVEC
    if fn is None or not (x.flags.c_contiguous and out.flags.c_contiguous):
        out[:] = m @ x
        return out
    out.fill(0.0)
    fn(*m.shape, *x.shape[1:], m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    return out


# ------------------------------------------------------------- plan stages
class PlanStage:
    """One step of a fused program: a fast closure + optional dispatch route.

    ``fast(ctx)`` is the zero-dispatch path.  ``routed(ctx)`` (when set)
    re-enters :meth:`KernelRegistry.dispatch` for the stage's operator; the
    executor takes it only when a *split* placement is active for
    ``pattern``, so split semantics (band reconciliation, metrics) are
    preserved under plans.
    """

    __slots__ = ("name", "kind", "op", "pattern", "fast", "routed")

    def __init__(
        self,
        name: str,
        fast: Callable,
        kind: str = "elementwise",
        op: str | None = None,
        pattern: str | None = None,
        routed: Callable | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.op = op
        self.pattern = pattern
        self.fast = fast
        self.routed = routed


def _split_routed(stage: PlanStage) -> bool:
    if stage.routed is None or stage.pattern is None:
        return False
    p = active_placement(stage.pattern)
    return p is not None and getattr(p, "device", None) == "split"


# ---------------------------------------------------------- composed cache
_COMPOSED_MEM: "weakref.WeakKeyDictionary[object, dict[str, sp.csr_matrix]]" = (
    weakref.WeakKeyDictionary()
)


def _composed_operator(mesh, name: str, build: Callable[[], sp.csr_matrix]):
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
        getattr(config, "plan_fuse", "exact"),
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
        fuse: str,
        tend_stages: list[PlanStage],
        diag_stages: list[PlanStage],
        compile_recon: Callable[[object], list[PlanStage]],
        buffers: dict[str, np.ndarray],
        composed: tuple[str, ...],
        batch: int = 0,
    ) -> None:
        self._mesh = weakref.ref(mesh)
        self.fuse = fuse
        #: 0 for a serial plan; N > 0 when the stages run over (n, N) blocks.
        self.batch = int(batch)
        self._tend = tend_stages
        self._diag = diag_stages
        self._compile_recon = compile_recon
        self._buffers = buffers
        self.composed = composed
        self._n = (mesh.nCells, mesh.nEdges, mesh.nVertices)

    @functools.cached_property
    def _recon(self) -> list[PlanStage]:
        # On first use: ``mpas_reconstruct`` is not part of the RK step and a
        # decomposed rank never runs it, so neither its stages nor the
        # per-cell fits behind the A4 operator are compiled with the plan.
        return self._compile_recon(self._mesh())

    # ------------------------------------------------------------ executor
    def _run(self, stages: list[PlanStage], ctx: dict) -> None:
        tracer = get_tracer()
        routed = placements_active()
        if tracer.enabled:
            for st in stages:
                fn = st.routed if (routed and _split_routed(st)) else st.fast
                with tracer.span(
                    st.name,
                    category="plan",
                    stage_kind=st.kind,
                    op=st.op or "-",
                    pattern=st.pattern or "-",
                ):
                    fn(ctx)
        elif routed:
            for st in stages:
                (st.routed if _split_routed(st) else st.fast)(ctx)
        else:
            for st in stages:
                st.fast(ctx)

    def _ctx(self, **runtime) -> dict:
        ctx = dict(self._buffers)
        ctx["mesh"] = self._mesh()
        ctx.update(runtime)
        return ctx

    # ------------------------------------------------------- kernel bodies
    def tend(self, state, diag, b_cell) -> tuple[np.ndarray, np.ndarray]:
        """Fused ``compute_tend``: the (A1, B1) segment of the schedule."""
        with get_registry().timer("engine.plan", segment="tend").time():
            b = b_cell[:, None] if (self.batch and b_cell.ndim == 1) else b_cell
            ctx = self._ctx(
                h=state.h,
                u=state.u,
                b=b,
                h_edge=diag.h_edge,
                ke=diag.ke,
                pv_edge=diag.pv_edge,
                divergence=diag.divergence,
                vorticity=diag.vorticity,
            )
            self._run(self._tend, ctx)
            return ctx["tend_h"], ctx["tend_u"]

    def diagnostics(self, state, f_vertex, unstable=None):
        """Fused ``compute_solve_diagnostics``: the post-exchange segment.

        For a batched plan ``unstable`` may be an ``(N,)`` bool array: the
        ``E1`` stability guard OR-s per-member non-positive ``h_vertex``
        flags into it instead of raising, so one diverging member cannot
        stall the batch.  ``None`` keeps the serial raise semantics.
        """
        from ..swm.state import Diagnostics

        n_cells, n_edges, n_vertices = self._n
        if self.batch:
            shp = lambda n: (n, self.batch)  # noqa: E731
        else:
            shp = lambda n: n  # noqa: E731
        with get_registry().timer("engine.plan", segment="diagnostics").time():
            f = (
                f_vertex[:, None]
                if (self.batch and f_vertex.ndim == 1)
                else f_vertex
            )
            ctx = self._ctx(
                h=state.h,
                u=state.u,
                f=f,
                h_edge=np.empty(shp(n_edges)),
                ke=np.empty(shp(n_cells)),
                vorticity=np.empty(shp(n_vertices)),
                divergence=np.empty(shp(n_cells)),
                v=np.empty(shp(n_edges)),
                h_vertex=np.empty(shp(n_vertices)),
                pv_vertex=np.empty(shp(n_vertices)),
                pv_cell=np.empty(shp(n_cells)),
                pv_edge=np.empty(shp(n_edges)),
            )
            if unstable is not None:
                ctx["unstable"] = unstable
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
        lines = [f"ExecutionPlan fuse={self.fuse} composed={list(self.composed)}"]
        for segment, stages in self.stages().items():
            lines.append(f"{segment}:")
            for st in stages:
                lines.append(
                    f"  {st.name:24s} {st.kind:11s} "
                    f"op={st.op or '-'} pattern={st.pattern or '-'}"
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

    def __init__(self, mesh, config, registry, batch: int = 0) -> None:
        self.mesh = mesh
        self.config = config
        self.registry = registry
        self.fuse = getattr(config, "plan_fuse", "exact")
        #: 0 compiles the serial plan; N > 0 compiles over (n, N) blocks.
        self.batch = int(batch)
        n_cells, n_edges, n_vertices = mesh.nCells, mesh.nEdges, mesh.nVertices
        shape = self._shape
        self.buffers: dict[str, np.ndarray] = {
            "tend_h": np.zeros(shape(n_cells)),
            "tend_u": np.zeros(shape(n_edges)),
        }
        # Scratch arena, reused across steps (sized by the widest stage).
        self._e1 = np.zeros(shape(n_edges))
        self._e2 = np.zeros(shape(n_edges))
        self._e3 = np.zeros(shape(n_edges))
        self._c1 = np.zeros(shape(n_cells))
        self._v1 = np.zeros(shape(n_vertices))
        if config.thickness_adv_order > 2:
            self._d2 = np.zeros(shape(2 * n_edges))
        self.composed: list[str] = []

    def _shape(self, n: int):
        return (n, self.batch) if self.batch else (n,)

    def _col(self, v: np.ndarray) -> np.ndarray:
        """A per-mesh constant vector, as a broadcastable column when batched.

        ``(n,) op (n, N)`` is an invalid numpy broadcast, so every mesh
        vector a batched stage multiplies a member block with must go in
        as ``(n, 1)``.  Broadcasting is per-column bitwise identical to
        the serial elementwise op.
        """
        return v[:, None] if self.batch else v

    def matrix(self, name: str) -> sp.csr_matrix:
        return sparse_operator(self.mesh, name)

    def _route(self, op: str, out_key: str, *in_keys: str) -> Callable:
        """A routed closure: registry dispatch copied into the plan buffer."""
        reg = self.registry

        def routed(ctx):
            res = reg.dispatch(
                op, ctx["mesh"], *(ctx[k] for k in in_keys), backend="sparse"
            )
            np.copyto(ctx[out_key], res)

        return routed

    # ----------------------------------------------------------- emitters
    def compile_kernel(self, sched, kernel: str) -> list[PlanStage]:
        stages: list[PlanStage] = []
        for node in sched.nodes_for_kernel(kernel):
            label = sched.graph.instance(node).label
            emit = getattr(self, f"_emit_{label}".replace(",", "_"), None)
            if emit is None:
                raise KeyError(
                    f"no plan emitter for Table I label {label!r} "
                    f"(node {node!r}); add one or whitelist it"
                )
            stages.extend(emit(sched))
        return stages

    def _emit_A1(self, sched) -> list[PlanStage]:
        M = self.matrix("cell_divergence")
        e1, c1 = self._e1, self._c1

        def fast(ctx):
            np.multiply(ctx["u"], ctx["h_edge"], out=e1)
            _matvec(M, e1, c1)
            np.negative(c1, out=ctx["tend_h"])

        reg = self.registry

        def routed(ctx):
            res = reg.dispatch(
                "flux_divergence", ctx["mesh"], ctx["u"], ctx["h_edge"],
                backend="sparse",
            )
            np.negative(res, out=ctx["tend_h"])

        return [
            PlanStage(
                "flux_divergence", fast, kind="matvec",
                op="flux_divergence", pattern="A1", routed=routed,
            )
        ]

    def _emit_B1(self, sched) -> list[PlanStage]:
        if self.config.advection_only:
            def freeze(ctx):
                ctx["tend_u"].fill(0.0)

            return [PlanStage("freeze_u", freeze, kind="elementwise")]

        # 0.5 * (q * (K f) + K (f * q)) with f = u * h_edge: the ufunc
        # sequence of :class:`repro.engine.sparse.CoriolisOp`, into buffers.
        K = self.matrix("tangential_velocity")
        e1, e2, e3 = self._e1, self._e2, self._e3

        def cor_fast(ctx):
            q = ctx["pv_edge"]
            np.multiply(ctx["u"], ctx["h_edge"], out=e1)
            _matvec(K, e1, e2)
            np.multiply(e1, q, out=e1)
            _matvec(K, e1, e3)
            np.multiply(q, e2, out=e2)
            np.add(e2, e3, out=e2)
            np.multiply(e2, 0.5, out=ctx["tend_u"])

        stages = [
            PlanStage(
                "coriolis_edge_term", cor_fast, kind="matvec",
                op="coriolis_edge_term", pattern="B1",
                routed=self._route(
                    "coriolis_edge_term", "tend_u", "u", "h_edge", "pv_edge"
                ),
            )
        ]

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
            stages.append(self._hyperviscosity_stage())
        return stages

    def _hyperviscosity_stage(self) -> PlanStage:
        Mgc = self.matrix("edge_gradient_of_cell")
        Mgv = self.matrix("edge_gradient_of_vertex")
        hv = self.config.hyperviscosity
        e1, e2, e3, c1, v1 = self._e1, self._e2, self._e3, self._c1, self._v1
        reg = self.registry

        if self.fuse == "algebraic":
            # del4 = (grad_c . div - grad_v . curl)(del2_u): four matvecs
            # composed into one matrix.  The intermediates (div2, vort2,
            # their gradients) are internal to the B1 pricing — nothing
            # observes them — so the composition is legal; it is *not*
            # bitwise (matrix products reassociate the row sums).
            mesh = self.mesh

            def build():
                d4 = (Mgc @ sparse_operator(mesh, "cell_divergence")) - (
                    Mgv @ sparse_operator(mesh, "vertex_curl")
                )
                return sp.csr_matrix(d4)

            D4 = _composed_operator(mesh, "del4", build)
            self.composed.append("del4")

            def fast(ctx):
                _matvec(Mgc, ctx["divergence"], e1)
                _matvec(Mgv, ctx["vorticity"], e2)
                np.subtract(e1, e2, out=e1)  # del2_u
                _matvec(D4, e1, e2)  # del4_u in one composed matvec
                np.multiply(e2, hv, out=e2)
                np.subtract(ctx["tend_u"], e2, out=ctx["tend_u"])

            return PlanStage("del4_dissipation", fast, kind="composed")

        Mdiv = self.matrix("cell_divergence")
        Mcurl = self.matrix("vertex_curl")

        def fast(ctx):
            _matvec(Mgc, ctx["divergence"], e1)
            _matvec(Mgv, ctx["vorticity"], e2)
            np.subtract(e1, e2, out=e1)  # del2_u
            _matvec(Mdiv, e1, c1)  # div2
            _matvec(Mcurl, e1, v1)  # vort2
            _matvec(Mgc, c1, e2)
            _matvec(Mgv, v1, e3)
            np.subtract(e2, e3, out=e2)  # del4_u
            np.multiply(e2, hv, out=e2)
            np.subtract(ctx["tend_u"], e2, out=ctx["tend_u"])

        def routed(ctx):
            # Mirror the unfused dispatch sequence so A3/H1 split
            # placements keep their band semantics inside the del4 chain.
            mesh = ctx["mesh"]
            del2 = reg.dispatch(
                "edge_gradient_of_cell", mesh, ctx["divergence"], backend="sparse"
            ) - reg.dispatch(
                "edge_gradient_of_vertex", mesh, ctx["vorticity"], backend="sparse"
            )
            div2 = reg.dispatch("cell_divergence", mesh, del2, backend="sparse")
            vort2 = reg.dispatch("vertex_curl", mesh, del2, backend="sparse")
            del4 = reg.dispatch(
                "edge_gradient_of_cell", mesh, div2, backend="sparse"
            ) - reg.dispatch(
                "edge_gradient_of_vertex", mesh, vort2, backend="sparse"
            )
            np.multiply(del4, hv, out=e2)
            np.subtract(ctx["tend_u"], e2, out=ctx["tend_u"])

        return PlanStage(
            "del4_dissipation", fast, kind="matvec", pattern="A3,H1", routed=routed
        )

    def _emit_C1(self, sched) -> list[PlanStage]:
        if self.config.thickness_adv_order == 2:
            return []
        if self.fuse == "algebraic" and self._h_edge_composable(sched):
            return []  # folded into the composed D1 operator
        Md2 = self.matrix("d2fdx2")
        d2 = self._d2

        def fast(ctx):
            _matvec(Md2, ctx["h"], d2)

        # Tuple-valued and no_split in the registry: never routed.
        return [PlanStage("d2fdx2", fast, kind="matvec", op="d2fdx2")]

    def _emit_C2(self, sched) -> list[PlanStage]:
        return []  # computed by the fused C1 sweep (one two-row matvec)

    def _h_edge_composable(self, sched) -> bool:
        """Fusion legality of mean∘d2fdx2 composition into one operator.

        Only the 4th-order combine is linear with input-independent
        coefficients; the scheduler must also certify the ``d2fdx2_cell*``
        intermediates as single-consumer (nothing else ever reads them).
        """
        if self.config.thickness_adv_order != 4:
            return False  # order 3's sign(u) coefficients are input-dependent
        from ..dataflow.schedule import single_consumer_vars

        seams = single_consumer_vars(sched.graph, protected=_PROTECTED_VARS)
        return {"d2fdx2_cell1", "d2fdx2_cell2"} <= seams

    def _emit_D1(self, sched) -> list[PlanStage]:
        order = self.config.thickness_adv_order
        Mmean = self.matrix("cell_to_edge_mean")
        reg = self.registry

        if order > 2 and self.fuse == "algebraic" and self._h_edge_composable(sched):
            mesh = self.mesh
            dc2_half = (mesh.metrics.dcEdge**2 / 12.0) * 0.5

            def build():
                Md2 = sparse_operator(mesh, "d2fdx2")
                S = Md2[0::2] + Md2[1::2]  # d2_1 + d2_2 rows per edge
                return sp.csr_matrix(Mmean - sp.diags(dc2_half) @ S)

            H4 = _composed_operator(self.mesh, "h_edge_order4", build)
            self.composed.append("h_edge_order4")

            def fast(ctx):
                _matvec(H4, ctx["h"], ctx["h_edge"])

            return [PlanStage("h_edge_order4", fast, kind="composed")]

        stages = [
            PlanStage(
                "cell_to_edge_mean",
                lambda ctx, M=Mmean: _matvec(M, ctx["h"], ctx["h_edge"]),
                kind="matvec",
                op="cell_to_edge_mean",
                pattern="D1",
                routed=self._route("cell_to_edge_mean", "h_edge", "h"),
            )
        ]
        if order == 2:
            return stages

        d2 = self._d2
        d2_1, d2_2 = d2[0::2], d2[1::2]
        e1, e2 = self._e1, self._e2
        dc2_12 = self._col(self.mesh.metrics.dcEdge**2 / 12.0)
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
                routed=self._route("kinetic_energy", "ke", "u"),
            )
        ]

    def _plain_matvec(self, name, op, pattern, out_key, in_key) -> PlanStage:
        M = self.matrix(op)

        def fast(ctx):
            _matvec(M, ctx[in_key], ctx[out_key])

        return PlanStage(
            name, fast, kind="matvec", op=op, pattern=pattern,
            routed=self._route(op, out_key, in_key),
        )

    def _emit_A3(self, sched) -> list[PlanStage]:
        return [
            self._plain_matvec("divergence", "cell_divergence", "A3", "divergence", "u")
        ]

    def _emit_H1(self, sched) -> list[PlanStage]:
        return [self._plain_matvec("vorticity", "vertex_curl", "H1", "vorticity", "u")]

    def _emit_B2(self, sched) -> list[PlanStage]:
        return [
            self._plain_matvec(
                "tangential_velocity", "tangential_velocity", "B2", "v", "u"
            )
        ]

    def _emit_E1(self, sched) -> list[PlanStage]:
        M = self.matrix("vertex_from_cells_kite")
        reg = self.registry

        if self.batch:
            # Batched stability semantics: a non-positive h_vertex is a
            # *per-member* event.  With an ``unstable`` mask in the ctx the
            # offending members are flagged (OR-ed in) and the divide runs
            # under errstate so their columns go inf/nan without stalling
            # or perturbing the healthy columns (columns are independent);
            # without a mask the serial raise is preserved.
            def pv_vertex(ctx):
                hv = ctx["h_vertex"]
                bad = np.any(hv <= 0.0, axis=0)
                if bad.any():
                    flags = ctx.get("unstable")
                    if flags is None:
                        raise FloatingPointError(_UNSTABLE_MSG)
                    np.logical_or(flags, bad, out=flags)
                np.add(ctx["f"], ctx["vorticity"], out=ctx["pv_vertex"])
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(ctx["pv_vertex"], hv, out=ctx["pv_vertex"])
        else:
            def pv_vertex(ctx):
                hv = ctx["h_vertex"]
                if np.any(hv <= 0.0):
                    raise FloatingPointError(_UNSTABLE_MSG)
                np.add(ctx["f"], ctx["vorticity"], out=ctx["pv_vertex"])
                np.divide(ctx["pv_vertex"], hv, out=ctx["pv_vertex"])

        def fast(ctx):
            _matvec(M, ctx["h"], ctx["h_vertex"])
            pv_vertex(ctx)

        def routed(ctx):
            np.copyto(
                ctx["h_vertex"],
                reg.dispatch(
                    "vertex_from_cells_kite", ctx["mesh"], ctx["h"], backend="sparse"
                ),
            )
            pv_vertex(ctx)

        return [
            PlanStage(
                "pv_vertex", fast, kind="matvec",
                op="vertex_from_cells_kite", pattern="E1", routed=routed,
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
        reg = self.registry

        def fast(ctx):
            # A batched (3n, N) product reshapes to (n, 3, N): column k is
            # the serial (n, 3) reconstruction of member k, bit for bit.
            ctx["U"] = _triples(M @ ctx["u"])

        def routed(ctx):
            ctx["U"] = reg.dispatch(
                "velocity_reconstruction", ctx["mesh"], ctx["u"], backend="sparse"
            )

        return [
            PlanStage(
                "velocity_reconstruction", fast, kind="matvec",
                op="velocity_reconstruction", pattern="A4", routed=routed,
            )
        ]

    def _emit_X6(self, sched) -> list[PlanStage]:
        from ..geometry.sphere import tangent_basis

        east, north = tangent_basis(self.mesh.metrics.xCell)
        if self.batch:
            east, north = east[:, :, None], north[:, :, None]

        def fast(ctx):
            U = ctx["U"]
            ctx["zonal"] = np.sum(U * east, axis=1)
            ctx["meridional"] = np.sum(U * north, axis=1)

        return [PlanStage("tangent_rotation", fast)]


def compile_plan(mesh, config, registry=None, batch: int = 0) -> ExecutionPlan:
    """Compile the fused :class:`ExecutionPlan` for ``(mesh, config)``.

    Requires ``config.backend == "sparse"`` (the plan closes over the CSR
    operators).  ``batch=N`` compiles the batched variant whose stages run
    over ``(n, N)`` member blocks (see *Batched plans* in the module
    docs).  Use :func:`compiled_plan` for the memoizing entry point the
    kernels call.
    """
    from ..dataflow.schedule import schedule_substep
    from .registry import default_registry

    if config.backend != "sparse":
        raise ValueError(
            "execution plans require backend='sparse' "
            f"(got backend={config.backend!r})"
        )
    fuse = getattr(config, "plan_fuse", "exact")
    if fuse not in PLAN_FUSE_MODES:
        raise ValueError(
            f"plan_fuse must be one of {PLAN_FUSE_MODES}, got {fuse!r}"
        )
    if int(batch) < 0:
        raise ValueError(f"batch must be >= 0 (0 compiles serial), got {batch!r}")
    reg = registry if registry is not None else default_registry()
    comp = _Compiler(mesh, config, reg, batch=batch)
    sched1 = schedule_substep(config, stage=1)
    sched4 = schedule_substep(config, stage=4)
    tend = comp.compile_kernel(sched1, "compute_tend")
    diag = comp.compile_kernel(sched1, "compute_solve_diagnostics")

    def compile_recon(mesh) -> list[PlanStage]:
        # Takes the mesh as an argument: a closure over it would pin the
        # mesh the memoized plan only references weakly.
        recon = _Compiler(mesh, config, reg, batch=batch)
        return recon.compile_kernel(sched4, "mpas_reconstruct")

    return ExecutionPlan(
        mesh,
        fuse=fuse,
        tend_stages=tend,
        diag_stages=diag,
        compile_recon=compile_recon,
        buffers=comp.buffers,
        composed=tuple(comp.composed),
        batch=batch,
    )


# ----------------------------------------------------------- plan memoizer
class _ThreadPlans(threading.local):
    """Per thread: mesh -> {key: plan}.  A plan's scratch buffers are written
    by every call, so no two threads may share one."""

    def __init__(self) -> None:
        self.by_mesh = weakref.WeakKeyDictionary()


_PLANS = _ThreadPlans()


def compiled_plan(mesh, config, registry=None, batch: int = 0) -> ExecutionPlan:
    """The calling thread's memoized plan for ``(mesh, config)``.

    Compiled at most once per thread and keyed by :func:`plan_key` (plus
    the batch width), so a config mutation that changes the compiled
    structure (e.g. the rollback handler halving ``dt``, which is baked
    into the APVM factor) transparently compiles a fresh plan.  Plans are
    per-thread because they own scratch buffers; the CSR operators they
    close over are the same read-only instances on every thread, shared
    through the operator cache.
    """
    plans = _PLANS.by_mesh.setdefault(mesh, {})
    key = plan_key(config) + (int(batch),)
    plan = plans.get(key)
    if plan is None:
        plan = compile_plan(mesh, config, registry=registry, batch=batch)
        plans[key] = plan
        get_registry().counter("engine.plan.compile", fuse=plan.fuse).inc()
    return plan


def clear_plan_memory_cache() -> None:
    """Drop the calling thread's compiled plans and the composed matrices
    (cache tests)."""
    _PLANS.by_mesh.clear()
    _COMPOSED_MEM.clear()
