"""Fused per-mesh execution plans compiled from the Fig. 4 dataflow graph.

Dispatching the 14 operators one at a time pays, per call, a registry
lookup, a metrics timer and a fresh output allocation.  For
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
under a ``category="plan"`` span on the thread that runs it: a traced plan
runs the same program on the same lanes.  The two tendency outputs live in
plan-owned buffers reused across calls.  Diagnostics are written into the
``out`` a caller passes — the RK substeps pass the plan's own
:attr:`~ExecutionPlan.scratch`, which also holds their provisional state and
increments — and into fresh arrays otherwise; Reconstruction outputs are
allocated per call because callers retain them.

Two lanes
---------
Every stage declares what it ``reads`` and ``writes``; the kernel's stage
DAG follows from the hazards, and the paper's pattern-level scheduler
(:func:`repro.dataflow.analysis.earliest_finish_schedule`, no splits) places
each stage on the caller or on the second lane by a deterministic proxy
cost.  From :data:`HELPER_MIN_NNZ` entries of ``K`` on, the placed program
runs on the lane :func:`repro.engine.lanes.second_core` engaged for the
calling thread; otherwise the same stages run inline: the same bits.

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
from contextlib import suppress
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
]

#: Format version of compiled-plan disk artifacts (the composed matrices).
#: Bump whenever the plan compiler's emitted algebra changes; stale files
#: are recompiled and overwritten, never loaded blindly.
PLAN_CACHE_VERSION = 1

#: Fewest entries of ``K`` from which a plan is placed on two lanes: a
#: ``K`` product is then ~100 us against ~30 us for a lane to start.  Level 5
#: has 307,140; levels <= 4 run one lane.
HELPER_MIN_NNZ = 150_000

#: Proxy cost of one stage handed to the lane, in the units of
#: :attr:`PlanStage.cost` (about 1 ns each on 2 vCPUs): ~31 us for a lane to
#: start plus ~14 us for the round trip, and the slowdown of two matvecs
#: running at once.  Of 45,000 and 60,000, the two that place level 5
#: differently, 60,000 measured faster (EXPERIMENTS.md "PR 45").
HANDOFF_COST = 60_000

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
    """One step of a fused program: its zero-dispatch closure ``fast(ctx)``,
    the ctx keys it ``reads`` and ``writes``, its proxy ``cost``, the Fig. 4
    ``node`` it was emitted for and its ``lane`` (0: the caller)."""

    name: str
    fast: Callable
    kind: str = "elementwise"
    op: str | None = None
    pattern: str | None = None
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    cost: int = 0
    node: str = ""
    lane: int = 0


def _run_group(stages, ctx: dict) -> None:  # inline, or a group on the lane
    for st in stages:
        st.fast(ctx)


def _run_traced(stages, ctx: dict) -> None:
    """:func:`_run_group` with each stage in its ``category="plan"`` span, on
    whichever thread runs it."""
    tracer = get_tracer()
    for st in stages:
        with tracer.span(
            st.name, category="plan", stage_kind=st.kind,
            op=st.op or "-", pattern=st.pattern or "-",
        ):
            st.fast(ctx)


def _join(lane) -> None:
    start = time.perf_counter()
    lane.join()
    get_registry().counter("engine.plan.lane.wait_s").inc(time.perf_counter() - start)


def _hazards(stages: list[PlanStage], scratch) -> list[set[int]]:
    """Each stage's predecessors: the last writer of every key it reads or
    writes, and every reader of a key it writes since that key's last write.
    A scratch buffer must be written before it is read."""
    writer: dict[str, int] = {}
    readers: dict[str, list[int]] = {}
    preds: list[set[int]] = []
    for i, st in enumerate(stages):
        unwritten = [k for k in st.reads if k in scratch and k not in writer]
        if unwritten:
            raise ValueError(f"stage {st.name} reads {unwritten} before any stage writes it")
        before = {writer[k] for k in (*st.reads, *st.writes) if k in writer}
        for key in st.writes:
            before.update(readers.get(key, ()))
        before.discard(i)
        preds.append(before)
        for key in st.reads:
            readers.setdefault(key, []).append(i)
        for key in st.writes:
            writer[key], readers[key] = i, []
    return preds


def _certify(graph, stages: list[PlanStage], preds: list[set[int]]) -> None:
    """Cross-check the hazard DAG against the Fig. 4 graph: wherever
    ``independent_sets`` finds two of the kernel's nodes ordered, a stage of
    the later node descends from a stage of the earlier one."""
    from ..dataflow.analysis import independent_sets

    ancestors: list[set[int]] = []
    for p in preds:
        ancestors.append(set(p).union(*(ancestors[j] for j in p)))
    by_node: dict[str, list[int]] = {}
    for i, st in enumerate(stages):
        by_node.setdefault(st.node, []).append(i)
    nodes = list(by_node)
    for k, a in enumerate(nodes):
        for b in nodes[k + 1:]:
            if not independent_sets(graph, [a, b]) and not any(
                i in ancestors[j] for i in by_node[a] for j in by_node[b]
            ):
                raise ValueError(f"{b} depends on {a}, but no stage of it reads what {a} writes")


class _Kernel(list):
    """One Algorithm-1 kernel's stages in program order, placed.

    ``program`` is ``None`` on one lane.  On two it is the caller's order:
    a :class:`PlanStage` runs on the caller, a tuple is a group of stages
    submitted to the lane once the previous one is joined and its inputs
    exist, ``None`` joins it before the first stage that depends on it."""

    def __init__(self, stages: list[PlanStage], preds: list[set[int]], lanes: int) -> None:
        from ..dataflow.analysis import earliest_finish_schedule

        super().__init__(stages)
        self.program = None
        self.makespans = (sum(st.cost for st in stages),) * 2
        if lanes < 2:
            return
        placed, finish = earliest_finish_schedule(
            range(len(stages)), preds.__getitem__,
            {i: {"caller": st.cost, "lane": st.cost + HANDOFF_COST}
             for i, st in enumerate(stages)},
            devices=("caller", "lane"),
        )
        for i, st in enumerate(stages):
            st.lane = int(placed[i][0] == "lane")
        self.makespans = (self.makespans[0], int(max(finish.values(), default=0)))
        self.program = _program(stages, preds)


def _program(stages: list[PlanStage], preds: list[set[int]]) -> list:
    """The caller's order for placed ``stages`` (see :class:`_Kernel`)."""
    caller = [i for i, st in enumerate(stages) if not st.lane]
    at = {i: k for k, i in enumerate(caller)}
    groups: list[tuple[int, list[int]]] = []  # (caller position, stages)
    for i, st in enumerate(stages):
        if st.lane:
            due = max((at[p] + 1 for p in preds[i] if p in at), default=0)
            if groups and due <= groups[-1][0]:
                groups[-1][1].append(i)
            else:
                groups.append((due, [i]))
    program: list = []
    running: set[int] = set()
    for k in range(len(caller) + 1):
        if groups and groups[0][0] == k:
            if running:
                program.append(None)
            _, members = groups.pop(0)
            program.append(tuple(stages[i] for i in members))
            running = set(members)
        if k == len(caller):
            break
        if running & preds[caller[k]]:
            program.append(None)
            running = set()
        program.append(stages[caller[k]])
    if running:
        program.append(None)
    return program


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


class ExecutionPlan:
    """A compiled, fused RK-substep program for one ``(mesh, config)``."""

    def __init__(
        self,
        mesh,
        tend_stages: _Kernel,
        diag_stages: _Kernel,
        compile_recon: Callable[[object], _Kernel],
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
        self.lanes = 1 if tend_stages.program is None else 2

    @functools.cached_property
    def _recon(self) -> _Kernel:
        # On first use: ``mpas_reconstruct`` is not part of the RK step and a
        # decomposed rank never runs it, so neither its stages nor the
        # per-cell fits behind the A4 operator are compiled with the plan.
        return self._compile_recon(self._mesh())

    @functools.cached_property
    def scratch(self) -> tuple:
        """``(provisional State, increment State, Diagnostics)``: the buffers
        :func:`repro.swm.timestep.rk4_step` reuses in every RK substep on this
        plan's thread (the final state and diagnostics stay fresh)."""
        from ..swm.state import Diagnostics, State

        nc, ne, nv = self._n
        return (State(np.zeros(nc), np.zeros(ne)), State(np.zeros(nc), np.zeros(ne)),
                Diagnostics.allocate(nc, ne, nv))

    # ------------------------------------------------------------ executor
    def _run(self, kernel: _Kernel, ctx: dict) -> None:
        traced = get_tracer().enabled
        run = _run_traced if traced else _run_group
        lane = ctx["lane"]
        if lane is None or kernel.program is None:
            run(kernel, ctx)
            return
        try:
            for item in kernel.program:
                if item is None:
                    _join(lane)
                elif item.__class__ is tuple:
                    lane.submit(run, item, ctx)
                elif traced:
                    run((item,), ctx)
                else:
                    item.fast(ctx)
        except BaseException:
            if lane.busy:  # the caller's exception is the one to keep
                with suppress(BaseException):
                    lane.join()
            raise

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

    def diagnostics(self, state, f_vertex, out=None):
        """Fused ``compute_solve_diagnostics``: the post-exchange segment,
        written into ``out``'s arrays (fresh ones when ``out`` is ``None``)."""
        from ..swm.state import Diagnostics

        if out is None:
            out = Diagnostics.allocate(*self._n, alloc=np.empty)
        with get_registry().timer("engine.plan", segment="diagnostics").time():
            ctx = self._ctx(h=state.h, u=state.u, f=f_vertex, **vars(out))
            self._run(self._diag, ctx)
        return out

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
        """Each kernel's stages in program order (the order one lane runs)."""
        return {
            "tend": list(self._tend),
            "diagnostics": list(self._diag),
            "reconstruct": list(self._recon),
        }

    def describe(self) -> str:
        """A deterministic, human-readable stage table (used by the docs).

        On two lanes each kernel is listed in the caller's order: its header
        gives the proxy makespan on one lane and on two, every stage its
        lane, and a ``join`` row is where the caller waits for the lane."""
        lines = [f"ExecutionPlan composed={list(self.composed)}"]
        kernels = {"tend": self._tend, "diagnostics": self._diag, "reconstruct": self._recon}
        for segment, kernel in kernels.items():
            if kernel.program is None:
                lines.append(f"{segment}:")
                lines += [_row(st) for st in kernel]
                continue
            one, two = kernel.makespans
            lines.append(f"{segment}: proxy makespan {one:,} on one lane, {two:,} on two")
            for item in kernel.program:
                for st in item if item.__class__ is tuple else (item,):
                    lines.append("  join" if st is None else f"{_row(st)} lane={st.lane}")
        return "\n".join(lines)


def _row(st: PlanStage) -> str:
    return f"  {st.name:24s} {st.kind:11s} op={st.op or '-'} pattern={st.pattern or '-'}"


class _Compiler:
    """Builds the stage lists for one ``(mesh, config)`` pair.

    Emitters are keyed by Table I label and walk the scheduler's node
    order, so the fused program is exactly the dataflow diagram's
    topological schedule.  Every closure captures matrices, buffers and
    scalars — never the mesh or the compiler — so a cached plan does not
    keep its (weakly referenced) mesh alive.  Each scratch buffer is issued
    once, by name (:meth:`buffer`), and belongs to the stages that declare it.
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
        self.nc, self.ne, self.nv = mesh.nCells, mesh.nEdges, mesh.nVertices
        self.buffers: dict[str, np.ndarray] = {
            "tend_h": np.zeros(self.nc),
            "tend_u": np.zeros(self.ne),
        }
        self._issued: dict[str, np.ndarray] = {}  # the current kernel's scratch
        self._spare: dict[int, list[np.ndarray]] = {}  # earlier kernels' scratch
        self.lanes = 2 if self.matrix("tangential_velocity").nnz >= HELPER_MIN_NNZ else 1
        self.composed: list[str] = []

    def matrix(self, name: str) -> CSR:
        return sparse_operator(self.mesh, name)

    def buffer(self, name: str, n: int) -> np.ndarray:
        """The scratch buffer ``name`` of the kernel being compiled: a ctx
        key its stages declare.  Kernels never run at once, so the arrays of
        the kernels compiled before it are issued again, under new names."""
        if name not in self._issued:
            if name in self.buffers:
                raise ValueError(f"scratch buffer {name!r} belongs to another kernel")
            spare = self._spare.get(n)
            self._issued[name] = self.buffers[name] = spare.pop() if spare else np.zeros(n)
        return self._issued[name]

    @staticmethod
    def stage(name, fast, reads, writes, matrices=(), passes=(), **kw) -> PlanStage:
        """A stage whose proxy cost is its matrices' entries and rows plus
        half a vector length per ufunc pass: the weights a least-squares fit
        of level 5's inline stage times gives (EXPERIMENTS.md "PR 45")."""
        cost = sum(M.nnz + M.shape[0] for M in matrices) + sum(passes) // 2
        return PlanStage(name, fast, reads=tuple(reads), writes=tuple(writes),
                         cost=int(cost), **kw)

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
    def compile_kernel(self, sched, kernel: str) -> _Kernel:
        """Emit the kernel's stages, derive their hazard DAG, certify it
        against the Fig. 4 graph and place it on :attr:`lanes` lanes."""
        stages: list[PlanStage] = []
        self._issued = {}
        for node in sched.nodes_for_kernel(kernel):
            label = sched.graph.instance(node).label
            emit = getattr(self, f"_emit_{label}".replace(",", "_"), None)
            if emit is None:
                raise KeyError(
                    f"no plan emitter for Table I label {label!r} "
                    f"(node {node!r}); add one or whitelist it"
                )
            for st in emit(sched):
                st.node = node
                stages.append(st)
        preds = _hazards(stages, self._issued)
        _certify(sched.graph, stages, preds)
        for array in self._issued.values():
            self._spare.setdefault(array.size, []).append(array)
        return _Kernel(stages, preds, self.lanes)

    def _emit_A1(self, sched) -> list[PlanStage]:
        M = self.matrix("cell_divergence")
        flux, div = self.buffer("flux", self.ne), self.buffer("flux_divergence", self.nc)

        def flux_fast(ctx):  # u * h_edge, B1's too
            np.multiply(ctx["u"], ctx["h_edge"], out=flux)

        def fast(ctx):
            _matvec(M, flux, div)
            np.negative(div, out=ctx["tend_h"])

        return [
            self.stage("edge_flux", flux_fast, ("u", "h_edge"), ("flux",),
                       passes=(self.ne,)),
            self.stage("flux_divergence", fast, ("flux",), ("flux_divergence", "tend_h"),
                       (M,), (self.nc,), kind="matvec", op="flux_divergence", pattern="A1"),
        ]

    def _emit_B1(self, sched) -> list[PlanStage]:
        ne, nc = self.ne, self.nc
        if self.config.advection_only:
            def freeze(ctx):
                ctx["tend_u"].fill(0.0)

            return [self.stage("freeze_u", freeze, (), ("tend_u",), passes=(ne,))]

        # 0.5 * (q * (K f) + K (f * q)) with f = u * h_edge: the ufunc
        # sequence of :class:`repro.engine.sparse.CoriolisOp`, into buffers;
        # each product of K is a stage of its own.
        K = self.matrix("tangential_velocity")
        flux = self.buffer("flux", ne)
        kf, fq, kfq = (self.buffer(n, ne) for n in ("K_flux", "flux_pv", "K_flux_pv"))

        def kf_fast(ctx):
            _matvec(K, flux, kf)

        def fq_fast(ctx):
            np.multiply(flux, ctx["pv_edge"], out=fq)

        def kfq_fast(ctx):
            _matvec(K, fq, kfq)

        def cor_fast(ctx):
            tend_u = ctx["tend_u"]
            np.multiply(ctx["pv_edge"], kf, out=tend_u)
            np.add(tend_u, kfq, out=tend_u)
            np.multiply(tend_u, 0.5, out=tend_u)

        stages = [
            self.stage("coriolis_K_flux", kf_fast, ("flux",), ("K_flux",), (K,),
                       kind="matvec", op="tangential_velocity"),
            self.stage("coriolis_flux_pv", fq_fast, ("flux", "pv_edge"), ("flux_pv",),
                       passes=(ne,)),
            self.stage("coriolis_K_flux_pv", kfq_fast, ("flux_pv",), ("K_flux_pv",), (K,),
                       kind="matvec", op="tangential_velocity"),
            self.stage("coriolis_edge_term", cor_fast, ("pv_edge", "K_flux", "K_flux_pv"),
                       ("tend_u",), passes=(ne, ne, ne),
                       op="coriolis_edge_term", pattern="B1"),
        ]

        # Every other term of tend_u goes into a buffer of its own, and a
        # sum stage folds it in: the terms can run beside each other.
        Mgc = self.matrix("edge_gradient_of_cell")
        g = self.config.gravity
        bc, bern = self.buffer("bernoulli", nc), self.buffer("bernoulli_gradient", ne)

        def bern_fast(ctx):
            np.add(ctx["h"], ctx["b"], out=bc)
            np.multiply(bc, g, out=bc)
            np.add(ctx["ke"], bc, out=bc)
            _matvec(Mgc, bc, bern)

        def bern_sum(ctx):
            np.subtract(ctx["tend_u"], bern, out=ctx["tend_u"])

        stages += [
            self.stage("bernoulli_gradient", bern_fast, ("h", "b", "ke"),
                       ("bernoulli", "bernoulli_gradient"), (Mgc,), (nc, nc, nc),
                       kind="matvec", op="edge_gradient_of_cell"),
            self.stage("bernoulli_sum", bern_sum, ("tend_u", "bernoulli_gradient"),
                       ("tend_u",), passes=(ne,)),
        ]

        if self.config.viscosity != 0.0:
            Mgv = self.matrix("edge_gradient_of_vertex")
            visc = self.config.viscosity
            d_u, d_v = self.buffer("del2_u", ne), self.buffer("del2_v", ne)

            def visc_fast(ctx):
                _matvec(Mgc, ctx["divergence"], d_u)
                _matvec(Mgv, ctx["vorticity"], d_v)
                np.subtract(d_u, d_v, out=d_u)
                np.multiply(d_u, visc, out=d_u)

            def visc_sum(ctx):
                np.add(ctx["tend_u"], d_u, out=ctx["tend_u"])

            stages += [
                self.stage("del2_dissipation", visc_fast, ("divergence", "vorticity"),
                           ("del2_u", "del2_v"), (Mgc, Mgv), (ne, ne), kind="matvec"),
                self.stage("del2_sum", visc_sum, ("tend_u", "del2_u"), ("tend_u",),
                           passes=(ne,)),
            ]

        if self.config.hyperviscosity != 0.0:
            stages += self._hyperviscosity_stage(sched)
        return stages

    def _hyperviscosity_stage(self, sched) -> list[PlanStage]:
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
        d_u, d_v = self.buffer("del4_u", self.ne), self.buffer("del4_v", self.ne)

        def build(mesh):
            sp = scipy_sparse()  # composing is the one use of the package
            grad_c, grad_v, div, curl = (sparse_operator(mesh, op).to_scipy() for op in (
                "edge_gradient_of_cell", "edge_gradient_of_vertex",
                "cell_divergence", "vertex_curl",
            ))
            return CSR.from_scipy(sp.csr_matrix(grad_c @ div - grad_v @ curl))

        D4 = self._composed("del4", build)

        def fast(ctx):
            _matvec(Mgc, ctx["divergence"], d_u)
            _matvec(Mgv, ctx["vorticity"], d_v)
            np.subtract(d_u, d_v, out=d_u)  # del2_u
            _matvec(D4, d_u, d_v)  # del4_u in one composed matvec
            np.multiply(d_v, hv, out=d_v)

        def hv_sum(ctx):
            np.subtract(ctx["tend_u"], d_v, out=ctx["tend_u"])

        return [
            self.stage("del4_dissipation", fast, ("divergence", "vorticity"),
                       ("del4_u", "del4_v"), (Mgc, Mgv, D4), (self.ne, self.ne),
                       kind="composed"),
            self.stage("del4_sum", hv_sum, ("tend_u", "del4_v"), ("tend_u",),
                       passes=(self.ne,)),
        ]

    def _emit_C1(self, sched) -> list[PlanStage]:
        if self.config.thickness_adv_order == 2 or self._h_edge_composes(sched):
            return []  # nothing to correct, or folded into the composed D1
        Md2 = self.matrix("d2fdx2")
        d2 = self.buffer("d2fdx2", 2 * self.ne)  # read by D1

        def fast(ctx):
            _matvec(Md2, ctx["h"], d2)

        return [self.stage("d2fdx2", fast, ("h",), ("d2fdx2",), (Md2,),
                           kind="matvec", op="d2fdx2")]

    def _emit_C2(self, sched) -> list[PlanStage]:
        return []  # computed by the fused C1 sweep (one two-row matvec)

    def _emit_D1(self, sched) -> list[PlanStage]:
        order, ne = self.config.thickness_adv_order, self.ne
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

            return [self.stage("h_edge_order4", fast, ("h",), ("h_edge",), (H4,),
                               kind="composed")]

        Mmean = self.matrix("cell_to_edge_mean")
        stages = [
            self.stage(
                "cell_to_edge_mean",
                lambda ctx, M=Mmean: _matvec(M, ctx["h"], ctx["h_edge"]),
                ("h",), ("h_edge",), (Mmean,),
                kind="matvec", op="cell_to_edge_mean", pattern="D1",
            )
        ]
        if order == 2:
            return stages

        d2 = self.buffer("d2fdx2", 2 * ne)
        d2_1, d2_2 = d2[0::2], d2[1::2]
        e1, e2 = self.buffer("h_edge_corr", ne), self.buffer("h_edge_upwind", ne)
        dc2_12 = self.mesh.metrics.dcEdge**2 / 12.0
        dc2_half = dc2_12 * 0.5

        def corr_fast(ctx):
            np.add(d2_1, d2_2, out=e1)
            np.multiply(e1, dc2_half, out=e1)
            np.subtract(ctx["h_edge"], e1, out=ctx["h_edge"])

        stages.append(self.stage("h_edge_correction", corr_fast, ("d2fdx2", "h_edge"),
                                 ("h_edge_corr", "h_edge"), passes=(ne, ne, ne)))
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

            stages.append(self.stage(
                "h_edge_upwind3", upwind_fast, ("u", "d2fdx2", "h_edge"),
                ("h_edge_corr", "h_edge_upwind", "h_edge"), passes=(ne,) * 7,
            ))
        return stages

    def _emit_A2(self, sched) -> list[PlanStage]:
        M = self.matrix("kinetic_energy")
        u2 = self.buffer("u_squared", self.ne)

        def fast(ctx):
            np.multiply(ctx["u"], ctx["u"], out=u2)
            _matvec(M, u2, ctx["ke"])

        return [self.stage("kinetic_energy", fast, ("u",), ("u_squared", "ke"), (M,),
                           (self.ne,), kind="matvec", op="kinetic_energy", pattern="A2")]

    def _plain_matvec(self, name, op, pattern, out_key, in_key) -> PlanStage:
        M = self.matrix(op)

        def fast(ctx):
            _matvec(M, ctx[in_key], ctx[out_key])

        return self.stage(name, fast, (in_key,), (out_key,), (M,),
                          kind="matvec", op=op, pattern=pattern)

    def _emit_A3(self, sched) -> list[PlanStage]:
        return [
            self._plain_matvec("divergence", "cell_divergence", "A3", "divergence", "u")
        ]

    def _emit_H1(self, sched) -> list[PlanStage]:
        return [self._plain_matvec("vorticity", "vertex_curl", "H1", "vorticity", "u")]

    def _emit_B2(self, sched) -> list[PlanStage]:
        return [self._plain_matvec(
            "tangential_velocity", "tangential_velocity", "B2", "v", "u"
        )]

    def _emit_E1(self, sched) -> list[PlanStage]:
        M = self.matrix("vertex_from_cells_kite")

        def fast(ctx):
            hv = _matvec(M, ctx["h"], ctx["h_vertex"])
            if np.any(hv <= 0.0):
                raise FloatingPointError(_UNSTABLE_MSG)
            np.add(ctx["f"], ctx["vorticity"], out=ctx["pv_vertex"])
            np.divide(ctx["pv_vertex"], hv, out=ctx["pv_vertex"])

        return [self.stage(
            "pv_vertex", fast, ("h", "f", "vorticity"), ("h_vertex", "pv_vertex"), (M,),
            (self.nv,) * 3, kind="matvec", op="vertex_from_cells_kite", pattern="E1",
        )]

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
            gv, gc = self.buffer("apvm_grad_v", self.ne), self.buffer("apvm_grad_c", self.ne)

            def grad_v(ctx):
                _matvec(Mgv, ctx["pv_vertex"], gv)

            def grad_c(ctx):
                _matvec(Mgc, ctx["pv_cell"], gc)

            def apvm_fast(ctx):
                np.multiply(ctx["v"], gv, out=gv)
                np.multiply(ctx["u"], gc, out=gc)
                np.add(gv, gc, out=gv)
                np.multiply(gv, factor, out=gv)
                np.subtract(ctx["pv_edge"], gv, out=ctx["pv_edge"])

            stages += [
                self.stage("apvm_grad_pv_vertex", grad_v, ("pv_vertex",), ("apvm_grad_v",),
                           (Mgv,), kind="matvec", op="edge_gradient_of_vertex"),
                self.stage("apvm_grad_pv_cell", grad_c, ("pv_cell",), ("apvm_grad_c",),
                           (Mgc,), kind="matvec", op="edge_gradient_of_cell"),
                self.stage("apvm_upwinding", apvm_fast,
                           ("v", "u", "apvm_grad_v", "apvm_grad_c", "pv_edge"),
                           ("apvm_grad_v", "apvm_grad_c", "pv_edge"), passes=(self.ne,) * 5),
            ]
        return stages

    def _emit_A4(self, sched) -> list[PlanStage]:
        M = self.matrix("velocity_reconstruction")

        def fast(ctx):
            ctx["U"] = _triples(M @ ctx["u"])

        return [self.stage("velocity_reconstruction", fast, ("u",), ("U",), (M,),
                           kind="matvec", op="velocity_reconstruction", pattern="A4")]

    def _emit_X6(self, sched) -> list[PlanStage]:
        from ..geometry.sphere import tangent_basis

        east, north = tangent_basis(self.mesh.metrics.xCell)

        def fast(ctx):
            U = ctx["U"]
            ctx["zonal"] = np.sum(U * east, axis=1)
            ctx["meridional"] = np.sum(U * north, axis=1)

        return [self.stage("tangent_rotation", fast, ("U",), ("zonal", "meridional"),
                           passes=(6 * self.nc,))]


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

    def compile_recon(mesh) -> _Kernel:
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
