"""Per-layer probes of the traced run.

Each probe times calls into one layer's public functions from here, under a
harness span, on a live warm level-5 state.  Probes import their targets
lazily and are isolated from one another: a missing class, function or config
field leaves that probe's metrics ``None`` and adds an entry to
``unavailable``; it never fails the benchmark.  Any other exception is a
failed probe and is counted.

Timed calls that have to be compared with one another (wrapped against
unwrapped steps, pool schedules against the serial step, batched against
serial) are interleaved round by round, so that a slow spell of the host hits
both sides alike.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import traceback
from pathlib import Path

from spans import SpanRecorder
from workloads import plan_config

#: What a probe raises when its target has been removed or reshaped.
UNAVAILABLE = (ImportError, AttributeError, TypeError, KeyError)

#: Calls timed per ``*_ms`` / ``*_us`` metric (median reported).
CALLS = 30

#: Live fields each registered operator is dispatched on.
OP_FIELDS = {
    "flux_divergence": ("u", "h_edge"),
    "kinetic_energy": ("u",),
    "cell_divergence": ("u",),
    "velocity_reconstruction": ("u",),
    "coriolis_edge_term": ("u", "h_edge", "pv_edge"),
    "tangential_velocity": ("u",),
    "d2fdx2": ("h",),
    "cell_to_edge_mean": ("h",),
    "vertex_from_cells_kite": ("h",),
    "cell_from_vertices_kite": ("pv_vertex",),
    "vertex_to_edge_mean": ("pv_vertex",),
    "vertex_curl": ("u",),
    "edge_gradient_of_cell": ("pv_cell",),
    "edge_gradient_of_vertex": ("pv_vertex",),
}

KERNELS = (
    "compute_tend",
    "enforce_boundary_edge",
    "compute_next_substep_state",
    "compute_solve_diagnostics",
    "accumulative_update",
    "mpas_reconstruct",
)
RK_UPDATE_KERNELS = (
    "accumulative_update", "compute_next_substep_state", "enforce_boundary_edge",
)

PROBES: list = []


def probe(fn):
    PROBES.append(fn)
    return fn


class Context:
    """State shared by the probes: recorder, results and the live model."""

    def __init__(
        self, rec: SpanRecorder, seed: int, level: int, scratch: Path,
        provision: dict, calls: int = CALLS,
    ) -> None:
        self.rec = rec
        self.seed = int(seed)
        self.level = level
        self.scratch = Path(scratch)
        self.provision = provision
        self.calls = calls
        self.metrics: dict[str, float | None] = {}
        self.unavailable: dict[str, str] = {}
        self.failed: dict[str, str] = {}
        self.attempted = 0
        self._dirs = 0

    def put(self, name: str, value) -> None:
        self.metrics[name] = None if value is None else float(value)

    def get(self, name: str) -> float:
        value = self.metrics.get(name)
        if value is None:
            raise LookupError(f"{name} was not measured")
        return value

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.scratch / f"probe-{self._dirs:04d}"

    def median(self, name: str, fn, n: int | None = None, warm: int = 1) -> float:
        """Median seconds of ``n`` calls of ``fn``, each under a span."""
        for _ in range(warm):
            fn()
        return statistics.median(
            self.rec.timed(name, fn)[0] for _ in range(self.calls if n is None else n)
        )


def run_all(ctx: Context) -> None:
    for fn in PROBES:
        ctx.attempted += 1
        try:
            with ctx.rec.span("probe." + fn.__name__):
                fn(ctx)
        except UNAVAILABLE as exc:
            ctx.unavailable[fn.__name__] = f"{type(exc).__name__}: {exc}"
        except Exception:  # a probe boundary: record and keep measuring
            ctx.failed[fn.__name__] = traceback.format_exc()


# ------------------------------------------------------------------ helpers
def _advance(model) -> None:
    step = model.integrator.step(model.state, model.diagnostics)
    model.state, model.diagnostics = step.state, step.diagnostics


def _live_model(ctx: Context, token: str, config, warm_steps: int = 2):
    """An initialized model advanced a few steps, so fields are developed."""
    from repro.api import resolve_case
    from repro.swm.model import ShallowWaterModel

    model = ShallowWaterModel(ctx.mesh, config)
    model.initialize(resolve_case(token))
    for _ in range(warm_steps):
        _advance(model)
    return model


# --------------------------------------------------------------------- mesh
@probe
def mesh_cache(ctx: Context) -> None:
    from repro.api import build_mesh
    from repro.mesh.cache import clear_memory_cache

    ctx.put("mesh.build_s", ctx.provision.get("mesh.build_s"))
    ctx.put("mesh.cells", ctx.mesh.nCells)
    ctx.put("mesh.edges", ctx.mesh.nEdges)
    loads = [ctx.first_load_s]
    for _ in range(2):
        clear_memory_cache()
        seconds, ctx.mesh = ctx.rec.timed("mesh.load", build_mesh, ctx.level)
        loads.append(seconds)
    ctx.put("mesh.load_s", statistics.median(loads))


@probe
def sparse_operators(ctx: Context) -> None:
    """Cold compile and disk hit of every matrix the plans close over.

    Runs before anything else touches the mesh, so the compile is cold
    (the order-4 advection coefficients are fitted here, not reused).
    """
    from repro.engine import default_registry
    from repro.engine.sparse import clear_operator_memory_cache, sparse_operator

    clear_operator_memory_cache()
    compile_s, nnz, names = 0.0, 0, []
    for op in default_registry().ops("sparse"):
        try:
            seconds, matrix = ctx.rec.timed(
                "engine.sparse.compile", sparse_operator, ctx.mesh, op, use_disk=False
            )
        except KeyError:
            continue  # an op that reuses another op's matrix has no compiler
        compile_s += seconds
        nnz += matrix.nnz
        names.append(op)
    ctx.put("engine.sparse.compile_s", compile_s)
    ctx.put("engine.sparse.nnz", nnz)
    clear_operator_memory_cache()
    ctx.put(
        "engine.sparse.load_s",
        sum(
            ctx.rec.timed(
                "engine.sparse.load", sparse_operator, ctx.mesh, op, use_disk=True
            )[0]
            for op in names
        ),
    )


@probe
def plan_compile(ctx: Context) -> None:
    from repro.engine.plan import compile_plan

    ctx.galewsky = f"perturbed:galewsky:0:{ctx.seed}"
    ctx.config = plan_config(ctx.mesh, ctx.galewsky)
    ctx.put(
        "engine.plan.compile_s",
        ctx.median("engine.plan.compile", lambda: compile_plan(ctx.mesh, ctx.config), n=3),
    )
    ctx.put(
        "engine.plan.compile_batch8_s",
        ctx.median(
            "engine.plan.compile_batch8",
            lambda: compile_plan(ctx.mesh, ctx.config, batch=8), n=3,
        ),
    )


# ------------------------------------------------------------ the RK-4 step
def _timed_registry(ctx: Context):
    """A registry equal to the default one, its six kernels under spans."""
    from repro.engine import KernelRegistry, default_registry

    default = default_registry()
    registry = KernelRegistry()
    for name in default.ops():
        entry = default.op(name)
        for backend, fn in entry.impls.items():
            registry.register(
                name, backend, fn, pattern=entry.pattern, kind=entry.kind,
                kernel=entry.kernel, input_point=entry.input_point,
                output_point=entry.output_point, stencil=entry.stencil,
                no_split=entry.no_split,
            )

    def wrap(name, fn):
        span_name = "engine.kernel." + name

        def timed(*args, **kwargs):
            with ctx.rec.span(span_name):
                return fn(*args, **kwargs)

        return timed

    for name in KERNELS:
        registry.register_kernel(name, wrap(name, default.kernel(name)))
    return registry


def _kernel_seconds(ctx: Context, step_record: dict) -> dict[str, float]:
    """Seconds per kernel inside one wrapped step span."""
    out = dict.fromkeys(KERNELS, 0.0)
    for r in ctx.rec.records[step_record["id"] + 1:]:
        if r["parent"] == step_record["id"] and r["name"].startswith("engine.kernel."):
            out[r["name"][len("engine.kernel."):]] += r["end"] - r["start"]
    return out


@probe
def swm_step(ctx: Context) -> None:
    """Unwrapped and wrapped steps, interleaved, on one live state."""
    from repro.engine.plan import compiled_plan
    from repro.swm.timestep import RK4Integrator

    inits = [
        ctx.rec.timed("swm.init", _live_model, ctx, ctx.galewsky, ctx.config, warm_steps=0)
        for _ in range(3)
    ]
    ctx.put("swm.init_s", statistics.median(seconds for seconds, _ in inits))
    ctx.model = model = inits[-1][1]
    plain = model.integrator
    wrapped = RK4Integrator(
        ctx.mesh, ctx.config, model.b_cell, plain.f_vertex,
        registry=_timed_registry(ctx),
    )
    plan = compiled_plan(ctx.mesh, ctx.config)
    for _ in range(2):
        _advance(model)
    step_s, kernel_s, recon_s = [], {k: [] for k in KERNELS}, []
    faults, user_s, sys_s = 0, 0.0, 0.0
    for _ in range(ctx.calls):
        before = resource.getrusage(resource.RUSAGE_SELF)
        with ctx.rec.span("swm.step") as record:
            result = plain.step(model.state, model.diagnostics)
        after = resource.getrusage(resource.RUSAGE_SELF)
        step_s.append(record["end"] - record["start"])
        faults += after.ru_minflt - before.ru_minflt
        user_s += after.ru_utime - before.ru_utime
        sys_s += after.ru_stime - before.ru_stime
        with ctx.rec.span("swm.step.wrapped") as record:
            wrapped.step(model.state, model.diagnostics)
        for name, value in _kernel_seconds(ctx, record).items():
            kernel_s[name].append(value)
        # Under plan=True the integrator calls the plan's reconstruct itself,
        # not the registry kernel, so that part is timed on its own.
        recon_s.append(ctx.rec.timed("engine.kernel.mpas_reconstruct",
                                     plan.reconstruct, result.state.u)[0])
        model.state, model.diagnostics = result.state, result.diagnostics
    med = {k: statistics.median(v) for k, v in kernel_s.items()}
    step = statistics.median(step_s)
    recon = med["mpas_reconstruct"] or statistics.median(recon_s)
    rk_update = sum(med[k] for k in RK_UPDATE_KERNELS)
    ctx.put("swm.step_ms", step * 1e3)
    ctx.put("engine.kernel.compute_tend_ms", med["compute_tend"] * 1e3)
    ctx.put("engine.kernel.compute_solve_diagnostics_ms",
            med["compute_solve_diagnostics"] * 1e3)
    ctx.put("engine.kernel.mpas_reconstruct_ms", recon * 1e3)
    ctx.put("swm.rk_update_ms", rk_update * 1e3)
    parts = med["compute_tend"] + med["compute_solve_diagnostics"] + recon + rk_update
    ctx.put("swm.step_residual_pct", 100.0 * (step - parts) / step)
    ctx.put("swm.step_minor_faults", faults / ctx.calls)
    cpu = user_s + sys_s
    ctx.put("swm.step_sys_pct", 100.0 * sys_s / cpu if cpu else None)


@probe
def table_one_ops(ctx: Context) -> None:
    from repro.engine import dispatch

    state, diag = ctx.model.state, ctx.model.diagnostics
    fields = {
        "h": state.h, "u": state.u, "h_edge": diag.h_edge, "pv_edge": diag.pv_edge,
        "pv_vertex": diag.pv_vertex, "pv_cell": diag.pv_cell,
    }

    def time_op(metric: str, op: str, backend: str) -> None:
        args = [fields[f] for f in OP_FIELDS[op]]
        try:
            seconds = ctx.median(
                f"engine.op.{op}", lambda: dispatch(op, ctx.mesh, *args, backend=backend)
            )
        except UNAVAILABLE as exc:
            ctx.unavailable[metric] = f"{type(exc).__name__}: {exc}"
            return
        ctx.put(metric, seconds * 1e6)

    for op in OP_FIELDS:
        time_op(f"engine.op.{op}_us", op, "sparse")
    time_op("engine.op.coriolis_edge_term_numpy_us", "coriolis_edge_term", "numpy")
    # B1 runs once per RK stage.
    ctx.put(
        "engine.op.coriolis_share_pct",
        100.0 * 4 * ctx.get("engine.op.coriolis_edge_term_us") / 1e3
        / ctx.get("swm.step_ms"),
    )


@probe
def roofline(ctx: Context) -> None:
    """Computed bytes of one step, to read against ``host.triad_gbps``.

    Bytes are a model, not a measurement: every CSR matvec stage moves its
    matrix (12 bytes per stored entry, 4 per row pointer) plus its input and
    output vectors, the B1 gather moves its index and weight tables plus four
    edge vectors, and elementwise traffic is ignored.
    """
    from repro.engine.plan import compiled_plan
    from repro.engine.sparse import sparse_operator

    mesh = ctx.mesh
    aliases = {"flux_divergence": ("cell_divergence",),
               "apvm_upwinding": ("edge_gradient_of_vertex", "edge_gradient_of_cell")}
    calls = {"tend": 4, "diagnostics": 4, "reconstruct": 1}
    total = 0.0
    for segment, stages in compiled_plan(mesh, ctx.config).stages().items():
        for stage in stages:
            if stage.kind == "fallback":
                lanes = mesh.trisk.edgesOnEdge.size
                total += calls[segment] * (16.0 * lanes + 4 * 8.0 * mesh.nEdges)
                continue
            if stage.kind != "matvec":
                continue
            names = aliases.get(stage.name) or aliases.get(stage.op) or (stage.op,)
            for name in names:
                try:
                    m = sparse_operator(mesh, name)
                except KeyError:
                    continue
                total += calls[segment] * (
                    12.0 * m.nnz + 4.0 * (m.shape[0] + 1) + 8.0 * sum(m.shape)
                )
    ctx.put("engine.plan.bytes_per_step_computed", total)
    ctx.put("engine.plan.achieved_gbps", total / (ctx.get("swm.step_ms") / 1e3) / 1e9)


@probe
def swm_other_paths(ctx: Context) -> None:
    from repro.swm.error import invariants

    model = ctx.model
    ctx.put(
        "swm.invariants_ms",
        1e3 * ctx.median(
            "swm.invariants",
            lambda: invariants(ctx.mesh, model.state, model.diagnostics,
                               model.b_cell, ctx.config.gravity),
        ),
    )
    numpy_model = _live_model(
        ctx, ctx.galewsky, dataclasses.replace(ctx.config, backend="numpy", plan=False)
    )
    ctx.put("swm.numpy_step_ms",
            1e3 * ctx.median("swm.numpy_step", lambda: _advance(numpy_model), n=10))
    ctx.tc5 = f"perturbed:tc5:0:{ctx.seed}"
    ctx.config_o4 = plan_config(ctx.mesh, ctx.tc5, thickness_adv_order=4)
    ctx.model_o4 = _live_model(ctx, ctx.tc5, ctx.config_o4)
    ctx.put("swm.step_ms_tc5_o4",
            1e3 * ctx.median("swm.step_tc5_o4", lambda: _advance(ctx.model_o4)))


@probe
def api_overhead(ctx: Context) -> None:
    """What ``run`` adds to initialisation and stepping.

    Taken at ``steps=1``: with more steps the result is a small difference of
    large numbers measured at different moments, and host noise swamps it.
    """
    from repro.api import run

    wall = ctx.median(
        "api.run",
        lambda: run(ctx.galewsky, mesh=ctx.mesh, config=ctx.config, steps=1), n=5,
    )
    ctx.put(
        "api.run_overhead_ms",
        1e3 * (wall - ctx.get("swm.init_s")) - ctx.get("swm.step_ms"),
    )


# ------------------------------------------------------------------ parallel
@probe
def parallel_setup(ctx: Context) -> None:
    from repro.parallel.halo import build_local_mesh, halo_layers_required
    from repro.parallel.partition import partition_cells

    seconds, owner = ctx.rec.timed("parallel.partition", partition_cells, ctx.mesh, 2)
    ctx.put("parallel.partition_s", seconds)
    layers = halo_layers_required(
        ctx.config.thickness_adv_order, ctx.config.apvm_upwinding != 0.0
    )
    local_cells, build_s = 0, 0.0
    for rank in range(2):
        seconds, local = ctx.rec.timed(
            "parallel.local_mesh_build", build_local_mesh, ctx.mesh, owner, rank,
            halo_layers=layers,
        )
        build_s += seconds
        local_cells += local.nCells
    ctx.put("parallel.local_mesh_build_s", build_s)
    ctx.put("parallel.halo.redundant_cell_ratio", local_cells / ctx.mesh.nCells)


def _halo_counters(registry, steps: int, ranks: int) -> dict[str, float]:
    """Per-step halo numbers from a registry the pool merged its workers into.

    Counts are summed over ranks (total traffic); times are averaged over
    ranks (what one rank spends per step).
    """
    totals: dict[str, float] = {}
    for series in registry.series():
        if series.name.startswith("halo.") and getattr(series, "kind", "") == "counter":
            totals[series.name] = totals.get(series.name, 0.0) + series.value
    return {
        "bytes_per_step": totals.get("halo.bytes", 0.0) / steps,
        "exchanges_per_step": totals.get("halo.exchanges", 0.0) / steps / ranks,
        "wait_ms": 1e3 * totals.get("halo.wait_s", 0.0) / steps / ranks,
        "overlap_ms": 1e3 * totals.get("halo.overlap_s", 0.0) / steps / ranks,
    }


@probe
def parallel_pool(ctx: Context) -> None:
    """Pool at 2 ranks (static, dataflow), 1 rank, lockstep and the serial
    step, advanced round by round in this one process."""
    from repro.api import SWConfig, resolve_case
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.parallel.pool import PoolShallowWater
    from repro.parallel.runner import DecomposedShallowWater

    case = resolve_case(ctx.galewsky)
    pool_config = dataclasses.replace(ctx.config, parallel="pool", ranks=2)

    # Spawn cost and worker memory, from a pool of their own: RUSAGE_CHILDREN
    # only knows children that have been waited for.
    seconds, pool = ctx.rec.timed(
        "parallel.pool.spawn", PoolShallowWater, ctx.mesh, 2, case, pool_config
    )
    try:
        pool.advance(1)
    finally:
        pool.close()
    ctx.put("parallel.pool.spawn_s", seconds)
    ctx.put("parallel.pool.worker_rss_mb",
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

    default_schedule = getattr(SWConfig(dt=1.0), "halo_schedule", None)
    variants = {
        "static": (PoolShallowWater, 2, {"halo_schedule": "static"}),
        "dataflow": (PoolShallowWater, 2, {"halo_schedule": "dataflow"}),
        "r1": (PoolShallowWater, 1, {"ranks": 1}),
        "lockstep": (DecomposedShallowWater, 2, {"parallel": "lockstep"}),
    }
    if default_schedule not in variants:
        variants["default"] = (PoolShallowWater, 2, {})
    live: dict[str, object] = {}
    per_round, rounds = 3, max(ctx.calls // 3, 2)
    times: dict[str, list[float]] = {"serial": []}
    try:
        for name, (cls, ranks, overrides) in variants.items():
            # A schedule or mode a later change removes is rejected by the
            # config (ValueError) or the constructor; the rest still runs.
            try:
                config = dataclasses.replace(pool_config, **overrides)
                live[name] = cls(ctx.mesh, ranks, case, config)
                live[name].advance(1)
                times[name] = []
            except UNAVAILABLE + (ValueError,) as exc:
                ctx.unavailable[f"parallel.{name}"] = f"{type(exc).__name__}: {exc}"
                broken = live.pop(name, None)
                if hasattr(broken, "close"):
                    broken.close()
        serial = _live_model(ctx, ctx.galewsky, ctx.config)
        for _ in range(rounds):
            for name, runner in live.items():
                seconds, _ = ctx.rec.timed(f"parallel.{name}.advance",
                                           runner.advance, per_round)
                times[name].append(seconds / per_round)
            seconds, _ = ctx.rec.timed(
                "parallel.serial.advance",
                lambda: [_advance(serial) for _ in range(per_round)],
            )
            times["serial"].append(seconds / per_round)
        advanced = 1 + rounds * per_round
        halo = {}
        for name in ("static", "dataflow", "default"):
            if name in live:
                with use_registry(MetricsRegistry()) as registry:
                    live[name].run(1)
                halo[name] = _halo_counters(registry, advanced + 1, 2)
    finally:
        for runner in live.values():
            if hasattr(runner, "close"):
                runner.close()

    med = {name: 1e3 * statistics.median(v) for name, v in times.items() if v}
    default_name = default_schedule if default_schedule in med else "default"
    for metric, name in (
        ("parallel.pool.step_ms", default_name),
        ("parallel.pool.step_ms_r1", "r1"),
        ("parallel.pool.step_ms_static", "static"),
        ("parallel.pool.step_ms_dataflow", "dataflow"),
        ("parallel.lockstep.step_ms", "lockstep"),
    ):
        ctx.put(metric, med.get(name))
    if default_name in med:
        ctx.put("parallel.pool.efficiency", med["serial"] / (2 * med[default_name]))
    # Traffic as the default schedule runs it; wait and overlap time from
    # the dataflow pool, the only one whose workers publish them.
    if default_name in halo:
        ctx.put("parallel.halo.bytes_per_step", halo[default_name]["bytes_per_step"])
        ctx.put("parallel.halo.exchanges_per_step",
                halo[default_name]["exchanges_per_step"])
    if "dataflow" in halo:
        ctx.put("parallel.halo.wait_ms", halo["dataflow"]["wait_ms"])
        ctx.put("parallel.halo.overlap_ms", halo["dataflow"]["overlap_ms"])


# ------------------------------------------------------------------ ensemble
@probe
def ensemble(ctx: Context) -> None:
    from repro.api import State, resolve_case
    from repro.engine.plan import compiled_plan
    from repro.ensemble.batch import BatchedIntegrator
    from repro.ensemble.members import ensemble_initial_states

    members = 8
    case = resolve_case("galewsky")
    amplitude = ctx.config.ensemble_amplitude
    ctx.put(
        "ensemble.init_s",
        ctx.median(
            "ensemble.init",
            lambda: ensemble_initial_states(ctx.mesh, case, members, ctx.seed, amplitude),
            n=3, warm=0,
        ),
    )
    states, b_cell = ensemble_initial_states(ctx.mesh, case, members, ctx.seed, amplitude)
    integrator = BatchedIntegrator(
        ctx.mesh, ctx.config, b_cell, ctx.model.integrator.f_vertex, members
    )
    live = {"state": State.stack(states)}
    live["diag"] = integrator.diagnostics_for(live["state"])

    def batched_step():
        result = integrator.step(live["state"], live["diag"])
        live["state"], live["diag"] = result.state, result.diagnostics

    batched_step()
    serial = _live_model(ctx, ctx.galewsky, ctx.config)
    batched_s, serial_s = [], []
    for _ in range(max(ctx.calls // 3, 2)):
        batched_s.append(ctx.rec.timed("ensemble.step", batched_step)[0])
        for _ in range(2):
            serial_s.append(ctx.rec.timed("ensemble.serial_step",
                                          lambda: _advance(serial))[0])
    step = statistics.median(batched_s)
    ctx.put("ensemble.step_ms", 1e3 * step)
    ctx.put("ensemble.batch_efficiency", members * statistics.median(serial_s) / step)
    plan = compiled_plan(ctx.mesh, ctx.config, batch=members)
    n = max(ctx.calls // 3, 2)
    ctx.put(
        "ensemble.tend_ms",
        1e3 * ctx.median("ensemble.tend",
                         lambda: plan.tend(live["state"], live["diag"], b_cell), n=n),
    )
    ctx.put(
        "ensemble.diagnostics_ms",
        1e3 * ctx.median(
            "ensemble.diagnostics",
            lambda: plan.diagnostics(live["state"], ctx.model.integrator.f_vertex), n=n,
        ),
    )


# ---------------------------------------------------------------- resilience
def _durable_config(ctx: Context):
    return dataclasses.replace(
        ctx.config_o4, guard_interval=1, guard_cfl_max=1.0, guard_mass_drift=1e-9,
        guard_energy_drift=1e-3, checkpoint_interval=1,
    )


@probe
def resilience_checkpoint(ctx: Context) -> None:
    from repro.resilience.durable import DurableRun
    from repro.resilience.guards import Watchdog
    from repro.swm.model import ShallowWaterModel

    model = ctx.model_o4
    directory = ctx.fresh_dir()
    directory.mkdir(parents=True)
    try:
        path = directory / "probe.npz"
        ctx.put("resilience.checkpoint.save_ms",
                1e3 * ctx.median("resilience.checkpoint.save",
                                 lambda: model.save_checkpoint(path), n=10))
        ctx.put("resilience.checkpoint.bytes", path.stat().st_size)
        ctx.put(
            "resilience.checkpoint.load_ms",
            1e3 * ctx.median("resilience.checkpoint.load",
                             lambda: ShallowWaterModel.from_checkpoint(ctx.mesh, path),
                             n=10),
        )
        durable = DurableRun.create(
            directory / "run", ctx.tc5, ctx.mesh, _durable_config(ctx), 10
        )
        target = durable.checkpoint_path / "auto-00000001.npz"
        shutil.copyfile(path, target)
        ctx.put("resilience.durable.commit_ms",
                1e3 * ctx.median("resilience.durable.commit",
                                 lambda: durable.commit_checkpoint(1, target), n=10))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    watchdog = Watchdog.from_config(ctx.mesh, model.b_cell, _durable_config(ctx))
    ctx.put(
        "resilience.guards.check_ms",
        1e3 * ctx.median(
            "resilience.guards.check",
            lambda: watchdog.check(1, model.state, model.diagnostics, ctx.config_o4.dt),
        ),
    )


@probe
def resilience_durable(ctx: Context) -> None:
    """Durable against plain order-4 runs of equal length, interleaved."""
    from repro.api import run

    steps = 10
    durable_config = _durable_config(ctx)
    durable_s, plain_s = [], []
    directories = []
    try:
        for _ in range(3):
            directories.append(ctx.fresh_dir())
            durable_s.append(ctx.rec.timed(
                "resilience.durable.run", run, ctx.tc5, mesh=ctx.mesh,
                config=durable_config, steps=steps, run_dir=directories[-1],
            )[0])
            plain_s.append(ctx.rec.timed(
                "resilience.plain.run", run, ctx.tc5, mesh=ctx.mesh,
                config=ctx.config_o4, steps=steps,
            )[0])
        plain = statistics.median(plain_s)
        ctx.put("resilience.durable.overhead_pct",
                100.0 * (statistics.median(durable_s) - plain) / plain)

        class Abort(Exception):
            pass

        def abort_half_way(step, _result):
            if step == steps // 2:
                raise Abort

        directories.append(ctx.fresh_dir())
        try:
            run(ctx.tc5, mesh=ctx.mesh, config=durable_config, steps=steps,
                run_dir=directories[-1], callback=abort_half_way)
        except Abort:
            pass
        ctx.put("resilience.durable.resume_s",
                ctx.rec.timed("resilience.durable.resume", run,
                              resume=directories[-1], mesh=ctx.mesh)[0])
    finally:
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)


@probe
def jobs(ctx: Context) -> None:
    import repro.jobs
    from repro.api import result, submit

    submit_s, dedup_s, reconstruct_s = [], [], []
    directories = []
    try:
        for _ in range(3):
            directories.append(ctx.fresh_dir())
            request = dict(case=ctx.tc5, mesh=ctx.mesh, config=_durable_config(ctx),
                           steps=2, run_dir=directories[-1])
            seconds, handle = ctx.rec.timed("jobs.submit", lambda: submit(**request))
            submit_s.append(seconds)
            dedup_s.append(ctx.rec.timed("jobs.dedup_submit",
                                         lambda: submit(**request))[0])
            result(handle)
            repro.jobs.reset()
            reconstruct_s.append(ctx.rec.timed("jobs.reconstruct", result,
                                               directories[-1])[0])
    finally:
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)
    ctx.put("jobs.submit_ms", 1e3 * statistics.median(submit_s))
    ctx.put("jobs.dedup_submit_ms", 1e3 * statistics.median(dedup_s))
    ctx.put("jobs.reconstruct_ms", 1e3 * statistics.median(reconstruct_s))


# ------------------------------------------------------------- observability
@probe
def obs_overhead(ctx: Context) -> None:
    from repro.obs.trace import Tracer, use_tracer

    model = ctx.model
    tracer = Tracer()
    plain_s, traced_s = [], []
    n = max(ctx.calls // 3, 2)
    for _ in range(n):
        plain_s.append(ctx.rec.timed("obs.step_untraced", lambda: _advance(model))[0])
        with use_tracer(tracer):
            traced_s.append(ctx.rec.timed("obs.step_traced", lambda: _advance(model))[0])
    plain = statistics.median(plain_s)
    ctx.put("obs.trace_overhead_pct",
            100.0 * (statistics.median(traced_s) - plain) / plain)
    ctx.put("obs.spans_per_step", len(tracer.finished()) / n)
