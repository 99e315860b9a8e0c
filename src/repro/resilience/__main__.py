"""Resilience CLI: end-to-end fault-recovery proof.

Run it::

    python -m repro.resilience --selftest

The selftest integrates the Galewsky jet for 10 RK-4 steps on a small mesh
under an aggressive seeded fault plan, once per fault scenario, and proves
that every *recoverable* fault leaves the final state **bitwise identical**
to the fault-free run:

1. ``engine.dispatch`` faults — one recovered by a same-backend retry, one
   by the counted ``numpy`` fallback;
2. an ``engine.split.device`` failure mid-pattern — the survivor re-executes
   the dead device's rows and the placement degrades to single-device;
3. ``halo.exchange`` faults in the 2-rank decomposed run — bounded retries;
4. ``hybrid.transfer`` faults in the simulated executor — rescheduled, the
   failed attempts occupying their PCIe channel (timeline still validates);
5. the numerical watchdog — an unstable ``dt`` is caught by the CFL guard
   and either halts with a diagnostic or rolls back to the auto-checkpoint
   with ``dt`` halving, per the configured policy;
6. a durable run (level 3, a checkpoint every step) dies of an injected
   ``process.crash``, is resumed from its manifest, lands bitwise on the
   fault-free state, and every manifest digest matches its file.

Exit code 0 on success; the fault/recovery counter table is printed so the
obs report provably shows nonzero counters for what was thrown at the runs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack

import numpy as np

from ..obs.metrics import MetricsRegistry, get_registry, use_registry
from .faults import FaultPlan, FaultSpec, use_fault_plan

#: Steps of every selftest integration (the acceptance horizon).
SELFTEST_STEPS = 10
#: Mesh level of the durable scenario: its restart files should be real
#: archives (642 cells), not the 162-cell default of the fault scenarios.
DURABLE_LEVEL = 3


def _base_config(mesh, case, **overrides):
    from ..constants import GRAVITY
    from ..swm.config import SWConfig
    from ..swm.model import suggested_dt

    kwargs = dict(
        dt=suggested_dt(mesh, case, GRAVITY, cfl=0.5), thickness_adv_order=4
    )
    kwargs.update(overrides)
    return SWConfig(**kwargs)


def _run_model(level: int, steps: int, plan=None, placements=None, **overrides):
    """Integrate the Galewsky jet; returns the final ``(h, u)``."""
    from ..engine.split import use_placements
    from ..mesh.cache import cached_mesh
    from ..swm.galewsky import galewsky_jet
    from ..swm.model import ShallowWaterModel

    mesh = cached_mesh(level)
    case = galewsky_jet()
    model = ShallowWaterModel(mesh, _base_config(mesh, case, **overrides))
    model.initialize(case)
    with ExitStack() as stack:
        if placements is not None:
            stack.enter_context(use_placements(placements))
        if plan is not None:
            stack.enter_context(use_fault_plan(plan))
        model.run(steps=steps)
    return model.state.h.copy(), model.state.u.copy()


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"  {name:28s} [{'ok' if ok else 'FAIL'}]{' ' + detail if detail else ''}")
    return ok


def _bitwise(name: str, got, ref) -> bool:
    h, u = got
    h_ref, u_ref = ref
    same = np.array_equal(h, h_ref) and np.array_equal(u, u_ref)
    detail = "" if same else (
        f"max|dh|={np.max(np.abs(h - h_ref)):.3e} "
        f"max|du|={np.max(np.abs(u - u_ref)):.3e}"
    )
    return _check(name, same, detail)


def _counter_total(prefix: str) -> float:
    return sum(
        s.value for s in get_registry().series() if s.name.startswith(prefix)
    )


# ------------------------------------------------------------------ scenarios
def _scenario_dispatch(level: int, reference) -> bool:
    plan = FaultPlan(
        [
            # One transient fault: the same-backend retry recovers it.
            FaultSpec("engine.dispatch", at=(3,), max_fires=1),
            # One persistent fault: fires on the attempt *and* its retry, so
            # recovery falls back to the numpy implementation (bitwise
            # identical here, since the run's backend is numpy).
            FaultSpec("engine.dispatch", at=(40, 41), max_fires=2),
        ],
        seed=1,
    )
    got = _run_model(level, SELFTEST_STEPS, plan=plan)
    ok = _bitwise("backend-dispatch faults", got, reference)
    return ok & _check(
        "  plan fired", plan.total_fires == 3, f"{plan.total_fires} fires"
    )


def _scenario_split(level: int, reference) -> bool:
    from ..hybrid.executor import Placement

    plan = FaultPlan(
        [
            FaultSpec(
                "engine.split.device", at=(2,), match={"device": "mic"}, max_fires=1
            )
        ],
        seed=2,
    )
    got = _run_model(
        level,
        SELFTEST_STEPS,
        plan=plan,
        placements={"A1": Placement("split", 0.5)},
    )
    ok = _bitwise("split-device failure", got, reference)
    degraded = _counter_total("resilience.split.degraded") > 0
    return ok & _check("  degraded to survivor", degraded)


def _scenario_halo(level: int) -> bool:
    lockstep = dict(parallel="lockstep", ranks=2)
    ref = _run_model(level, SELFTEST_STEPS, **lockstep)
    plan = FaultPlan(
        [
            FaultSpec("halo.exchange", at=(7,), max_fires=1),
            FaultSpec("halo.exchange", probability=0.05, max_fires=2),
        ],
        seed=3,
    )
    got = _run_model(level, SELFTEST_STEPS, plan=plan, **lockstep)
    ok = _bitwise("halo-exchange faults", got, ref)
    return ok & _check(
        "  plan fired", plan.total_fires >= 1, f"{plan.total_fires} fires"
    )


def _scenario_transfer() -> bool:
    from ..dataflow.build import build_step_graph
    from ..hybrid.executor import HybridExecutor
    from ..hybrid.schedule import node_times, pattern_level_assignment
    from ..hybrid.stepmodel import _cpu_parallel_model, _mic_model, _perf_config
    from ..machine.counts import MeshCounts
    from ..machine.interconnect import TransferModel
    from ..machine.spec import PAPER_NODE

    dfg = build_step_graph(_perf_config())
    counts = MeshCounts(nCells=40962, name="120-km")
    times = node_times(dfg, counts, _cpu_parallel_model(), _mic_model())
    transfer = TransferModel(PAPER_NODE.pcie_bw_gbs, PAPER_NODE.pcie_latency_us)
    executor = HybridExecutor(dfg, times, counts, transfer)
    assignment = pattern_level_assignment(dfg, times)

    clean = executor.run(assignment)
    plan = FaultPlan(
        [FaultSpec("hybrid.transfer", at=(2,), probability=0.2, max_fires=3)],
        seed=4,
    )
    with use_fault_plan(plan):
        faulted = executor.run(assignment)
    faulted.validate_no_overlap()
    faulted.validate_dependencies(dfg)
    retried = [t for t in faulted.tasks if t.name.startswith("xfer!")]
    ok = _check(
        "transfer faults rescheduled",
        plan.total_fires >= 1 and len(retried) == plan.total_fires,
        f"{plan.total_fires} fires, {len(retried)} rescheduled",
    )
    return ok & _check(
        "  recovery slows the node",
        faulted.makespan >= clean.makespan,
        f"{clean.makespan * 1e3:.2f} -> {faulted.makespan * 1e3:.2f} ms",
    )


def _scenario_watchdog(level: int) -> bool:
    from ..constants import GRAVITY
    from ..mesh.cache import cached_mesh
    from ..swm.galewsky import galewsky_jet
    from ..swm.model import ShallowWaterModel, suggested_dt
    from .guards import NumericalBlowup

    mesh = cached_mesh(level)
    case = galewsky_jet()
    dt_stable = suggested_dt(mesh, case, GRAVITY, cfl=0.5)

    # Halt: an unstable dt trips the CFL guard with a named diagnostic.
    model = ShallowWaterModel(
        mesh,
        _base_config(
            mesh, case, dt=4.0 * dt_stable, guard_interval=1, guard_cfl_max=1.0
        ),
    )
    model.initialize(case)
    try:
        with np.errstate(all="ignore"):
            model.run(steps=SELFTEST_STEPS)
        halted = False
        detail = "no violation raised"
    except NumericalBlowup as exc:
        halted = exc.report.guard == "cfl" and exc.report.step == 1
        detail = str(exc)
    ok = _check("watchdog halt (CFL)", halted, detail)

    # Rollback: dt just above the ceiling halves once, then completes.
    model = ShallowWaterModel(
        mesh,
        _base_config(
            mesh, case,
            dt=1.6 * dt_stable, guard_interval=1, guard_cfl_max=0.7,
            guard_policy="rollback", checkpoint_interval=2,
        ),
    )
    model.initialize(case)
    result = model.run(steps=SELFTEST_STEPS)
    rolled = _counter_total("resilience.checkpoint.rollback") > 0
    ok &= _check(
        "watchdog rollback + dt/2",
        rolled and result.steps == SELFTEST_STEPS
        and np.isfinite(model.state.h).all(),
        f"final dt={model.config.dt:.1f}s",
    )
    return ok


def _scenario_durable(reference) -> bool:
    import tempfile

    from ..api import run
    from ..mesh.cache import cached_mesh
    from ..swm.galewsky import galewsky_jet
    from .durable import DurableRun
    from .faults import FaultInjected

    mesh = cached_mesh(DURABLE_LEVEL)
    config = _base_config(mesh, galewsky_jet(), checkpoint_interval=1)
    crash_at = SELFTEST_STEPS // 2 + 1
    plan = FaultPlan(
        [FaultSpec("process.crash", at=(1,), match={"step": crash_at})], seed=5
    )
    with tempfile.TemporaryDirectory(prefix="repro-durable-") as directory:
        crashed = False
        try:
            with use_fault_plan(plan):
                run("galewsky", mesh=mesh, config=config,
                    steps=SELFTEST_STEPS, run_dir=directory)
        except FaultInjected:
            crashed = True
        committed = [
            c["step"] for c in DurableRun.open(directory).manifest["checkpoints"]
        ]
        ok = _check(
            "durable run crashed mid-way",
            crashed and committed == list(range(crash_at)),
            f"died before step {crash_at}, {len(committed)} checkpoints committed",
        )
        resumed = run(resume=directory, mesh=mesh)
        ok &= _bitwise(
            "  resumed from the manifest",
            (resumed.state.h, resumed.state.u), reference,
        )
        durable = DurableRun.open(directory)
        entries = durable.manifest["checkpoints"]
        matching = sum(durable.entry_matches_file(c) for c in entries)
    return ok & _check(
        "  manifest digests == files",
        durable.manifest["completed"]
        and matching == len(entries) == SELFTEST_STEPS + 1,
        f"{matching}/{len(entries)} checkpoints",
    )


# ------------------------------------------------------------------------ CLI
def _selftest(level: int) -> int:
    from ..obs.report import render_resilience_report

    registry = MetricsRegistry()
    with use_registry(registry):
        print(f"fault-free reference: Galewsky, level {level}, "
              f"{SELFTEST_STEPS} steps")
        reference = _run_model(level, SELFTEST_STEPS)

        ok = _scenario_dispatch(level, reference)
        ok &= _scenario_split(level, reference)
        ok &= _scenario_halo(level)
        ok &= _scenario_transfer()
        ok &= _scenario_watchdog(level)
        ok &= _scenario_durable(
            reference if level == DURABLE_LEVEL
            else _run_model(DURABLE_LEVEL, SELFTEST_STEPS)
        )

        injected = _counter_total("resilience.fault.injected")
        recovered = (
            _counter_total("resilience.recovery.")
            + _counter_total("resilience.split.")
            + _counter_total("resilience.checkpoint.rollback")
        )
        ok &= _check(
            "nonzero fault/recovery counters",
            injected > 0 and recovered > 0,
            f"{injected:g} injected, {recovered:g} recovery actions",
        )
        print()
        print(render_resilience_report(registry, "Fault and recovery counters"))
    if not ok:
        print("resilience selftest FAILED")
        return 1
    print("resilience selftest OK: every recoverable fault was bitwise-invisible")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Fault-injection and recovery utilities.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="faulted Galewsky runs must recover bitwise-identically",
    )
    parser.add_argument(
        "--level",
        type=int,
        default=2,
        help="icosahedral mesh level for the selftest (default 2 = 162 cells)",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return _selftest(args.level)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
