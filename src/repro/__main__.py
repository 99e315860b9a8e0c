"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       integrate a test case (any executor), print errors/conservation
``cases``     print the scenario catalogue (``repro.swm.scenarios``)
``golden``    regenerate or check the golden-run regression registry
``jobs``      submit / inspect / collect durable jobs (``repro.jobs``)
``mesh``      build (and cache) an SCVT mesh, print its quality report
``report``    per-pattern cost report (forwards to ``repro.obs.report``)
``schedule``  show the hybrid schedules and speedups for a mesh size
``ladder``    print the Figure 6 optimization ladder
``scaling``   print the Figure 8/9 scaling tables

``run`` goes through :func:`repro.api.run`: ``--case`` takes a scenario
name or alias (``galewsky``, ``tc5``, ``dambreak``, ...), a Williamson
number, or a ``perturbed:<base>:<member>:<seed>`` token
(``python -m repro cases`` lists them all); ``--parallel``/``--ranks``
select the executor (serial, lockstep, or the shared-memory process pool),
and ``--ensemble N`` steps N perturbed-IC members on every usable
CPU (:func:`repro.api.run_ensemble`), printing the per-member verdict
table.  ``jobs submit`` registers a durable run directory without
integrating; ``jobs status`` / ``jobs result`` work from any process.
The test suite (``python -m pytest``) is the one way to check the package.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import BACKENDS
from repro.swm.config import SWConfig


def _cmd_mesh(args: argparse.Namespace) -> None:
    from repro.mesh import assess_quality, cached_mesh

    mesh = cached_mesh(args.level, lloyd_iterations=args.lloyd)
    mesh.validate()
    print(assess_quality(mesh).summary())


def _chaos_crash(step: int | None):
    """The --chaos-crash-at SIGKILL (or an inert context manager)."""
    import contextlib

    if step is None:
        return contextlib.nullcontext()
    from repro.resilience.faults import crash_at

    return crash_at(step, kill=True)


def _cmd_run(args: argparse.Namespace) -> None:
    from repro.api import build_mesh, error_norms, resolve_case, run
    from repro.swm.scenarios import default_config

    if args.resume is not None:
        from repro.resilience.durable import ManifestError

        try:
            with _chaos_crash(args.chaos_crash_at):
                result = run(resume=args.resume)
        except ManifestError as exc:
            raise SystemExit(str(exc)) from None
        print(f"resumed durable run in {args.resume}")
        print(f"  mass drift   = {result.mass_drift():.2e}")
        print(f"  energy drift = {result.energy_drift():.2e}")
        return

    raw = args.case
    try:
        case = resolve_case(int(raw) if str(raw).isdigit() else raw)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    mesh = build_mesh(args.level)
    # --plan and --ensemble imply the sparse backend (plans fuse its CSR
    # operators), and --ensemble the plan on it; an explicit contradictory
    # --backend is rejected by SWConfig.validate.
    backend = args.backend or (
        "sparse" if (args.plan or args.ensemble) else "numpy"
    )
    plan = args.plan or bool(args.ensemble and backend == "sparse")
    try:
        config = default_config(
            mesh, case, cfl=args.cfl,
            thickness_adv_order=args.order,
            backend=backend,
            plan=plan,
            parallel=args.parallel,
            ranks=args.ranks,
            halo_schedule=args.halo_schedule,
            checkpoint_interval=args.checkpoint_interval,
            ensemble=args.ensemble,
            ensemble_seed=args.perturb_seed,
            ensemble_amplitude=args.perturb_amplitude,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    dt = config.dt
    if args.steps is None and args.days is None:
        args.days = case.suggested_days
    case_arg = int(raw) if str(raw).isdigit() else raw
    if args.ensemble:
        from repro.api import run_ensemble

        ens = run_ensemble(
            case_arg, mesh=mesh, config=config,
            steps=args.steps, days=args.days, invariant_interval=1,
        )
        print(
            f"TC{case.number} ({case.name}): ensemble of "
            f"{ens.n_members} members, {ens.steps} steps of {dt:.0f} s "
            f"on {mesh.nCells} cells [ensemble, backend={backend}"
            f"{'+plan' if config.plan else ''}]"
        )
        print(ens.summary_table())
        mean = ens.mean_invariants()
        if mean:
            drift = abs(mean[-1].mass - mean[0].mass) / abs(mean[0].mass)
            print(f"  ensemble-mean mass drift = {drift:.2e}")
        return
    with _chaos_crash(args.chaos_crash_at):
        result = run(
            case_arg, mesh=mesh, config=config,
            steps=args.steps, days=args.days, run_dir=args.run_dir,
        )
    print(
        f"TC{case.number} ({case.name}): {result.steps} steps of {dt:.0f} s "
        f"on {mesh.nCells} cells "
        f"[{config.parallel}, ranks={config.ranks}, "
        f"backend={config.backend}{'+plan' if config.plan else ''}]"
    )
    print(f"  simulated time = {result.elapsed_seconds:.0f} s")
    print(f"  mass drift   = {result.mass_drift():.2e}")
    print(f"  energy drift = {result.energy_drift():.2e}")
    if case.exact_thickness is not None:
        err = error_norms(mesh, result.state.h, case.exact_thickness(mesh.metrics.xCell))
        print(f"  l1/l2/linf vs exact = {err.l1:.3e} / {err.l2:.3e} / {err.linf:.3e}")


def _cmd_cases(args: argparse.Namespace) -> None:
    from repro.bench.tables import render_table
    from repro.swm.scenarios import DEFAULT_PERTURB_AMPLITUDE, SCENARIOS

    rows = []
    for sc in SCENARIOS:
        aliases = ", ".join(a for a in sc.all_names if a != sc.name) or "-"
        flags = ", ".join(flag for flag, on in (
            ("golden", sc.golden),
            ("topography", sc.topographic),
            ("advection-only", sc.advection_only),
            ("discontinuous", sc.discontinuous),
        ) if on) or "-"
        rows.append((
            sc.name,
            aliases,
            "-" if sc.number is None else str(sc.number),
            f"{sc.suggested_days:g}",
            flags,
        ))
    print(render_table(
        "Scenario catalogue (repro.swm.scenarios)",
        ["name", "aliases", "number", "days", "flags"],
        rows,
    ))
    print(
        "any name/alias/number above works as --case; "
        "perturbed:<base>:<member>:<seed>[:<amplitude>] builds a seeded "
        f"perturbed-IC variant (default amplitude {DEFAULT_PERTURB_AMPLITUDE:g})"
    )


def _cmd_golden(args: argparse.Namespace) -> None:
    """Run the golden-run matrix in a pytest subprocess (regen or check).

    A subprocess keeps the registry workflow identical to what CI runs —
    same collection, same per-cell skip logic — instead of a second,
    subtly different in-process regeneration path.
    """
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    test = root / "tests" / "test_golden.py"
    if not test.exists():
        raise SystemExit(
            f"{test} not found: the golden registry lives in the source "
            f"checkout (tests/golden/), not in an installed package"
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_GOLDEN_REGEN", None)
    if args.golden_command == "regen":
        env["REPRO_GOLDEN_REGEN"] = "1"
    rc = subprocess.call(
        [sys.executable, "-m", "pytest", "-q", str(test)], env=env, cwd=root
    )
    if rc:
        raise SystemExit(rc)
    if args.golden_command == "regen":
        print(
            "golden registry regenerated in tests/golden/; run "
            "`python -m repro golden check` (or the test suite) to confirm"
        )


def _cmd_jobs(args: argparse.Namespace) -> None:
    from repro.jobs import JobError, result, status, submit
    from repro.resilience.durable import ManifestError

    try:
        if args.jobs_command == "submit":
            from repro.api import RunRequest, build_mesh, resolve_case
            from repro.swm.scenarios import default_config

            raw = args.case
            case_arg = int(raw) if str(raw).isdigit() else raw
            case = resolve_case(case_arg)
            mesh = build_mesh(args.level)
            config = default_config(
                mesh, case, cfl=args.cfl,
                checkpoint_interval=args.checkpoint_interval,
            )
            steps = args.steps
            days = args.days if steps is None else None
            if steps is None and days is None:
                days = case.suggested_days
            handle = submit(RunRequest(
                case=case_arg, mesh=mesh, config=config,
                steps=steps, days=days, run_dir=args.run_dir,
            ))
            print(f"{handle.id}: {status(handle)} in {args.run_dir}")
        elif args.jobs_command == "status":
            print(status(args.run_dir))
        else:  # result
            res = result(args.run_dir)
            print(f"completed: {res.steps} steps, "
                  f"simulated {res.elapsed_seconds:.0f} s")
            if res.invariant_history:
                print(f"  mass drift   = {res.mass_drift():.2e}")
                print(f"  energy drift = {res.energy_drift():.2e}")
    except (JobError, ManifestError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _cmd_report(argv: list[str]) -> None:
    from repro.obs.report import main as report_main

    rc = report_main(argv)
    if rc:
        raise SystemExit(rc)


def _cmd_schedule(args: argparse.Namespace) -> None:
    from repro.hybrid import model_step_times
    from repro.machine.counts import MeshCounts

    st = model_step_times(MeshCounts(nCells=args.cells))
    print(f"{args.cells:,} cells, per RK-4 step:")
    print(f"  serial CPU     : {st.serial:.4f} s")
    print(f"  kernel-level   : {st.kernel_level:.4f} s ({st.kernel_speedup:.2f}x)")
    print(f"  pattern-driven : {st.pattern_level:.4f} s ({st.pattern_speedup:.2f}x)")


def _cmd_ladder(args: argparse.Namespace) -> None:
    from repro.machine import ladder_speedups
    from repro.machine.counts import MeshCounts
    from repro.patterns import build_catalog

    for name, t, s in ladder_speedups(build_catalog(), MeshCounts(nCells=args.cells)):
        print(f"  {name:12s} {t * 1e3:10.2f} ms  {s:6.1f}x")


def _cmd_scaling(args: argparse.Namespace) -> None:
    from repro.parallel import strong_scaling, weak_scaling

    print(f"strong scaling, {args.cells:,} cells:")
    for pt in strong_scaling(args.cells):
        print(
            f"  P={pt.n_procs:3d}  cpu {pt.cpu_time:8.4f} s  "
            f"hybrid {pt.hybrid_time:8.4f} s"
        )
    print("weak scaling, 40,962 cells/process:")
    for pt in weak_scaling():
        print(
            f"  P={pt.n_procs:3d}  cpu {pt.cpu_time:8.4f} s  "
            f"hybrid {pt.hybrid_time:8.4f} s"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pattern-driven hybrid MPAS shallow-water reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build and report an SCVT mesh")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--lloyd", type=int, default=4)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("run", help="integrate a test case (any executor)")
    p.add_argument(
        "--case", default="2",
        help="case name (galewsky, tc5, ...) or Williamson number",
    )
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--days", type=float, default=None)
    p.add_argument("--cfl", type=float, default=0.6)
    p.add_argument("--order", type=int, default=2, choices=(2, 3, 4))
    p.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="engine execution backend; defaults to numpy, or sparse under "
        "--plan",
    )
    p.add_argument(
        "--plan", action="store_true",
        help="execute substeps through fused per-mesh execution plans "
        "(implies --backend sparse)",
    )
    p.add_argument(
        "--parallel", default="serial", choices=("serial", "lockstep", "pool")
    )
    p.add_argument("--ranks", type=int, default=1)
    p.add_argument(
        "--halo-schedule", default=SWConfig.halo_schedule,
        choices=SWConfig.HALO_SCHEDULES,
        help="halo synchronization schedule of the decomposed modes: "
        "dataflow runs the comm-avoiding schedule derived from the step "
        "graph; static runs all 8 Algorithm-1 sync points",
    )
    p.add_argument(
        "--checkpoint-interval", type=int, default=0,
        help="write a restart file every N steps (0 = off; durable runs "
        "bump 0 to 1)",
    )
    p.add_argument(
        "--run-dir", default=None,
        help="make the run durable: checkpoints + a crash-consistent "
        "manifest land in this directory, resumable with --resume",
    )
    p.add_argument(
        "--resume", default=None,
        help="continue the durable run in this directory (case/config/"
        "steps come from its manifest; other run flags are ignored)",
    )
    p.add_argument(
        "--chaos-crash-at", type=int, default=None,
        help="chaos testing: SIGKILL this process when integration step N "
        "starts (proves --resume continues bitwise-identically)",
    )
    p.add_argument(
        "--ensemble", type=int, default=0,
        help="step N perturbed-IC members, each usable CPU taking the next "
        "member-step (implies --backend sparse --plan); prints the per-member table",
    )
    p.add_argument(
        "--perturb-seed", type=int, default=0,
        help="base seed of the per-member IC perturbation streams",
    )
    p.add_argument(
        "--perturb-amplitude", type=float, default=1e-6,
        help="relative thickness perturbation amplitude (0 = identical "
        "members)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("cases", help="print the scenario catalogue")
    p.set_defaults(func=_cmd_cases)

    p = sub.add_parser(
        "golden", help="regenerate or check the golden-run registry"
    )
    gsub = p.add_subparsers(dest="golden_command", required=True)
    gsub.add_parser(
        "regen",
        help="re-pin tests/golden/ from the current numerics "
        "(REPRO_GOLDEN_REGEN=1 pytest tests/test_golden.py)",
    ).set_defaults(func=_cmd_golden)
    gsub.add_parser(
        "check", help="run the golden matrix against the pinned registry"
    ).set_defaults(func=_cmd_golden)

    p = sub.add_parser(
        "jobs", help="submit / inspect / collect durable jobs"
    )
    jsub = p.add_subparsers(dest="jobs_command", required=True)
    js = jsub.add_parser(
        "submit", help="register a durable run directory without integrating"
    )
    js.add_argument("--run-dir", required=True)
    js.add_argument(
        "--case", default="2",
        help="case name (galewsky, tc5, ...) or Williamson number",
    )
    js.add_argument("--level", type=int, default=3)
    js.add_argument("--steps", type=int, default=None)
    js.add_argument("--days", type=float, default=None)
    js.add_argument("--cfl", type=float, default=0.6)
    js.add_argument("--checkpoint-interval", type=int, default=1)
    js.set_defaults(func=_cmd_jobs)
    js = jsub.add_parser(
        "status", help="pending / running / completed for a run directory"
    )
    js.add_argument("--run-dir", required=True)
    js.set_defaults(func=_cmd_jobs)
    js = jsub.add_parser(
        "result", help="compute (or recover) the job result synchronously"
    )
    js.add_argument("--run-dir", required=True)
    js.set_defaults(func=_cmd_jobs)

    sub.add_parser(
        "report",
        help="per-pattern cost report (args forwarded to repro.obs.report)",
        add_help=False,
    )

    p = sub.add_parser("schedule", help="hybrid schedule speedups (Fig. 7)")
    p.add_argument("--cells", type=int, default=655362)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("ladder", help="Xeon Phi optimization ladder (Fig. 6)")
    p.add_argument("--cells", type=int, default=655362)
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("scaling", help="strong/weak scaling (Figs. 8-9)")
    p.add_argument("--cells", type=int, default=655362)
    p.set_defaults(func=_cmd_scaling)
    return parser


def main(argv: list[str] | None = None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    # argparse REMAINDER cannot capture leading --flags; forward verbatim.
    if argv and argv[0] == "report":
        _cmd_report(argv[1:])
        return
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
