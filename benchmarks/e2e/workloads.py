"""The four end-to-end workloads, their correctness checks and state digest.

Every call into the program here goes through a name in
``repro.api.__all__``; the one exception is ``repro.jobs.reset`` in the
durable contract probe, which simulates the eviction the probe is about.
All workloads run the SCVT mesh at ``LEVEL`` (10,242 cells / 30,720 edges);
the initial condition is the seeded token ``perturbed:<base>:0:<seed>``, so
``--seed`` changes the data and never the generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

LEVEL = 5
QUICK_LEVEL = 3
QUICK_STEPS = 3
MASS_DRIFT_LIMIT = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # K: RK-4 steps per entry-point call (one repeat)
    members: int = 1


#: Why each workload is here is written once, in BENCHMARK.json.  K is sized
#: so that a repeat lasts about 0.6 to 2 s on the 2-core box the benchmark was
#: written on: many short repeats, each with a sentinel sample close to it
#: (see README, "Noise").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial_plan_l5", steps=20),
        Workload("pool2_plan_l5", steps=50),
        Workload("ensemble8_plan_l5", steps=4, members=8),
        Workload("durable_tc5_l5", steps=10),
    )
}


def plan_config(mesh, token: str, **overrides):
    """The plan configuration of a case at its CFL-safe ``suggested_dt``."""
    import repro.api as api

    dt = api.suggested_dt(mesh, api.resolve_case(token), api.SWConfig(dt=1.0).gravity)
    return api.SWConfig(dt=dt, backend="sparse", plan=True, **overrides)


class Prepared:
    """One workload bound to a mesh, a seed and a scratch directory."""

    def __init__(self, name: str, seed: int, level: int, scratch: Path) -> None:
        import repro.api as api

        self.api = api
        self.workload = WORKLOADS[name]
        self.name = name
        self.seed = int(seed)
        self.scratch = Path(scratch)
        self.mesh = api.build_mesh(level)
        base = "tc5" if name == "durable_tc5_l5" else "galewsky"
        self.token = f"perturbed:{base}:0:{self.seed}"
        plan = plan_config(self.mesh, self.token)
        #: The plain serial plan configuration of the same case: the
        #: reference side of the pool and ensemble contract probes.
        self.serial_config = plan
        if name == "pool2_plan_l5":
            self.config = dataclasses.replace(plan, parallel="pool", ranks=2)
        elif name == "durable_tc5_l5":
            self.config = dataclasses.replace(
                plan, thickness_adv_order=4, guard_interval=1, guard_cfl_max=1.0,
                guard_mass_drift=1e-9, guard_energy_drift=1e-3,
                checkpoint_interval=1,
            )
        else:
            self.config = plan
        self._runs = 0

    # -------------------------------------------------------- entry points
    def fresh_run_dir(self) -> Path:
        self._runs += 1
        return self.scratch / f"run-{self._runs:04d}"

    def call(self, steps: int, run_dir: Path | None = None):
        """One call of the workload's public entry point."""
        api = self.api
        if self.name == "ensemble8_plan_l5":
            return api.run_ensemble(
                "galewsky", mesh=self.mesh, config=self.config,
                ensemble=self.workload.members, perturb_seed=self.seed,
                steps=steps,
            )
        if self.name == "durable_tc5_l5":
            handle = api.submit(
                case=self.token, mesh=self.mesh, config=self.config,
                steps=steps, invariant_interval=1, run_dir=run_dir,
            )
            return api.result(handle)
        return api.run(self.token, mesh=self.mesh, config=self.config, steps=steps)

    def repeat(self, steps: int):
        """``(result, run_dir)`` of one repeat; durable repeats get a fresh
        directory, which the caller removes once it has checked the result."""
        run_dir = self.fresh_run_dir() if self.name == "durable_tc5_l5" else None
        return self.call(steps, run_dir=run_dir), run_dir

    # --------------------------------------------------------------- checks
    def run_results(self, result) -> list:
        """The per-trajectory ``RunResult`` objects inside ``result``."""
        return list(result.members) if hasattr(result, "members") else [result]

    def check(self, result) -> list[str]:
        """Finite state and mass drift within round-off, per trajectory."""
        import numpy as np

        errors = []
        for k, run in enumerate(self.run_results(result)):
            if run is None:
                errors.append(f"trajectory {k} produced no result")
                continue
            if not (np.isfinite(run.state.h).all() and np.isfinite(run.state.u).all()):
                errors.append(f"trajectory {k} has non-finite state")
            drift = run.mass_drift()
            if not drift <= MASS_DRIFT_LIMIT:
                errors.append(f"trajectory {k} mass drift {drift:.3e}")
        return errors

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for run in self.run_results(result):
            if run is not None:
                h.update(run.state.h.tobytes())
                h.update(run.state.u.tobytes())
        return h.hexdigest()

    def contract_probe(self) -> list[str]:
        """The 2-step bitwise execution contract of this workload."""
        api = self.api
        errors = []
        if self.name == "durable_tc5_l5":
            run_dir = self.fresh_run_dir()
            got = self.call(2, run_dir=run_dir)
            errors += _manifest_errors(run_dir, steps=2)
            import repro.jobs

            repro.jobs.reset()
            again = api.result(run_dir)
            if not _same_state(got, again):
                errors.append("result(run_dir) after jobs.reset() differs")
            shutil.rmtree(run_dir, ignore_errors=True)
            return errors
        got = self.call(2)
        reference = api.run(
            self.token, mesh=self.mesh, config=self.serial_config, steps=2
        )
        first = self.run_results(got)[0]
        if first is None or not _same_state(first, reference):
            errors.append(f"{self.name} 2-step state differs from the serial plan run")
        return errors


def _same_state(a, b) -> bool:
    import numpy as np

    return np.array_equal(a.state.h, b.state.h) and np.array_equal(a.state.u, b.state.u)


def _manifest_errors(run_dir: Path, steps: int) -> list[str]:
    """The manifest says completed and commits every step's checkpoint."""
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    errors = []
    if not manifest.get("completed"):
        errors.append("manifest not marked completed")
    committed = {c.get("step"): c for c in manifest.get("checkpoints", [])}
    if sorted(committed) != list(range(steps + 1)):
        errors.append(f"manifest commits steps {sorted(committed)}")
    for step, entry in committed.items():
        matches = list(run_dir.rglob(entry["file"]))
        if not matches:
            errors.append(f"checkpoint file of step {step} is missing")
            continue
        if hashlib.sha256(matches[0].read_bytes()).hexdigest() != entry["sha256"]:
            errors.append(f"checkpoint of step {step} does not match its digest")
    return errors
