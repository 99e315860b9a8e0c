"""Level-5 end-to-end benchmark with per-layer attribution.

One run of the driver's contract::

    python3 benchmarks/e2e/run.py --workload serial_plan_l5 --seed 1 \\
        --seconds 10 --trace 0

prints every end-to-end metric of that workload (``--trace 1``: every
per-layer metric) by name with its unit, then one JSON object on the last
line.  Without ``--workload`` all four workloads run one after another, then
the traced run, and one result file is written (``--out``).
``--compare A.json B.json`` reads two such files.  See README.md.

This process never imports ``repro``: every measurement runs in a fresh child
interpreter (``child.py``) with the private cache, one numerical thread and
``src`` on its path.  The sentinel (``host.py``) is sampled here around the
set-up children and inside the measurement child around every repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy loads here or in any child

import compare as compare_mod  # noqa: E402
import host  # noqa: E402
from workloads import LEVEL, QUICK_LEVEL, QUICK_STEPS, WORKLOADS  # noqa: E402

#: Everything the benchmark writes lives here (listed in .gitignore).
WORK = ROOT / ".bench_build" / "e2e"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
PROVISION_TIMEOUT_S = 850


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_hash() -> str:
    """Identity of the program under test: the cache is private to it, so a
    parent and a change commit never share cache files."""
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env.update(
        THREADS,
        REPRO_CACHE_DIR=str(cache),
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


class Runner:
    """Starts child roles and owns the scratch directories they use."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.cache = WORK / f"cache-{source_hash()}"
        self.env = child_env(self.cache)
        self.scratch = WORK / "tmp" / f"{os.getpid()}"
        self.sentinel = host.Sentinel()
        self._children = 0

    def child(self, role: str, *args, timeout: float = CHILD_TIMEOUT_S) -> dict:
        self._children += 1
        scratch = self.scratch / f"{self._children:03d}-{role}"
        command = [
            sys.executable, str(HERE / "child.py"), role, "--level", str(self.level),
            "--scratch", str(scratch), *map(str, args),
        ]
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:
            # Time-out or interrupt: the child's session holds its pool
            # workers too, and none of them may outlive this run.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit(f"child {role} exceeded {timeout} s and was killed")
            raise
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"child {role} exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def provision(self) -> Path:
        """The provision record of this program and level, filling the
        private cache first if it is not there yet."""
        record = self.cache / f"provision-l{self.level}.json"
        if not record.exists():
            for stale in WORK.glob("cache-*"):
                if stale != self.cache:
                    shutil.rmtree(stale, ignore_errors=True)
            self.cache.mkdir(parents=True, exist_ok=True)
            payload = self.child("provision", timeout=PROVISION_TIMEOUT_S)
            tmp = record.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, record)
        return record

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ------------------------------------------------------------- measurements
def summary(samples: list[float], unit: str, **raw) -> dict:
    """The median of ``samples`` as the value, with what lies behind it."""
    out = {"value": statistics.median(samples), "unit": unit, "samples": samples,
           "min": min(samples), "max": max(samples), **raw}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return out


def end_to_end(runner: Runner, name: str, seed: int, seconds: float, quick: bool) -> dict:
    """Set-ups, then the measurement child; timings scaled by the sentinel.

    A time is multiplied by ``REFERENCE_MS / sentinel``, a rate by its
    inverse, with the sentinel sampled right beside it: what the timing would
    have been on a host on which the sentinel takes ``REFERENCE_MS``.
    """
    workload = WORKLOADS[name]
    steps = min(workload.steps, QUICK_STEPS) if quick else workload.steps
    setups, sentinel = [], [runner.sentinel.sample_ms()]
    for _ in range(2 if quick else SETUP_RUNS):
        setups.append(runner.child("setup", "--workload", name, "--seed", seed)["setup_s"])
        sentinel.append(runner.sentinel.sample_ms())
    setup_host = [(a + b) / 2.0 / host.REFERENCE_MS for a, b in zip(sentinel, sentinel[1:])]
    measured = runner.child(
        "measure", "--workload", name, "--seed", seed, "--seconds", seconds,
        "--steps", steps, "--min-repeats", 2 if quick else 3,
    )
    walls, repeat_host = measured.pop("walls_s"), [
        s / host.REFERENCE_MS for s in measured.pop("sentinel_ms")
    ]
    rss = measured.pop("peak_rss_mb")
    metrics = {
        "setup_s": summary([t / h for t, h in zip(setups, setup_host)], "s",
                           raw_median=statistics.median(setups)),
        "peak_rss_mb": summary([rss], "MB"),
    }
    if walls:
        raw = [steps / w for w in walls]
        metrics["steps_per_s"] = summary(
            [r * h for r, h in zip(raw, repeat_host)], "1/s",
            raw_median=statistics.median(raw), raw_best=max(raw),
        )
        members = workload.members
        metrics["member_steps_per_s"] = summary(
            [members * r for r in metrics["steps_per_s"]["samples"]], "1/s",
            raw_median=members * statistics.median(raw), raw_best=members * max(raw),
        )
    attempted, failed = measured["attempted"], measured["failed"]
    return {
        **measured,
        "metrics": metrics,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_share": failed / attempted,
        "host": {"sentinel_ms": statistics.median(h * host.REFERENCE_MS for h in repeat_host)
                 if repeat_host else statistics.median(sentinel),
                 "reference_ms": host.REFERENCE_MS},
    }


def traced(runner: Runner, name: str, seed: int, quick: bool, record: Path) -> dict:
    workload = WORKLOADS[name]
    out = WORK / "out" / name
    calib_before = runner.sentinel.sample_ms()
    bandwidth = host.triad()
    result = runner.child(
        "trace", "--workload", name, "--seed", seed, "--provision", record,
        "--steps", min(workload.steps, QUICK_STEPS) if quick else workload.steps,
        "--calls", 6 if quick else 30, "--out", out,
    )
    result["trace_dir"] = str(out.relative_to(ROOT))
    result["metrics"].update({
        "host.cores": host.usable_cores(),
        "host.calib_ms": calib_before,
        "host.calib_drift_pct":
            100.0 * (runner.sentinel.sample_ms() - calib_before) / calib_before,
        "host.triad_gbps": bandwidth["gbps"],
        "host.triad_array_mb": bandwidth["array_mb"],
        "host.llc_mb": bandwidth["llc_mb"],
    })
    return result


# ------------------------------------------------------------------ printing
def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        raw = f"   (raw median {m['raw_median']:.6g})" if "raw_median" in m else ""
        print(f"  {name:46s} {value:>14s} {m['unit']}{raw}")


def last_line(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


def per_layer_metrics(spec: dict, result: dict) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json; ``None`` if not measured."""
    def finite(value):
        return value if isinstance(value, (int, float)) and math.isfinite(value) else None

    return {
        m["name"]: {"value": finite(result["metrics"].get(m["name"])), "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def print_workload(name: str, result: dict) -> None:
    print_metrics(f"{name} end to end (untraced)", result["metrics"])
    print(f"  ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}"
          f"  failed_share {result['failed_share']:.4f}"
          f"  host.sentinel_ms {result['host']['sentinel_ms']:.2f}"
          f"  state_digest {result['state_digest']}")


# --------------------------------------------------------------------- modes
def driver_run(args, spec: dict) -> int:
    """One workload, one phase: the contract ``BENCHMARK.json`` describes."""
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    runner = Runner(QUICK_LEVEL if args.quick else LEVEL)
    try:
        record = runner.provision()
        if args.trace:
            result = traced(runner, args.workload, args.seed, args.quick, record)
            metrics = per_layer_metrics(spec, result)
            print_metrics(f"{args.workload} per-layer (traced run)", metrics)
            for probe, why in {**result["unavailable"], **result["failed"]}.items():
                print(f"  probe {probe}: {why.strip().splitlines()[-1]}", file=sys.stderr)
            last_line(not result["failed"], result["attempted"], len(result["failed"]), metrics)
            return 0
        result = end_to_end(runner, args.workload, args.seed, args.seconds, args.quick)
    finally:
        runner.close()
    for error in result["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    metrics = result["metrics"]
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"no repeat of {args.workload} succeeded: {missing} not measured")
    print_workload(args.workload, result)
    last_line(result["ops_failed"] == 0, result["ops_attempted"], result["ops_failed"],
              {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]})
    return 0


def full_run(args, spec: dict) -> int:
    """All workloads, then the traced run; writes one result file."""
    level = QUICK_LEVEL if args.quick else LEVEL
    runner = Runner(level)
    started = time.time()
    try:
        record = runner.provision()
        workloads = {}
        for name in WORKLOADS:
            workloads[name] = end_to_end(runner, name, args.seed, args.seconds, args.quick)
            print_workload(name, workloads[name])
        trace = traced(runner, "serial_plan_l5", args.seed, args.quick, record)
    finally:
        runner.close()
    per_layer = per_layer_metrics(spec, trace)
    print_metrics("per layer (traced run)", per_layer)
    unlisted = sorted(set(trace["metrics"]) - {m["name"] for m in spec["per_layer"]})
    document = {
        "schema": 1,
        "machine": {**host.machine_block(ROOT, args.seed), "level": level,
                    "quick": args.quick, "seconds": args.seconds,
                    "started_unix": started, "wall_s": time.time() - started},
        "workloads": workloads,
        "per_layer": per_layer,
        "probe_errors": {"unavailable": trace["unavailable"], "failed": trace["failed"],
                         "not_in_benchmark_json": unlisted},
        "trace": {k: trace[k] for k in ("trace_dir", "spans", "self_time_s")},
    }
    out = Path(args.out) if args.out else WORK / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"result written to {out}")
    failed = sum(w["ops_failed"] for w in workloads.values()) + len(trace["failed"])
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (the driver's contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="level 3, K <= 3, two repeats: a smoke test, not a measurement")
    parser.add_argument("--out", help="result file of a run over all workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{ROOT} holds no BENCHMARK.json + src/repro: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare_mod.compare(spec, *map(Path, args.compare))
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec["run_seconds"])
    return driver_run(args, spec) if args.workload else full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
