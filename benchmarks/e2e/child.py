"""Child-process roles of the end-to-end benchmark.

``run.py`` starts one fresh interpreter per role so that every measurement
begins with cold in-memory caches and nothing a previous workload left behind:

``provision``  fill the private disk cache (cold mesh build, operator compile)
``setup``      first line of this file -> return of the entry point, steps=1
``measure``    contract probe, warm-up, timed repeats, correctness, digest
``trace``      the per-layer probes under harness spans

Each role prints one JSON object as the last line of its standard output.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def provision(args) -> dict:
    """Build the mesh into the empty cache, then run every workload once so
    that whatever it loads from disk later is there."""
    import repro.api as api
    from workloads import WORKLOADS, Prepared

    t0 = time.perf_counter()
    api.build_mesh(args.level)
    build_s = time.perf_counter() - t0
    for name in WORKLOADS:
        Prepared(name, args.seed, args.level, args.scratch).repeat(1)
    return {"mesh.build_s": build_s, "provision_s": time.perf_counter() - t0}


def setup(args) -> dict:
    from workloads import Prepared

    Prepared(args.workload, args.seed, args.level, args.scratch).repeat(1)
    return {"setup_s": time.perf_counter() - _T0}


def measure(args) -> dict:
    import host
    from workloads import Prepared

    sentinel = host.Sentinel()
    prepared = Prepared(args.workload, args.seed, args.level, args.scratch)
    errors = [f"contract: {e}" for e in prepared.contract_probe()]
    failed = int(bool(errors))
    prepared.repeat(args.steps)  # warm-up, discarded

    # A sentinel sample before every repeat and after the last: repeat i is
    # read against the mean of samples i and i + 1.
    walls, sentinel_ms, digests, repeats = [], [sentinel.sample_ms()], set(), 0
    started = time.perf_counter()
    while repeats < args.min_repeats or time.perf_counter() - started < args.seconds:
        repeats += 1
        run_dir = wall = None
        try:
            t0 = time.perf_counter()
            result, run_dir = prepared.repeat(args.steps)
            wall = time.perf_counter() - t0
            problems = prepared.check(result)
            digests.add(prepared.digest(result))
        except Exception:  # a failed operation is counted, not fatal
            problems = [traceback.format_exc(limit=3)]
        finally:
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)
        sentinel_ms.append(sentinel.sample_ms())
        if problems:
            failed += 1
            errors += problems
        else:
            walls.append((wall, (sentinel_ms[-2] + sentinel_ms[-1]) / 2.0))
    if len(digests) > 1:
        failed += 1
        errors.append(f"repeats of one input gave {len(digests)} different states")
    return {
        "steps": args.steps,
        "members": prepared.workload.members,
        "walls_s": [w for w, _ in walls],
        "sentinel_ms": [s for _, s in walls],
        "peak_rss_mb": host.peak_rss_mb(),
        "attempted": 1 + repeats,  # the contract probe and every repeat
        "failed": failed,
        "errors": errors,
        "state_digest": sorted(digests)[0] if digests else None,
    }


def trace(args) -> dict:
    import probes
    import repro.api as api
    from spans import SpanRecorder
    from workloads import Prepared

    recorder = SpanRecorder(args.workload)
    provision_record = json.loads(Path(args.provision).read_text())
    ctx = probes.Context(
        recorder, args.seed, args.level, args.scratch, provision_record,
        calls=args.calls,
    )
    ctx.first_load_s, ctx.mesh = recorder.timed("mesh.load", api.build_mesh, args.level)
    probes.run_all(ctx)

    failed = dict(ctx.failed)
    with recorder.span("workload." + args.workload):
        prepared = Prepared(args.workload, args.seed, args.level, args.scratch)
        result, run_dir = prepared.repeat(args.steps)
    problems = prepared.check(result)
    if run_dir is not None:
        shutil.rmtree(run_dir, ignore_errors=True)
    if problems:
        failed["workload." + args.workload] = "; ".join(problems)
    recorder.write(Path(args.out))
    self_time = recorder.self_time_by_name()
    return {
        "metrics": ctx.metrics,
        "attempted": ctx.attempted + 1,
        "failed": failed,
        "unavailable": ctx.unavailable,
        "spans": len(recorder.records),
        "self_time_s": dict(sorted(self_time.items(), key=lambda kv: -kv[1])[:40]),
    }


ROLES = {"provision": provision, "setup": setup, "measure": measure, "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--min-repeats", type=int, default=3)
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--provision", help="provision record (trace role)")
    parser.add_argument("--out", help="directory for trace.jsonl and trace.json")
    args = parser.parse_args(argv)
    args.scratch.mkdir(parents=True, exist_ok=True)
    payload = ROLES[args.role](args)
    sys.stdout.flush()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
