"""``--compare A.json B.json``: per (workload, end-to-end metric) verdicts.

A is the base of every ratio.  A metric is *regressed* when B's value is worse
than A's by more than the bound ``BENCHMARK.json`` fixes, *improved* when it is
better by more than the bound, otherwise *unchanged* -- unless the quartile
spread of either file's samples is wider than the bound, in which case the
pair is *unresolved*, except when every sample of B is better (improved) or
worse (regressed) than every sample of A.  Samples are the per-repeat rates
and the per-process set-up times, all scaled by the sentinel.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["value"] - a["value"]) / a["value"]
    sa, sb = a.get("samples") or [a["value"]], b.get("samples") or [b["value"]]
    if max(spread(sa), spread(sb)) > bound:
        if min(sign * x for x in sb) > max(sign * x for x in sa):
            return "improved"
        if max(sign * x for x in sb) < min(sign * x for x in sa):
            return "regressed"
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "improved" if gain > bound else "unchanged"


def compare(spec: dict, file_a: Path, file_b: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (file_a, file_b))
    print(f"A (base) = {file_a}\nB        = {file_b}")
    for label, doc in (("A", a), ("B", b)):
        machine = doc.get("machine", {})
        print(f"  {label}: commit {machine.get('git_commit')}  seed {machine.get('seed')}"
              f"  cores {machine.get('usable_cores')}")
    header = f"{'workload':20s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict"
    print(header)
    print("-" * len(header))
    bad = False
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:20s} missing from {'A' if wa is None else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            ma, mb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            outcome = verdict(ma, mb, metric["better"], metric["bound"])
            bad |= outcome == "regressed"
            print(f"{name:20s} {metric['name']:20s} {ma['value']:12.4f} {mb['value']:12.4f}"
                  f" {mb['value'] / ma['value']:7.3f} {metric['bound']:6.2f}  {outcome}")
        fa, fb = wa["failed_share"], wb["failed_share"]
        worse = fb > fa
        bad |= worse
        print(f"{name:20s} {'failed_share':20s} {fa:12.4f} {fb:12.4f} {'':7s} {'':6s}"
              f"  {'regressed' if worse else 'unchanged'}")
        if wa.get("state_digest") != wb.get("state_digest"):
            print(f"{name:20s} state_digest differs (different seed or different answers)")
        host_a, host_b = wa["host"]["sentinel_ms"], wb["host"]["sentinel_ms"]
        print(f"{name:20s} {'host.sentinel_ms':20s} {host_a:12.4f} {host_b:12.4f}"
              f" {host_b / host_a:7.3f}")
    return 1 if bad else 0
