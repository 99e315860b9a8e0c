"""Dependency and concurrency analysis of the data-flow diagram.

These are the queries Section III-B uses the diagram for: recognizing data
dependencies, measuring inherent parallelism (how many patterns can run at
once — the red numbers of Figure 4), and bounding any schedule from below by
the critical path.
"""

from __future__ import annotations

from .graph import DataFlowGraph

__all__ = [
    "topological_levels",
    "concurrency_profile",
    "critical_path",
    "total_work",
    "independent_sets",
    "sync_point_usage",
    "earliest_finish_schedule",
]


def topological_levels(dfg: DataFlowGraph) -> dict[str, int]:
    """ASAP level of every compute/halo node (sources at level -1).

    A node's level is one more than the maximum level of its non-source
    predecessors; nodes on the same level are mutually independent *given*
    that all previous levels completed.
    """
    levels: dict[str, int] = {}
    for node in dfg.topological_sort():
        if dfg.nodes[node]["kind"] == "source":
            levels[node] = -1
            continue
        preds = dfg.predecessors_compute(node)
        levels[node] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def concurrency_profile(dfg: DataFlowGraph) -> dict[int, list[str]]:
    """Compute nodes grouped by ASAP level — the parallelism profile."""
    levels = topological_levels(dfg)
    profile: dict[int, list[str]] = {}
    for node in dfg.compute_nodes():
        profile.setdefault(levels[node], []).append(node)
    return dict(sorted(profile.items()))


def critical_path(
    dfg: DataFlowGraph, cost: "dict[str, float] | None" = None
) -> tuple[float, list[str]]:
    """Longest weighted path over compute/halo nodes.

    Without ``cost``, every compute/halo node counts 1 (pure depth).  With a
    ``cost`` mapping, nodes absent from it count 0 (e.g. halo nodes when only
    compute costs are supplied).  Returns (length, node list).  This is the
    lower bound no hybrid schedule can beat.
    """

    def node_cost(n: str) -> float:
        if dfg.nodes[n]["kind"] == "source":
            return 0.0
        if cost is None:
            return 1.0
        return cost.get(n, 0.0)

    dist: dict[str, float] = {}
    best_pred: dict[str, str | None] = {}
    for node in dfg.topological_sort():
        p = max(dfg.pred[node], key=dist.__getitem__, default=None)
        dist[node] = (0.0 if p is None else dist[p]) + node_cost(node)
        best_pred[node] = p
    end = max(dist, key=lambda n: dist[n])
    path = []
    cur: str | None = end
    while cur is not None:
        if dfg.nodes[cur]["kind"] != "source":
            path.append(cur)
        cur = best_pred[cur]
    return dist[end], path[::-1]


def total_work(dfg: DataFlowGraph, cost: dict[str, float]) -> float:
    """Sum of node costs — the serial execution time of the diagram."""
    return sum(cost.get(n, 0.0) for n in dfg.compute_nodes())


def sync_point_usage(dfg: DataFlowGraph) -> dict[str, dict[str, dict]]:
    """What every halo exchange of the diagram actually synchronizes.

    For each halo node, and each variable it exchanges, report:

    ``producer``
        The node that last wrote the variable before the exchange (a
        compute node, another halo node, or a source node).
    ``dirty``
        True when the producer is a *compute* node — some pattern wrote
        the variable since its last exchange, so rank-local halo copies
        may disagree with the owners and the exchange moves real
        information.  False when the producer is another halo exchange or
        a stage input: the halo copies are still exactly what the previous
        exchange (or the caller) left there, and re-exchanging them is a
        no-op barrier.
    ``readers``
        The compute nodes that consume the variable *from this exchange*
        (i.e. before the next exchange covering it).  Empty means nothing
        inside the diagram reads the exchanged values — they matter only
        across the diagram boundary (the next step).

    This is the evidence :func:`repro.dataflow.schedule.derive_halo_schedule`
    uses to elide synchronization points: an exchange whose variables are
    all clean moves no information and can be dropped.
    """
    usage: dict[str, dict[str, dict]] = {}
    for node in dfg.halo_nodes():
        per_var: dict[str, dict] = {}
        for var in dfg.nodes[node]["variables"]:
            producer = next((a for a, v in dfg.pred[node].items() if v == var), None)
            kind = dfg.nodes[producer]["kind"] if producer else "source"
            readers = tuple(sorted(
                b for b, v in dfg.succ[node].items()
                if v == var and dfg.nodes[b]["kind"] == "compute"
            ))
            per_var[var] = {
                "producer": producer,
                "dirty": kind == "compute",
                "readers": readers,
            }
        usage[node] = per_var
    return usage


def independent_sets(dfg: DataFlowGraph, nodes: list[str]) -> bool:
    """True when no node in ``nodes`` depends (transitively) on another.

    Used to check that a scheduler only co-schedules genuinely concurrent
    patterns (the paper's "kernels that are independent with each other can
    be launched concurrently").
    """
    node_set = set(nodes)
    for n in nodes:
        if dfg.descendants(n) & node_set:
            return False
    return True


def earliest_finish_schedule(
    order,
    predecessors,
    times: dict,
    devices: tuple[str, str] = ("cpu", "mic"),
    splittable=lambda node: False,
    min_split_gain: float = 0.15,
) -> tuple[dict, dict]:
    """Earliest-finish-time list schedule of a DAG on two devices (Fig. 4b).

    ``order`` is a topological order, ``predecessors(node)`` the nodes it
    waits for (absent from ``order``: ready at 0), ``times[node][device]``
    its run time there.  Each node goes, in order, to the device that
    finishes it first (the first device on a tie); a ``splittable(node)``
    is divided so both devices finish together,

        avail_0 + f * t_0 = avail_1 + (1 - f) * t_1,

    when that beats the best single device by ``min_split_gain``
    (relative).  Returns ``{node: (device, f)}`` — ``("split", f)`` with
    ``f`` the first device's share, ``f = 0`` otherwise — and
    ``{node: finish time}``.  This is the one scheduler: the simulated
    hybrid node (:func:`repro.hybrid.schedule.pattern_level_assignment`)
    and the plan compiler's two lanes (:mod:`repro.engine.plan`) both run it.
    """
    first, second = devices
    avail = {first: 0.0, second: 0.0}
    finish: dict = {}
    placed: dict = {}
    for node in order:
        ready = max((finish.get(p, 0.0) for p in predecessors(node)), default=0.0)
        candidates = []
        for dev in devices:
            end = max(avail[dev], ready) + times[node][dev]
            candidates.append((end, (dev, 0.0), {**avail, dev: end}))
        best_end, best_placement, best_avail = min(candidates, key=lambda c: c[0])

        if splittable(node):
            t_0, t_1 = times[node][first], times[node][second]
            s_0, s_1 = max(avail[first], ready), max(avail[second], ready)
            denom = t_0 + t_1
            if denom > 0.0:
                f = (s_1 - s_0 + t_1) / denom
                if 0.02 < f < 0.98:
                    end = s_0 + f * t_0  # == s_1 + (1 - f) * t_1
                    if end < best_end * (1.0 - min_split_gain):
                        best_end, best_placement = end, ("split", f)
                        best_avail = {first: end, second: end}
        placed[node] = best_placement
        avail = best_avail
        finish[node] = best_end
    return placed, finish
