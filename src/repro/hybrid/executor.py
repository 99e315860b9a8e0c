"""Discrete-event execution of a data-flow graph on a simulated hybrid node.

The executor walks the data-flow diagram in program order and produces a
:class:`Timeline`: per-device busy intervals, host-device transfers and halo
exchanges.  Semantics follow Section IV of the paper:

* Mesh (connectivity) data is device-resident from the start (Section IV-A),
  so only *variables* move across PCIe, and only when a consumer needs data
  it does not hold.  Transfers overlap with compute (duplex link, separate
  upload/download channels).
* A *split* pattern (the adjustable light-yellow boxes of Figure 4b) runs a
  CPU fraction ``f`` on the host and ``1 - f`` on the device, partitioning
  the output points.  Consecutive split patterns with similar fractions form
  a de-facto host/device domain decomposition: each side only needs a thin
  *boundary band* of the other side's data (the "redundant computations" of
  Section III-C), not the whole complement.  A full copy is materialized on
  one device only when a non-split consumer runs there.
* Halo exchanges are MPI operations driven by the host; variables produced
  (partly) on the accelerator are downloaded first, and device copies are
  refreshed afterwards (the red synchronization arrows of Figures 2 and 4).

Variable residency is tracked explicitly: per variable, either full copies
on one/both devices (with availability times) or a split (fraction + per-side
times).  All transfer volumes derive from the mesh point counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..dataflow.graph import DataFlowGraph
from ..machine.interconnect import TransferModel
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import Tracer, get_tracer
from ..patterns.classify import point_of
from ..resilience.faults import FaultInjected, fault_site

__all__ = ["Placement", "Assignment", "Task", "Timeline", "HybridExecutor", "DEVICES"]

DEVICES = ("cpu", "mic")

#: Re-schedules of a faulted simulated PCIe transfer before it propagates.
TRANSFER_RETRIES = 2


@dataclass(frozen=True)
class Placement:
    """Where one node runs: a single device, or split across both."""

    device: str
    cpu_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.device not in (*DEVICES, "split"):
            raise ValueError(f"unknown device {self.device!r}")
        if self.device == "split" and not 0.0 < self.cpu_fraction < 1.0:
            raise ValueError("split placement needs 0 < cpu_fraction < 1")


Assignment = dict  # node name -> Placement


@dataclass(frozen=True)
class Task:
    """One scheduled event on the timeline."""

    name: str
    resource: str  # "cpu", "mic", "pcie_up", "pcie_down", "net"
    start: float
    end: float
    kind: str  # "compute", "transfer", "halo"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """The executed schedule of one data-flow graph pass."""

    tasks: list[Task] = field(default_factory=list)
    node_finish: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return max((t.end for t in self.tasks), default=0.0)

    def busy(self, resource: str) -> float:
        return sum(t.duration for t in self.tasks if t.resource == resource)

    def transfer_time(self) -> float:
        """Total PCIe channel busy time."""
        return self.busy("pcie_up") + self.busy("pcie_down")

    def validate_no_overlap(self) -> None:
        """No two tasks may overlap on one resource."""
        by_res: dict[str, list[Task]] = {}
        for t in self.tasks:
            by_res.setdefault(t.resource, []).append(t)
        for res, tasks in by_res.items():
            tasks.sort(key=lambda t: t.start)
            for a, b in zip(tasks, tasks[1:]):
                if b.start < a.end - 1e-12:
                    raise ValueError(
                        f"overlap on {res}: {a.name}[{a.start:.2e},{a.end:.2e}] vs "
                        f"{b.name}[{b.start:.2e},{b.end:.2e}]"
                    )

    def validate_dependencies(self, dfg: DataFlowGraph) -> None:
        """Every compute/halo node must finish before its dependents start."""
        starts: dict[str, float] = {}
        for t in self.tasks:
            if t.kind in ("compute", "halo"):
                key = t.name.split("[")[0]
                starts[key] = min(starts.get(key, float("inf")), t.start)
        for node, finish in self.node_finish.items():
            for succ in dfg.succ[node]:
                if succ in starts and starts[succ] < self.node_finish[node] - 1e-12:
                    # Direct value flow may be satisfied by a partial result
                    # only for split->split chains; those are checked by the
                    # executor's residency bookkeeping, so only same-device
                    # full-value flows are asserted here.
                    raise ValueError(
                        f"{succ} starts at {starts[succ]:.3e} before its "
                        f"producer {node} finishes at {finish:.3e}"
                    )

    def gantt(self, width: int = 72) -> str:
        """Text Gantt chart for reports (# compute, - transfer, = halo)."""
        if not self.tasks:
            return "(empty timeline)"
        span = self.makespan
        lines = []
        for res in ("cpu", "mic", "pcie_up", "pcie_down", "net"):
            row = [" "] * width
            for t in self.tasks:
                if t.resource != res:
                    continue
                i0 = int(t.start / span * (width - 1))
                i1 = max(i0 + 1, int(math.ceil(t.end / span * (width - 1))))
                ch = {"compute": "#", "transfer": "-", "halo": "="}[t.kind]
                for i in range(i0, min(i1, width)):
                    row[i] = ch
            lines.append(f"{res:9s}|{''.join(row)}|")
        lines.append(f"makespan: {span * 1e3:.3f} ms")
        return "\n".join(lines)


@dataclass
class _Residency:
    """Where one variable's current value lives."""

    full: dict[str, float] = field(default_factory=dict)  # device -> ready time
    split_fraction: float | None = None  # CPU share, when split-resident
    split_ready: dict[str, float] = field(default_factory=dict)
    band_ready: dict[str, float] = field(default_factory=dict)  # cached bands


class HybridExecutor:
    """Executes a data-flow graph under an assignment, producing a timeline.

    Parameters
    ----------
    dfg : DataFlowGraph
    node_times : dict
        ``node_times[node][device]`` — seconds to run the whole node there.
    mesh_counts : object with nCells/nEdges/nVertices
        Sizes the per-variable transfer volumes.
    transfer : TransferModel
        The PCIe link (full-duplex: independent up/down channels).
    halo_time : float
        Seconds per halo-exchange node (0 for single-process runs).
    tracer, registry : optional
        Observability sinks; default to the process-wide ones.  When the
        tracer is enabled, every executed run emits its timeline as
        simulated spans (one track per model resource) tagged with the
        pattern id of each compute task; split fractions and PCIe traffic
        land in the registry either way.
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        node_times: dict[str, dict[str, float]],
        mesh_counts,
        transfer: TransferModel,
        halo_time: float = 0.0,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dfg = dfg
        self.node_times = node_times
        self.mesh_counts = mesh_counts
        self.transfer = transfer
        self.halo_time = halo_time
        self.tracer = tracer
        self.registry = registry
        self._sim_offset = 0.0

    # ------------------------------------------------------------------ util
    def _var_bytes(self, variable: str) -> float:
        return 8.0 * point_of(variable).count(self.mesh_counts)

    def _band_fraction(self, variable: str) -> float:
        """Boundary band of a host/device split, as a fraction of the field.

        A bisection of ``n`` quasi-uniform points has ~``4 * sqrt(n)``
        boundary points; two halo-deep bands cover the redundant computation
        the split needs.
        """
        n = point_of(variable).count(self.mesh_counts)
        if n <= 0:
            return 0.0
        return min(1.0, 8.0 * math.sqrt(n) / n)

    # ---------------------------------------------------------------- observe
    def _record(self, assignment: Assignment, timeline: Timeline) -> None:
        """Emit the executed timeline into the observability layer."""
        registry = self.registry if self.registry is not None else get_registry()
        for node, placement in assignment.items():
            if placement.device == "split":
                registry.gauge(
                    "hybrid.split.cpu_fraction", node=node
                ).set(placement.cpu_fraction)
        for kind in ("compute", "transfer", "halo"):
            n = sum(1 for t in timeline.tasks if t.kind == kind)
            if n:
                registry.counter("hybrid.tasks", kind=kind).inc(n)

        tracer = self.tracer if self.tracer is not None else get_tracer()
        if not tracer.enabled:
            return
        base = self._sim_offset
        for t in timeline.tasks:
            tags: dict = {"resource": t.resource, "task": t.kind}
            if t.kind == "compute":
                node = t.name.split("[")[0]
                inst = self.dfg.instance(node)
                tags.update(
                    pattern=inst.label, kind=inst.kind_letter, kernel=inst.kernel
                )
            tracer.add_span(
                t.name, base + t.start, base + t.end, category="sim", **tags
            )
        # Pad so consecutive runs (autotune trials) do not visually abut.
        self._sim_offset = base + timeline.makespan * 1.05

    # ------------------------------------------------------------------ run
    def run(self, assignment: Assignment) -> Timeline:
        dfg = self.dfg
        timeline = Timeline()
        avail = {"cpu": 0.0, "mic": 0.0, "pcie_up": 0.0, "pcie_down": 0.0, "net": 0.0}
        res: dict[str, _Residency] = {}
        registry = self.registry if self.registry is not None else get_registry()

        def residency(var: str) -> _Residency:
            r = res.get(var)
            if r is None:
                # Stage inputs are resident everywhere at t = 0 (the one-time
                # initial upload of Section IV-A).
                r = _Residency(full={"cpu": 0.0, "mic": 0.0})
                res[var] = r
            return r

        def xfer(var_label: str, n_bytes: float, dst: str, earliest: float) -> float:
            """Schedule a PCIe transfer toward ``dst``; return arrival time.

            Each transfer is one ``hybrid.transfer`` fault site (a flaky
            PCIe exchange).  A faulted transfer is rescheduled up to
            :data:`TRANSFER_RETRIES` times; the failed attempt
            occupies its channel for the full duration — like a wire-level
            retry would — and its traffic is accounted separately as
            ``resilience.transfer.wasted_bytes``.
            """
            if n_bytes <= 0.0:
                return earliest
            channel = "pcie_up" if dst == "mic" else "pcie_down"
            dur = self.transfer.time(n_bytes)
            start = max(avail[channel], earliest)
            attempt = 0
            while True:
                try:
                    fault_site("hybrid.transfer", dst=dst)
                    break
                except FaultInjected:
                    if attempt >= TRANSFER_RETRIES:
                        raise
                    end = start + dur
                    avail[channel] = end
                    timeline.tasks.append(
                        Task(f"xfer!{var_label}->{dst}", channel, start, end, "transfer")
                    )
                    registry.counter(
                        "resilience.recovery.retry", site="hybrid.transfer"
                    ).inc()
                    registry.counter(
                        "resilience.transfer.wasted_bytes", channel=channel
                    ).inc(n_bytes)
                    start = end
                    attempt += 1
            registry.counter("hybrid.pcie.bytes", channel=channel).inc(n_bytes)
            end = start + dur
            avail[channel] = end
            timeline.tasks.append(
                Task(f"xfer:{var_label}->{dst}", channel, start, end, "transfer")
            )
            return end

        def other(dev: str) -> str:
            return "mic" if dev == "cpu" else "cpu"

        def need_full(var: str, dev: str) -> float:
            """Time when the complete current value of ``var`` is on ``dev``."""
            r = residency(var)
            if dev in r.full:
                return r.full[dev]
            if r.split_fraction is not None:
                src = other(dev)
                frac_missing = (
                    1.0 - r.split_fraction if dev == "cpu" else r.split_fraction
                )
                ready_src = r.split_ready[src]
                own_ready = r.split_ready[dev]
                end = xfer(var, self._var_bytes(var) * frac_missing, dev, ready_src)
                t = max(own_ready, end)
                r.full[dev] = t
                return t
            # Full copy elsewhere: move it over.
            src, src_time = min(r.full.items(), key=lambda kv: kv[1])
            end = xfer(var, self._var_bytes(var), dev, src_time)
            r.full[dev] = end
            return end

        def need_share(var: str, dev: str, fraction_cpu: float) -> float:
            """Time when ``dev``'s share (+ boundary band) of ``var`` is there."""
            r = residency(var)
            if dev in r.full:
                return r.full[dev]
            if r.split_fraction is not None:
                if dev in r.band_ready:
                    return r.band_ready[dev]
                # Matching decomposition: only the boundary band moves.
                mismatch = abs(r.split_fraction - fraction_cpu)
                frac = min(1.0, self._band_fraction(var) + mismatch)
                src = other(dev)
                end = xfer(
                    f"{var}~band", self._var_bytes(var) * frac, dev, r.split_ready[src]
                )
                t = max(r.split_ready[dev], end)
                r.band_ready[dev] = t
                return t
            # Full copy on the other device: fetch this side's share + band.
            src, src_time = min(r.full.items(), key=lambda kv: kv[1])
            share = fraction_cpu if dev == "cpu" else 1.0 - fraction_cpu
            frac = min(1.0, share + self._band_fraction(var))
            end = xfer(var, self._var_bytes(var) * frac, dev, src_time)
            return end

        def produce_full(var: str, dev: str, when: float) -> None:
            res[var] = _Residency(full={dev: when})

        def produce_split(var: str, f: float, t_cpu: float, t_mic: float) -> None:
            res[var] = _Residency(
                split_fraction=f, split_ready={"cpu": t_cpu, "mic": t_mic}
            )

        for node in dfg.topological_sort():
            data = dfg.nodes[node]
            kind = data["kind"]
            if kind == "source":
                for var in dfg.succ[node].values():
                    residency(var)
                continue

            in_vars = sorted(set(dfg.pred[node].values()))

            if kind == "halo":
                deps = [need_full(v, "cpu", ) for v in in_vars]
                start = max([avail["net"], *deps]) if deps else avail["net"]
                end = start + self.halo_time
                avail["net"] = end
                timeline.tasks.append(Task(node, "net", start, end, "halo"))
                timeline.node_finish[node] = end
                for var in data["variables"]:
                    produce_full(var, "cpu", end)
                continue

            inst = data["instance"]
            placement: Placement = assignment[node]
            out_vars = list(inst.outputs)

            if placement.device in DEVICES:
                dev = placement.device
                deps = [need_full(v, dev) for v in in_vars]
                start = max([avail[dev], *deps]) if deps else avail[dev]
                end = start + self.node_times[node][dev]
                avail[dev] = end
                timeline.tasks.append(Task(node, dev, start, end, "compute"))
                timeline.node_finish[node] = end
                for var in out_vars:
                    produce_full(var, dev, end)
            else:
                f = placement.cpu_fraction
                ends: dict[str, float] = {}
                for dev, frac in (("cpu", f), ("mic", 1.0 - f)):
                    deps = [need_share(v, dev, f) for v in in_vars]
                    start = max([avail[dev], *deps]) if deps else avail[dev]
                    end = start + frac * self.node_times[node][dev]
                    avail[dev] = end
                    timeline.tasks.append(
                        Task(f"{node}[{dev}]", dev, start, end, "compute")
                    )
                    ends[dev] = end
                timeline.node_finish[node] = max(ends.values())
                for var in out_vars:
                    produce_split(var, f, ends["cpu"], ends["mic"])

        self._record(assignment, timeline)
        return timeline
