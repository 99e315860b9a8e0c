"""Compiling the Fig. 4 diagram into an executable substep schedule.

The data-flow diagram (:mod:`repro.dataflow.graph`) says *what depends on
what*; this module turns one RK substage of it into the form an execution
plan needs (:mod:`repro.engine.plan`):

* a **topological order** — the graph's own program order, verified to be a
  valid linearization of the dependency DAG;
* **halo segmentation** — the red exchange nodes of Fig. 4 are barriers a
  fused program must not cross (a decomposed rank cannot read a neighbour's
  provisional state before the exchange ran), so compute nodes are grouped
  into segments by the set of exchanges they transitively depend on;
* **single-consumer variables** — intermediates read by exactly one
  downstream instance and never escaping the substep.  These are the only
  edges across which two linear operators may legally be composed into one
  matrix (the plan compiler's fusion-legality oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..swm.config import SWConfig
from .build import build_stage_graph
from .graph import DataFlowGraph

__all__ = [
    "Segment",
    "SubstepSchedule",
    "schedule_substep",
    "topological_order",
    "single_consumer_vars",
    "SYNC_POINT_NAMES",
    "STATIC_SYNC_WHITELIST",
    "SyncPoint",
    "HaloSchedule",
    "static_halo_schedule",
    "derive_halo_schedule",
    "halo_schedule_for",
]


def topological_order(dfg: DataFlowGraph) -> list[str]:
    """The compute nodes in program order, verified topological.

    Program order (the order :meth:`DataFlowGraph.add_instance` appended
    nodes) must already linearize the dependency DAG — construction wires
    every read to the most recent producer, so a violation means the graph
    builder and the implementation disagree about Algorithm 1.
    """
    position = {node: i for i, node in enumerate(dfg.order)}
    for a, b, _ in dfg.edges():
        if a in position and b in position and position[a] >= position[b]:
            raise ValueError(
                f"program order is not topological: {a!r} -> {b!r} goes backwards"
            )
    return list(dfg.order)


@dataclass(frozen=True)
class Segment:
    """A maximal run of compute nodes sharing the same halo dependencies.

    ``barriers`` are the halo-exchange nodes every member transitively
    depends on; a fused program may reorder or compose freely *within* a
    segment but must yield to the runtime (which performs the exchanges)
    *between* segments.
    """

    barriers: tuple[str, ...]
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class SubstepSchedule:
    """One RK substage scheduled for fused execution."""

    stage: int
    graph: DataFlowGraph
    segments: tuple[Segment, ...]

    def nodes(self) -> list[str]:
        return [n for seg in self.segments for n in seg.nodes]

    def nodes_for_kernel(self, kernel: str) -> list[str]:
        """Scheduled nodes belonging to one Algorithm-1 kernel, in order."""
        return [
            n for n in self.nodes() if self.graph.instance(n).kernel == kernel
        ]

    def labels(self) -> list[str]:
        return [self.graph.instance(n).label for n in self.nodes()]


def schedule_substep(
    config: SWConfig | None = None,
    stage: int = 1,
    with_halo: bool = True,
) -> SubstepSchedule:
    """Schedule one RK substage of the Fig. 4 diagram.

    Nodes keep program order; segments are emitted in order of first
    appearance, so the schedule executes exactly the sequence Algorithm 1
    does, with explicit barrier points where the halo exchanges sit.
    """
    dfg = build_stage_graph(config, stage=stage, with_halo=with_halo)
    order = topological_order(dfg)
    segments: list[tuple[tuple[str, ...], list[str]]] = []
    by_barriers: dict[tuple[str, ...], list[str]] = {}
    for node in order:
        barriers = tuple(sorted(
            a for a in dfg.ancestors(node) if dfg.nodes[a]["kind"] == "halo"
        ))
        nodes = by_barriers.get(barriers)
        if nodes is None:
            nodes = []
            by_barriers[barriers] = nodes
            segments.append((barriers, nodes))
        nodes.append(node)
    return SubstepSchedule(
        stage=stage,
        graph=dfg,
        segments=tuple(
            Segment(barriers=b, nodes=tuple(nodes)) for b, nodes in segments
        ),
    )


# --------------------------------------------------------- halo schedules
#: The eight Algorithm-1 synchronization points of one RK-4 step, in
#: program order (Figure 2: one exchange before every ``compute_tend``,
#: one after every ``compute_next_substep_state`` / the final
#: accumulation).  These are the *static* sync points; a derived
#: :class:`HaloSchedule` keeps a subset of them.
SYNC_POINT_NAMES: tuple[str, ...] = (
    "pre@s1", "post@s1",
    "pre@s2", "post@s2",
    "pre@s3", "post@s3",
    "pre@s4", "post@s4",
)

#: Static sync points that dataflow analysis elides for *every* shipped
#: config, kept in the static schedule as the conservative escape hatch.
#: Each entry documents why the elision is sound; the lint test
#: (``tests/test_halo_schedule.py``) requires every static point to be
#: either justified by :func:`derive_halo_schedule` for some config or
#: listed here — so a future op edit cannot silently make an elided sync
#: unsound without tripping the test.
STATIC_SYNC_WHITELIST: dict[str, str] = {
    "pre@s1": (
        "step-entry freshness invariant: the stage-1 provisional state is "
        "the accepted state, whose halo was exchanged at post@s4 of "
        "the previous step (or seeded globally before the first step and "
        "after every recovery reload); no compute node writes it in between"
    ),
    "pre@s2": (
        "the stage-2 provisional state's last producer is the post@s1 "
        "exchange itself (graph-provable: no compute write in between)"
    ),
    "pre@s3": (
        "the stage-3 provisional state's last producer is the post@s2 "
        "exchange itself (graph-provable: no compute write in between)"
    ),
    "pre@s4": (
        "the stage-4 provisional state's last producer is the post@s3 "
        "exchange itself (graph-provable: no compute write in between)"
    ),
}

#: Variables each exchanged field name maps to: ``h`` lives on cells,
#: ``u`` on edges, regardless of which time level is being exchanged.
FIELD_OF_VARIABLE: dict[str, str] = {
    "provis_h": "h",
    "h_acc": "h",
    "h": "h",
    "provis_u": "u",
    "u_acc": "u",
    "u": "u",
}


@dataclass(frozen=True)
class SyncPoint:
    """One kept synchronization point of a :class:`HaloSchedule`.

    ``variables`` are the graph variables whose halos the exchange must
    refresh (a subset of what the static schedule ships); ``rings`` is the
    cell-ring depth downstream reads actually reach before the next
    exchange — the runtime clamps it to the depth the halo was built with.
    """

    name: str
    variables: tuple[str, ...]
    rings: int

    @property
    def fields(self) -> tuple[str, ...]:
        """The prognostic fields (``"h"``/``"u"``) the variables live in."""
        seen = []
        for var in self.variables:
            f = FIELD_OF_VARIABLE[var]
            if f not in seen:
                seen.append(f)
        return tuple(seen)


@dataclass(frozen=True)
class HaloSchedule:
    """Which of the 8 sync points a config's RK step must execute, and how.

    ``mode`` is ``"static"`` (all eight points, full payloads — the oracle
    the derivation is tested against) or ``"dataflow"`` (derived from the
    Fig. 4 step graph by :func:`derive_halo_schedule`).  Points absent
    from ``points`` are elided entirely: the executors run neither a
    barrier nor a copy there.
    """

    mode: str
    points: tuple[SyncPoint, ...]

    def entry(self, name: str) -> SyncPoint | None:
        for p in self.points:
            if p.name == name:
                return p
        return None

    @property
    def elided(self) -> tuple[str, ...]:
        kept = {p.name for p in self.points}
        return tuple(n for n in SYNC_POINT_NAMES if n not in kept)

    @property
    def exchanges_per_step(self) -> int:
        return len(self.points)


def _static_points(rings: int) -> tuple[SyncPoint, ...]:
    points = []
    for name in SYNC_POINT_NAMES:
        variables = (
            ("h_acc", "u_acc") if name == "post@s4" else ("provis_h", "provis_u")
        )
        points.append(SyncPoint(name=name, variables=variables, rings=rings))
    return tuple(points)


def static_halo_schedule(config: SWConfig | None = None) -> HaloSchedule:
    """The hardcoded Figure-2 schedule: all 8 points, full payloads."""
    from ..parallel.halo import halo_layers_required

    cfg = config if config is not None else SWConfig(dt=1.0)
    rings = halo_layers_required(
        cfg.thickness_adv_order, cfg.apvm_upwinding != 0.0
    )
    return HaloSchedule(mode="static", points=_static_points(rings))


def derive_halo_schedule(config: SWConfig | None = None) -> HaloSchedule:
    """Derive the communication-avoiding halo schedule from the step graph.

    A sync point survives only for the variables that are **dirty** there
    (some compute node wrote them since their last exchange, per
    :func:`~repro.dataflow.analysis.sync_point_usage`); clean variables
    are bit-for-bit what the previous exchange already placed in the halo,
    so re-exchanging them moves nothing.  Two elision rules apply on top
    of the graph:

    * ``pre@s1`` relies on the *step-entry freshness invariant* (see
      :data:`STATIC_SYNC_WHITELIST`): the runner must seed/exchange the
      accepted state before the first stage reads it.  The graph shows the
      variable produced by a source node, which encodes exactly that
      contract.
    * Under ``advection_only`` the velocity tendency is identically zero
      (``compute_tend`` returns ``zeros_like(u)``), so every rank —
      owner and halo alike — computes ``provis_u = u + w*dt*0`` and
      ``u_acc += w*dt*0`` bitwise identically; halo copies of the
      ``u``-variables can never diverge from their owners and are dropped
      from every payload.

    Ring depth per point is ``halo_layers_required(order, apvm)`` — the
    deepest cell ring any owned output reads before the next exchange;
    when the halo was built deeper (over-provisioned), the outer rings are
    left stale and never read.
    """
    from ..parallel.halo import halo_layers_required
    from .analysis import sync_point_usage
    from .build import build_step_graph
    from .graph import HALO_NODE_PREFIX

    cfg = config if config is not None else SWConfig(dt=1.0)
    rings = halo_layers_required(
        cfg.thickness_adv_order, cfg.apvm_upwinding != 0.0
    )
    usage = sync_point_usage(build_step_graph(cfg, with_halo=True))
    points: list[SyncPoint] = []
    for name in SYNC_POINT_NAMES:
        per_var = usage.get(f"{HALO_NODE_PREFIX}{name}", {})
        keep: list[str] = []
        for var, info in per_var.items():
            if not info["dirty"]:
                continue
            if cfg.advection_only and FIELD_OF_VARIABLE[var] == "u":
                continue
            keep.append(var)
        if keep:
            points.append(
                SyncPoint(name=name, variables=tuple(keep), rings=rings)
            )
    return HaloSchedule(mode="dataflow", points=tuple(points))


def halo_schedule_for(config: SWConfig) -> HaloSchedule:
    """The schedule ``config.halo_schedule`` selects (static | dataflow)."""
    if config.halo_schedule == "dataflow":
        return derive_halo_schedule(config)
    return static_halo_schedule(config)


def single_consumer_vars(
    dfg: DataFlowGraph, protected: frozenset[str] = frozenset()
) -> set[str]:
    """Variables read by exactly one compute node and not re-exported.

    These intermediates are the only legal fusion seams: composing the
    producer's matrix into the consumer is unobservable because nothing
    else ever reads the intermediate.  ``protected`` names variables the
    *caller* observes even though the graph shows no further reads (the
    kernel outputs — every Diagnostics field, the tendencies); they are
    never fusion seams, because eliminating them would change the kernel's
    visible result set.
    """
    consumers: dict[str, set[str]] = {}
    compute = set(dfg.order)
    for a, b, var in dfg.edges():
        if var is None:
            continue
        if b in compute:
            consumers.setdefault(var, set()).add(b)
        else:
            # Read by a halo exchange: escapes the fused program.
            consumers.setdefault(var, set()).add(f"!{b}")
    produced = {v for n in dfg.order for v in dfg.instance(n).outputs}
    out: set[str] = set()
    for var, readers in consumers.items():
        if var not in produced or var in protected:
            continue
        if len(readers) == 1 and not next(iter(readers)).startswith("!"):
            out.add(var)
    return out
