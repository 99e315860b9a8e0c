"""The data-flow diagram: pattern instances wired by variable dependencies.

Section III-B: "the identified patterns are used as building blocks to
compose a data-flow diagram ... organized like a circuit diagram, with the
data flow being the electric current and the computation patterns being the
circuit components".  Here the diagram is a small directed graph whose
nodes are pattern-instance occurrences and whose edges carry the variable
that flows between them.

Construction follows program order (Algorithm 1 kernel order, catalog order
within a kernel): a read links to the *most recent* producer of that
variable, earlier reads of stage inputs link to synthetic source nodes.
Write-after-read hazards do not appear because the implementation
double-buffers the prognostic arrays (``state`` vs ``acc`` in
:mod:`repro.swm.timestep`), as the paper's Fortran does with time levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..patterns.catalog import PatternInstance

__all__ = ["DataFlowGraph", "HALO_NODE_PREFIX", "SOURCE_PREFIX"]

SOURCE_PREFIX = "in:"
HALO_NODE_PREFIX = "halo:"


@dataclass
class DataFlowGraph:
    """A DAG of pattern instances plus synthetic source / halo nodes.

    Attributes
    ----------
    nodes : dict of str -> dict
        Every node's attributes, in insertion order.  Node names are
        instance occurrence ids (e.g. ``"s1:B1"``), source names (``"in:h"``)
        or halo-exchange names (``"halo:provis_u@s2"``); ``kind`` is
        ``"compute"`` (carrying its :class:`PatternInstance` as
        ``instance``), ``"source"`` or ``"halo"``.
    succ, pred : dict of str -> dict of str -> str
        Successors and predecessors: ``succ[a][b] == pred[b][a]`` is the
        variable edge ``a -> b`` carries (the last one wired when two
        variables flow between one pair).
    order : list of str
        Compute nodes in program order.
    """

    nodes: dict[str, dict] = field(default_factory=dict)
    succ: dict[str, dict[str, str | None]] = field(default_factory=dict)
    pred: dict[str, dict[str, str | None]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    _producers: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------- building
    def _add_node(self, node: str, **attrs) -> None:
        self.nodes.setdefault(node, {}).update(attrs)
        self.succ.setdefault(node, {})
        self.pred.setdefault(node, {})

    def add_edge(self, a: str, b: str, variable: str | None = None) -> None:
        """Wire ``a -> b`` carrying ``variable``, adding either node if new."""
        self._add_node(a)
        self._add_node(b)
        self.succ[a][b] = self.pred[b][a] = variable

    def add_source(self, variable: str) -> str:
        """Declare a stage-input variable (available before the stage runs)."""
        node = f"{SOURCE_PREFIX}{variable}"
        if node not in self.nodes:
            self._add_node(node, kind="source", variable=variable)
        self._producers[variable] = node
        return node

    def add_halo_exchange(self, name: str, variables: tuple[str, ...]) -> str:
        """Insert a halo-exchange synchronization on the given variables.

        The exchange consumes the current producers of ``variables`` and
        becomes their new producer — everything reading them afterwards
        depends on the exchange, exactly like the red-arrow nodes of Fig. 4.
        """
        node = f"{HALO_NODE_PREFIX}{name}"
        self._add_node(node, kind="halo", variables=variables)
        for var in variables:
            producer = self._producers.get(var) or self.add_source(var)
            self.add_edge(producer, node, var)
            self._producers[var] = node
        return node

    def add_instance(self, occurrence: str, instance: PatternInstance) -> str:
        """Append a pattern instance in program order, wiring its reads."""
        if occurrence in self.nodes:
            raise ValueError(f"duplicate occurrence id {occurrence}")
        self._add_node(occurrence, kind="compute", instance=instance)
        self.order.append(occurrence)
        for var in instance.inputs:
            producer = self._producers.get(var) or self.add_source(var)
            # Self-update (e.g. X1 reading tend_u it will overwrite) wires to
            # the previous producer, which the dict still holds at this point.
            self.add_edge(producer, occurrence, var)
        for var in instance.outputs:
            self._producers[var] = occurrence
        return occurrence

    # -------------------------------------------------------------- queries
    def compute_nodes(self) -> list[str]:
        return [n for n, d in self.nodes.items() if d["kind"] == "compute"]

    def halo_nodes(self) -> list[str]:
        return [n for n, d in self.nodes.items() if d["kind"] == "halo"]

    def instance(self, node: str) -> PatternInstance:
        data = self.nodes[node]
        if data["kind"] != "compute":
            raise KeyError(f"{node} is not a compute node")
        return data["instance"]

    def edges(self) -> list[tuple[str, str, str | None]]:
        """``(a, b, variable)`` of every edge, in insertion order."""
        return [(a, b, var) for a, out in self.succ.items() for b, var in out.items()]

    def ancestors(self, node: str) -> set[str]:
        return self._reach(node, self.pred)

    def descendants(self, node: str) -> set[str]:
        return self._reach(node, self.succ)

    @staticmethod
    def _reach(node: str, adjacency: dict[str, dict]) -> set[str]:
        seen, stack = {node}, [node]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return seen - {node}

    def topological_sort(self) -> list[str]:
        """Kahn's order one generation at a time, ties in insertion order.

        This is ``networkx.topological_sort``'s order exactly: the
        simulated executor schedules greedily in this order, so another
        valid order would change the Fig. 4b / 7 timelines.
        """
        indegree = {n: len(p) for n, p in self.pred.items()}
        generation = [n for n, d in indegree.items() if d == 0]
        out: list[str] = []
        while generation:
            out += generation
            ready = []
            for node in generation:
                for child in self.succ[node]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            generation = ready
        if len(out) < len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d)
            raise ValueError(f"data-flow diagram has a cycle through {stuck}")
        return out

    def validate(self) -> None:
        """The diagram must be acyclic (it encodes one pass of Algorithm 1)."""
        self.topological_sort()

    def predecessors_compute(self, node: str) -> list[str]:
        """Compute/halo predecessors (skipping source nodes)."""
        return [p for p in self.pred[node] if self.nodes[p]["kind"] != "source"]

    def to_dot(self, include_sources: bool = False) -> str:
        """Render the diagram as Graphviz DOT (the Figure 4 artwork).

        Compute nodes are boxes labelled with the pattern id and clustered
        by kernel occurrence; halo exchanges are red octagons; edges carry
        the flowing variable.  Feed the output to ``dot -Tsvg`` to regenerate
        a Figure 4-style picture.

        Emission is fully sorted (clusters, nodes within each cluster, halo
        and source nodes, edges), so the same graph always renders to the
        same bytes — the committed benchmark artifact is diffable across
        runs.
        """
        lines = [
            "digraph dataflow {",
            "  rankdir=TB;",
            '  node [fontname="Helvetica", fontsize=10];',
        ]
        clusters: dict[str, list[str]] = {}
        for node in self.compute_nodes():
            inst = self.instance(node)
            stage = node.split(":", 1)[0] if ":" in node else ""
            clusters.setdefault(f"{stage}:{inst.kernel}", []).append(node)
        for ci, (label, nodes) in enumerate(sorted(clusters.items())):
            lines.append(f"  subgraph cluster_{ci} {{")
            lines.append(f'    label="{label}"; style=rounded; color=gray;')
            for node in sorted(nodes):
                inst = self.instance(node)
                shape = "box" if inst.is_local else "ellipse"
                lines.append(
                    f'    "{node}" [label="{inst.label}", shape={shape}];'
                )
            lines.append("  }")
        for node in sorted(self.halo_nodes()):
            lines.append(
                f'  "{node}" [label="Exchange halo", shape=octagon, color=red];'
            )
        if include_sources:
            for n, d in sorted(self.nodes.items()):
                if d["kind"] == "source":
                    lines.append(f'  "{n}" [label="{d["variable"]}", shape=plaintext];')
        edges = [
            (a, b, var or "") for a, b, var in self.edges()
            if include_sources or self.nodes[a]["kind"] != "source"
        ]
        for a, b, var in sorted(edges):
            lines.append(f'  "{a}" -> "{b}" [label="{var}", fontsize=8];')
        lines.append("}")
        return "\n".join(lines)
