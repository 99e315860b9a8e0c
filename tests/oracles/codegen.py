"""Automatic kernel generation from pattern descriptions.

The paper's conclusion names "leveraging automatic code generation
techniques for the ease of implementation and optimization" as future work.
This module implements that idea for the Python/NumPy substrate: a stencil
kernel is *described* declaratively — which gather table drives it, which
label/weight matrix scales each lane, how rows are reduced and normalized —
and the NumPy source is generated, compiled and cached.

Every generated kernel has the branch-free Algorithm 4 shape::

    out[i] = post(i) * sum_j W[i, j] * f(in[G[i, j]])

which covers all eight stencil patterns of Figure 3.  The test suite proves
the generated kernels match the hand-written operators of
:mod:`repro.swm.operators` bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mesh.mesh import Mesh
from repro.patterns.pattern import PatternKind

__all__ = ["StencilSpec", "generate_source", "compile_kernel", "BUILTIN_SPECS"]


@dataclass(frozen=True)
class StencilSpec:
    """Declarative description of a label-matrix stencil kernel.

    Attributes
    ----------
    name : str
        Kernel (function) name.
    kind : PatternKind
        The Figure 3 stencil shape (fixes the gather table and output type).
    weights : str
        Expression for the per-lane weight matrix ``W`` in terms of ``conn``,
        ``met`` and the precomputed helpers ``gather`` (the 0-safe index
        table) and ``mask`` (1.0 on valid lanes).  Must broadcast to the
        gather shape.
    element : str
        Expression applied to each gathered input value ``x`` (e.g. ``x`` or
        ``x * x``).
    post : str
        Per-output normalization expression (e.g. ``1.0 / met.areaCell``),
        or ``"1.0"``.
    """

    name: str
    kind: PatternKind
    weights: str
    element: str = "x"
    post: str = "1.0"


#: Gather table + raw index table per pattern kind.
_GATHER_OF_KIND: dict[PatternKind, tuple[str, str]] = {
    PatternKind.A: ("conn.edgesOnCell", "cells"),
    PatternKind.B: ("tri.edgesOnEdge", "edges"),
    PatternKind.C: ("conn.cellsOnCell", "cells"),
    PatternKind.D: ("conn.cellsOnEdge", "edges"),
    PatternKind.E: ("conn.cellsOnVertex", "vertices"),
    PatternKind.F: ("conn.verticesOnCell", "cells"),
    PatternKind.G: ("conn.verticesOnEdge", "edges"),
    PatternKind.H: ("conn.edgesOnVertex", "vertices"),
}

_TEMPLATE = '''\
def {name}(mesh, field):
    """Generated {letter}-pattern kernel: {output} <- {input} (Algorithm 4 shape).

    Auto-generated by tests.oracles.codegen; do not edit.
    """
    import numpy as np
    conn = mesh.connectivity
    met = mesh.metrics
    tri = mesh.trisk

    table = {gather}
    mask = (table >= 0).astype(np.float64)
    gather = np.where(table >= 0, table, 0)

    weights = ({weights}) * mask
    x = field[gather]
    elems = {element}
    return ({post}) * np.sum(weights * elems, axis=1)
'''


def generate_source(spec: StencilSpec) -> str:
    """Render the NumPy source of the kernel described by ``spec``."""
    gather, _ = _GATHER_OF_KIND[spec.kind]
    return _TEMPLATE.format(
        name=spec.name,
        letter=spec.kind.letter,
        output=spec.kind.output.value,
        input=spec.kind.input.value,
        gather=gather,
        weights=spec.weights,
        element=spec.element,
        post=spec.post,
    )


def compile_kernel(spec: StencilSpec) -> Callable[[Mesh, np.ndarray], np.ndarray]:
    """Compile ``spec`` into a callable ``kernel(mesh, field)``."""
    source = generate_source(spec)
    namespace: dict = {}
    code = compile(source, filename=f"<codegen:{spec.name}>", mode="exec")
    exec(code, namespace)
    kernel = namespace[spec.name]
    kernel.__source__ = source
    kernel.__spec__ = spec
    return kernel


#: Ready-made specs mirroring the hand-written operators (used by tests and
#: as worked examples of the declarative form).
BUILTIN_SPECS: dict[str, StencilSpec] = {
    "divergence": StencilSpec(
        name="divergence",
        kind=PatternKind.A,
        weights="conn.edgeSignOnCell * met.dvEdge[gather]",
        post="1.0 / met.areaCell",
    ),
    "kinetic_energy": StencilSpec(
        name="kinetic_energy",
        kind=PatternKind.A,
        weights="0.25 * met.dcEdge[gather] * met.dvEdge[gather]",
        element="x * x",
        post="1.0 / met.areaCell",
    ),
    "vorticity": StencilSpec(
        name="vorticity",
        kind=PatternKind.H,
        weights="conn.edgeSignOnVertex * met.dcEdge[gather]",
        post="1.0 / met.areaTriangle",
    ),
    "tangential_velocity": StencilSpec(
        name="tangential_velocity",
        kind=PatternKind.B,
        weights="tri.weightsOnEdge",
    ),
    "h_vertex": StencilSpec(
        name="h_vertex",
        kind=PatternKind.E,
        weights="met.kiteAreasOnVertex",
        post="1.0 / met.areaTriangle",
    ),
    "cell_average_of_vertices": StencilSpec(
        name="cell_average_of_vertices",
        kind=PatternKind.F,
        weights="mask",
        post="1.0 / conn.nEdgesOnCell",
    ),
    "edge_mean_of_cells": StencilSpec(
        name="edge_mean_of_cells",
        kind=PatternKind.D,
        weights="0.5",
    ),
    "edge_gradient_of_cell": StencilSpec(
        name="edge_gradient_of_cell",
        kind=PatternKind.D,
        weights="np.array([-1.0, 1.0]) / met.dcEdge[:, None]",
    ),
    "edge_gradient_of_vertex": StencilSpec(
        name="edge_gradient_of_vertex",
        kind=PatternKind.G,
        weights="np.array([-1.0, 1.0]) / met.dvEdge[:, None]",
    ),
    "edge_mean_of_vertices": StencilSpec(
        name="edge_mean_of_vertices",
        kind=PatternKind.G,
        weights="0.5",
    ),
    "cell_neighbor_sum": StencilSpec(
        name="cell_neighbor_sum",
        kind=PatternKind.C,
        weights="mask",
    ),
}
