"""Registration of the two built-in backends.

One declarative table (:data:`OPS`) lists every stencil operator of the
model with its Table I attribution and gather stencil; two registration
passes then attach implementations:

* ``numpy`` — the production gather operators (:mod:`repro.swm.operators`,
  plus the A4 gather of :mod:`repro.swm.reconstruct` and the fused C1,C2
  sweep of :mod:`repro.swm.advection`); also what a faulted dispatch
  recovers onto.
* ``sparse`` — fixed-sparsity stencils compiled once per mesh into CSR
  arrays applied by scipy's compiled matvec kernel
  (:mod:`repro.engine.sparse`), memoized in a two-level in-memory +
  versioned on-disk operator cache.  The bilinear B1 runs as
  ``0.5 * (q * (K f) + K (f * q))``, two matvecs of the TRiSK stencil ``K``.

Both implement all 14 operators, and a lint-style test asserts it: a newly
added operator must implement both.  The Algorithm 2 loop/scatter forms
(:mod:`repro.swm.reference`) and the kernels compiled from
:data:`repro.patterns.codegen.BUILTIN_SPECS` are not backends: the tests
call them directly, as the oracles the operators are checked against.

The Algorithm-1 kernel drivers are registered by name alongside, so the
integrator and the CLI resolve them through the registry too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..patterns.pattern import PatternKind
from .registry import KernelRegistry

__all__ = [
    "OPS",
    "OpSpec",
    "build_default_registry",
]


@dataclass(frozen=True)
class OpSpec:
    """Static description of one registered operator (backend-independent)."""

    op: str
    pattern: str | None  # Table I label(s); None for helper operators
    kind: str  # stencil shape letter A-H
    stencil_attr: str | None  # gather table: "conn.X" / "tri.X"
    no_split: bool = False


#: Every stencil operator the model dispatches, in Table I order.
OPS: tuple[OpSpec, ...] = (
    OpSpec("flux_divergence", "A1", "A", "conn.edgesOnCell"),
    OpSpec("kinetic_energy", "A2", "A", "conn.edgesOnCell"),
    OpSpec("cell_divergence", "A3", "A", "conn.edgesOnCell"),
    OpSpec("velocity_reconstruction", "A4", "A", "conn.edgesOnCell"),
    OpSpec("coriolis_edge_term", "B1", "B", "tri.edgesOnEdge"),
    OpSpec("tangential_velocity", "B2", "B", "tri.edgesOnEdge"),
    # Fused C1,C2 sweep: tuple-valued, so no row cut partitions it.
    OpSpec("d2fdx2", "C1,C2", "C", None, no_split=True),
    OpSpec("cell_to_edge_mean", "D1", "D", "conn.cellsOnEdge"),
    OpSpec("vertex_from_cells_kite", "E1", "E", "conn.cellsOnVertex"),
    OpSpec("cell_from_vertices_kite", "F1", "F", "conn.verticesOnCell"),
    OpSpec("vertex_to_edge_mean", "G1", "G", "conn.verticesOnEdge"),
    OpSpec("vertex_curl", "H1", "H", "conn.edgesOnVertex"),
    # Helper operators: gradients running inside the B1/G1 spans.
    OpSpec("edge_gradient_of_cell", None, "D", "conn.cellsOnEdge"),
    OpSpec("edge_gradient_of_vertex", None, "G", "conn.verticesOnEdge"),
)


def _stencil_fn(attr: str) -> Callable:
    group, name = attr.split(".")

    def stencil(mesh):
        owner = mesh.connectivity if group == "conn" else mesh.trisk
        return getattr(owner, name)

    return stencil


def _op_meta(spec: OpSpec) -> dict:
    kind = PatternKind[spec.kind]
    return {
        "pattern": spec.pattern,
        "kind": spec.kind,
        "kernel": _kernel_of_label(spec.pattern),
        "input_point": kind.input,
        "output_point": kind.output,
        "stencil": _stencil_fn(spec.stencil_attr) if spec.stencil_attr else None,
        "no_split": spec.no_split,
    }


def _kernel_of_label(pattern: str | None) -> str | None:
    if pattern is None:
        return None
    from ..patterns.catalog import build_catalog

    label = pattern.split(",")[0]
    for inst in build_catalog(None):
        if inst.label == label:
            return inst.kernel
    raise KeyError(f"pattern {pattern!r} not in the Table I catalog")


# ------------------------------------------------------------------- numpy
def _register_numpy(reg: KernelRegistry, meta: dict) -> None:
    from ..swm import operators as ops
    from ..swm.advection import d2fdx2_raw
    from ..swm.reconstruct import reconstruct_cell_vectors

    impls = {
        "flux_divergence": ops.flux_divergence,
        "kinetic_energy": ops.cell_kinetic_energy,
        "cell_divergence": ops.cell_divergence,
        "velocity_reconstruction": reconstruct_cell_vectors,
        "coriolis_edge_term": ops.coriolis_edge_term,
        "tangential_velocity": ops.tangential_velocity,
        "d2fdx2": d2fdx2_raw,
        "cell_to_edge_mean": ops.cell_to_edge_mean,
        "vertex_from_cells_kite": ops.vertex_from_cells_kite,
        "cell_from_vertices_kite": ops.cell_from_vertices_kite,
        "vertex_to_edge_mean": ops.vertex_to_edge_mean,
        "vertex_curl": ops.vertex_curl,
        "edge_gradient_of_cell": ops.edge_gradient_of_cell,
        "edge_gradient_of_vertex": ops.edge_gradient_of_vertex,
    }
    for op, fn in impls.items():
        reg.register(op, "numpy", fn, **meta[op])


# ------------------------------------------------------------------ sparse
def _register_sparse(reg: KernelRegistry) -> None:
    from .sparse import build_sparse_impls

    for op, fn in build_sparse_impls().items():
        reg.register(op, "sparse", fn)


# ------------------------------------------------- Algorithm-1 kernel names
def _register_kernels(reg: KernelRegistry) -> None:
    from ..swm.boundary import enforce_boundary_edge
    from ..swm.diagnostics import compute_solve_diagnostics
    from ..swm.reconstruct import mpas_reconstruct
    from ..swm.tendencies import compute_tend
    from ..swm.timestep import accumulative_update, compute_next_substep_state

    reg.register_kernel("compute_tend", compute_tend)
    reg.register_kernel("enforce_boundary_edge", enforce_boundary_edge)
    reg.register_kernel("compute_next_substep_state", compute_next_substep_state)
    reg.register_kernel("compute_solve_diagnostics", compute_solve_diagnostics)
    reg.register_kernel("accumulative_update", accumulative_update)
    reg.register_kernel("mpas_reconstruct", mpas_reconstruct)


def build_default_registry() -> KernelRegistry:
    """A fresh registry with both backends and the kernel names registered."""
    reg = KernelRegistry()
    meta = {spec.op: _op_meta(spec) for spec in OPS}
    _register_numpy(reg, meta)
    _register_sparse(reg)
    _register_kernels(reg)
    return reg
