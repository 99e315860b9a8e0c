"""The precompiled sparse-operator backend (``backend="sparse"``).

Table I reduces every non-local computation of the RK loop to eight
fixed-sparsity stencil shapes, and the Algorithm-3 gather refactoring makes
each of them a *linear* map from the gathered input field to the output
field — i.e. a sparse matrix–vector product with an operator that depends
only on the mesh.  This module takes that observation literally: every
compilable registry operator is compiled **once per mesh** into a
``scipy.sparse`` CSR matrix carrying the same weights the ``numpy`` gather
backend uses (label matrices, inverse areas, TRiSK weights), and a dispatch
is then a single ``M @ x`` — no per-call index gathers, no ``(n, lanes)``
temporaries.

Compilability classification
----------------------------
``matvec``
    Pure linear stencils: one CSR matvec (11 of the 14 registry ops,
    including the block-row ``velocity_reconstruction`` and the two-row
    ``d2fdx2`` sweep).
``pre``
    Bilinear stencils whose nonlinearity is *point-local on the input
    side*: an elementwise product followed by a matvec
    (``flux_divergence`` = divergence of ``u*h``, ``kinetic_energy`` =
    weighted sum of ``u*u``).
``bilinear``
    ``coriolis_edge_term`` (B1) multiplies each output edge's own PV with
    every gathered neighbour, so no single matrix computes it — but it is
    bilinear: ``sum_j w_ej f_j (q_e + q_j)/2 = (q_e (K f)_e + (K (f q))_e)/2``
    with ``f = u * h_edge`` and ``K`` the already-compiled
    ``tangential_velocity`` operator.  Two matvecs of ``K`` plus four
    elementwise ops in one fixed order (:class:`CoriolisOp`), so all 14
    registry ops are registered and nothing falls back to ``numpy``.

The operator cache
------------------
Compiled operators are memoized at two levels:

* **memory** — a per-process ``WeakKeyDictionary`` keyed by the mesh
  object, so repeated dispatches (and every RK substage) reuse the same
  CSR instance and the cache dies with the mesh;
* **disk** — one versioned ``.npz`` per ``(mesh, operator)`` under
  ``cache_dir()/operators/`` (the same root as the mesh cache of
  :mod:`repro.mesh.cache`), keyed by a content fingerprint of the mesh
  arrays the compilers read.  Files carry
  :data:`OPERATOR_CACHE_VERSION`; a stale or unstamped file is recompiled
  and overwritten, never loaded blindly, and a mesh edit changes the
  fingerprint so old operators can never be served for a new mesh.

Disk persistence is automatic only for meshes with a persistent identity
of their own (built by :func:`repro.mesh.cache.cached_mesh`, which marks
them ``info["disk_cached"]``); ad-hoc meshes — random test SCVTs, the
rank-local submeshes of the process pool — compile into memory only,
mirroring the mesh cache's own policy.  Pool workers therefore rebuild
their operators after :meth:`KernelRegistry.__reduce__` reconstructs the
registry, hitting the disk cache when the mesh has one.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..mesh.cache import cache_dir
from ..mesh.mesh import Mesh
from ..resilience.integrity import checked_load, seal

__all__ = [
    "OPERATOR_CACHE_VERSION",
    "classify_op",
    "mesh_fingerprint",
    "operator_cache_path",
    "sparse_operator",
    "clear_operator_memory_cache",
    "build_sparse_impls",
]

#: Format version of the on-disk operator archives.  Bump whenever the
#: compiled representation changes; mismatched files are recompiled.
OPERATOR_CACHE_VERSION = 1


# ----------------------------------------------------------------- compilers
def _lanes_csr(n_in, cols, weights, valid=None) -> sp.csr_matrix:
    """CSR operator from a padded gather table.

    ``cols``/``weights`` are ``(n_out, lanes)`` arrays (the Algorithm-4
    label-matrix form: padded lanes clamped to column 0 with weight 0);
    ``valid`` masks the live lanes.

    The CSR arrays are assembled directly (never through COO, whose
    ``tocsr`` canonicalizes) so each row stores its entries in **lane
    order**, not sorted by column.  CSR matvec accumulates each row
    sequentially in storage order, so a row's floating-point summation
    order is the lane order — invariant under the pool's rank-local
    renumbering, which keeps a decomposed run bitwise identical to the
    serial one (a column-sorted matrix would permute the sum when local
    column ids reorder).  Duplicate ``(row, col)`` pairs are kept and
    accumulate in the matvec, matching the gather semantics exactly.
    """
    cols = np.asarray(cols)
    if valid is None:
        valid = np.ones(cols.shape, dtype=bool)
    return _rows_csr(cols, np.broadcast_to(weights, cols.shape), valid, n_in)


def _rows_csr(cols, weights, valid, n_in) -> sp.csr_matrix:
    """Non-canonical CSR from ``(..., lanes)`` tables, flattened row-major.

    Leading axes are flattened into matrix rows (row-major, so a
    ``(n, 3, lanes)`` block table yields rows ``3c + i``); the last axis is
    the per-row lane order, preserved verbatim in storage.
    """
    lanes = cols.shape[-1]
    cols2 = cols.reshape(-1, lanes)
    valid2 = valid.reshape(-1, lanes)
    counts = np.count_nonzero(valid2, axis=1)
    indptr = np.zeros(cols2.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    m = sp.csr_matrix(
        (weights.reshape(-1, lanes)[valid2], cols2[valid2], indptr),
        shape=(cols2.shape[0], n_in),
    )
    return m


def _compile_cell_divergence(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    valid = mesh.connectivity.edgesOnCell >= 0
    return _lanes_csr(
        mesh.nEdges, p.eoc_safe, p.sign_dv * p.inv_area_cell[:, None], valid
    )


def _compile_kinetic_energy(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    valid = mesh.connectivity.edgesOnCell >= 0
    return _lanes_csr(
        mesh.nEdges, p.eoc_safe, p.ke_weight * p.inv_area_cell[:, None], valid
    )


def _compile_vertex_curl(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    return _lanes_csr(mesh.nEdges, p.eov, p.sign_dc * p.inv_area_tri[:, None])


def _compile_tangential_velocity(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    valid = mesh.trisk.edgesOnEdge >= 0
    return _lanes_csr(mesh.nEdges, p.eoe_safe, p.woe, valid)


def _compile_cell_to_edge_mean(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    cols = np.stack([p.c0, p.c1], axis=1)
    weights = np.full(cols.shape, 0.5)
    return _lanes_csr(mesh.nCells, cols, weights)


def _compile_vertex_to_edge_mean(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    cols = np.stack([p.v0, p.v1], axis=1)
    weights = np.full(cols.shape, 0.5)
    return _lanes_csr(mesh.nVertices, cols, weights)


def _compile_edge_gradient_of_cell(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    cols = np.stack([p.c0, p.c1], axis=1)
    weights = np.stack([-p.inv_dc, p.inv_dc], axis=1)
    return _lanes_csr(mesh.nCells, cols, weights)


def _compile_edge_gradient_of_vertex(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    cols = np.stack([p.v0, p.v1], axis=1)
    weights = np.stack([-p.inv_dv, p.inv_dv], axis=1)
    return _lanes_csr(mesh.nVertices, cols, weights)


def _compile_vertex_from_cells_kite(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    return _lanes_csr(mesh.nCells, p.cov, p.kite * p.inv_area_tri[:, None])


def _compile_cell_from_vertices_kite(mesh: Mesh) -> sp.csr_matrix:
    from ..swm.operators import plan_for

    p = plan_for(mesh)
    valid = mesh.connectivity.verticesOnCell >= 0
    return _lanes_csr(
        mesh.nVertices, p.voc_safe, p.kite_on_cell * p.inv_area_cell[:, None], valid
    )


def _compile_velocity_reconstruction(mesh: Mesh) -> sp.csr_matrix:
    """Block-row operator: rows ``3c + i`` give component ``i`` at cell ``c``."""
    from ..swm.reconstruct import reconstruction_matrices

    conn = mesh.connectivity
    mats = reconstruction_matrices(mesh)  # (nCells, 3, maxEdges)
    n, lanes = conn.n_cells, conn.max_edges
    eoc = conn.edgesOnCell
    valid = np.broadcast_to((eoc >= 0)[:, None, :], (n, 3, lanes))
    cols = np.broadcast_to(np.where(eoc >= 0, eoc, 0)[:, None, :], (n, 3, lanes))
    return _rows_csr(cols, mats, valid, conn.n_edges)


def _compile_d2fdx2(mesh: Mesh) -> sp.csr_matrix:
    """Two-row operator: rows ``2e + s`` give side ``s`` of edge ``e``."""
    from ..swm.advection import advection_coefficients

    coeffs = advection_coefficients(mesh)
    # Padded entries carry weight 0 on column 0; keeping them is harmless
    # (they accumulate in the matvec), so no validity mask is needed.
    valid = np.ones(coeffs.cells.shape, dtype=bool)
    return _rows_csr(coeffs.cells, coeffs.weights, valid, mesh.nCells)


#: operator-matrix name -> compiler.  ``flux_divergence`` reuses the
#: ``cell_divergence`` matrix (it is the divergence of the point-local
#: product ``u*h``), so it has no entry of its own.
_COMPILERS: dict[str, Callable[[Mesh], sp.csr_matrix]] = {
    "cell_divergence": _compile_cell_divergence,
    "kinetic_energy": _compile_kinetic_energy,
    "vertex_curl": _compile_vertex_curl,
    "tangential_velocity": _compile_tangential_velocity,
    "cell_to_edge_mean": _compile_cell_to_edge_mean,
    "vertex_to_edge_mean": _compile_vertex_to_edge_mean,
    "edge_gradient_of_cell": _compile_edge_gradient_of_cell,
    "edge_gradient_of_vertex": _compile_edge_gradient_of_vertex,
    "vertex_from_cells_kite": _compile_vertex_from_cells_kite,
    "cell_from_vertices_kite": _compile_cell_from_vertices_kite,
    "velocity_reconstruction": _compile_velocity_reconstruction,
    "d2fdx2": _compile_d2fdx2,
}


def classify_op(op: str) -> str:
    """``"matvec"``, ``"pre"`` or ``"bilinear"`` for a registry op name."""
    if op == "coriolis_edge_term":
        return "bilinear"
    if op in ("flux_divergence", "kinetic_energy"):
        return "pre"
    if op in _COMPILERS:
        return "matvec"
    raise KeyError(f"unknown sparse classification for operator {op!r}")


# --------------------------------------------------------------------- cache
_MEMORY_OPS: "weakref.WeakKeyDictionary[Mesh, dict[str, sp.csr_matrix]]" = (
    weakref.WeakKeyDictionary()
)
_FINGERPRINTS: "weakref.WeakKeyDictionary[Mesh, str]" = weakref.WeakKeyDictionary()

#: Mesh arrays the compilers (directly or through their weight tables) read;
#: the fingerprint hashes exactly these, so any edit that could change a
#: compiled operator also changes its cache key.
_FINGERPRINT_ARRAYS = (
    "edgesOnCell",
    "cellsOnCell",
    "cellsOnEdge",
    "verticesOnEdge",
    "cellsOnVertex",
    "verticesOnCell",
    "edgesOnVertex",
    "edgeSignOnCell",
    "edgeSignOnVertex",
    "edgesOnEdge",
    "weightsOnEdge",
    "areaCell",
    "areaTriangle",
    "kiteAreasOnVertex",
    "dcEdge",
    "dvEdge",
    "edgeNormal",
    "xCell",
)


def mesh_fingerprint(mesh: Mesh) -> str:
    """Content hash of the mesh arrays the operator compilers consume."""
    digest = _FINGERPRINTS.get(mesh)
    if digest is not None:
        return digest
    h = hashlib.sha256()
    h.update(np.float64(mesh.radius).tobytes())
    for name in _FINGERPRINT_ARRAYS:
        arr = np.ascontiguousarray(getattr(mesh, name))
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    digest = h.hexdigest()[:20]
    _FINGERPRINTS[mesh] = digest
    return digest


def operator_cache_path(mesh: Mesh, op: str) -> Path:
    """On-disk archive for one compiled ``(mesh, operator)`` pair (a matrix
    composed by the plan compiler is the operator ``"plan_<name>"``)."""
    root = cache_dir() / "operators"
    root.mkdir(parents=True, exist_ok=True)
    return root / f"{mesh_fingerprint(mesh)}_{op}.npz"


def clear_operator_memory_cache() -> None:
    """Drop in-process compiled operators (tests of the cache itself)."""
    _MEMORY_OPS.clear()


def _read_archive(path: Path, stamps: dict, kind: str) -> sp.csr_matrix | None:
    """Load one archive; ``None`` when a stamp (format version, fingerprint)
    is missing or stale (rebuild in place) *or* on corruption — a damaged
    archive is quarantined by the integrity layer
    (``resilience.cache.quarantined`` tagged ``kind``), never raised to the
    dispatch path."""

    def read(p: Path) -> sp.csr_matrix | None:
        with np.load(p) as d:
            if any(k not in d.files or d[k].item() != v for k, v in stamps.items()):
                return None
            return sp.csr_matrix(
                (d["data"], d["indices"], d["indptr"]), shape=tuple(d["shape"])
            )

    return checked_load(path, read, kind=kind)


def _write_archive(path: Path, stamps: dict, m: sp.csr_matrix) -> None:
    """The one writer of the ``.npz`` format.  Each writer publishes from a
    temporary name of its own (pid + thread id): two writers of one entry
    built equal matrices, and the last rename wins."""
    tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp.npz")
    np.savez_compressed(
        tmp,
        data=m.data,
        indices=m.indices,
        indptr=m.indptr,
        shape=np.array(m.shape),
        **{k: np.array(v) for k, v in stamps.items()},
    )
    os.replace(tmp, path)
    seal(path)


def _cached_operator(
    memory, mesh, name, build, use_disk=None, kind="operator", **extra_stamps
):
    """``build()`` behind the two cache levels: ``memory[mesh][name]``, then
    the archive ``name`` (a composed matrix adds a ``plan_version`` stamp)."""
    ops = memory.setdefault(mesh, {})
    m = ops.get(name)
    if m is not None:
        return m
    if use_disk is None:
        # Duck-typed meshes (the pool's rank-local LocalMesh) carry no
        # ``info`` dict and never persist: their operators are memory-only.
        info = getattr(mesh, "info", None)
        use_disk = bool(info.get("disk_cached")) if info is not None else False
    if use_disk:
        stamps = {
            "format_version": OPERATOR_CACHE_VERSION,
            "fingerprint": mesh_fingerprint(mesh),
            **extra_stamps,
        }
        path = operator_cache_path(mesh, name)
        if path.exists():
            m = _read_archive(path, stamps, kind)
    if m is None:
        m = build()
        if use_disk:
            _write_archive(path, stamps, m)
    ops[name] = m
    return m


def sparse_operator(
    mesh: Mesh, op: str, use_disk: bool | None = None
) -> sp.csr_matrix:
    """The compiled CSR operator of ``op`` on ``mesh``, built at most once.

    ``use_disk=None`` (the default) persists to disk only for meshes the
    mesh cache marked as disk-backed (``mesh.info["disk_cached"]``); pass
    ``True``/``False`` to force either policy.  Memory memoization always
    applies, so repeated dispatches return the same CSR instance.
    """
    if op not in _COMPILERS:
        raise KeyError(
            f"operator {op!r} has no sparse compiler; "
            f"compilable: {sorted(_COMPILERS)}"
        )
    return _cached_operator(
        _MEMORY_OPS, mesh, op, lambda: _COMPILERS[op](mesh), use_disk
    )


# ----------------------------------------------------------- backend impls
class CompiledOp:
    """A registered ``sparse``-backend implementation: matvec of a cached CSR.

    ``pre`` folds point-local input arithmetic (``u*h``, ``u*u``) before the
    matvec; ``post`` reshapes block-row outputs.  Instances are plain
    callables with the registry signature ``fn(mesh, *fields)``.
    """

    def __init__(self, op: str, matrix_op: str, pre=None, post=None):
        self.op = op
        self.matrix_op = matrix_op
        self.pre = pre
        self.post = post
        self.__name__ = f"sparse_{op}"

    def operator(self, mesh: Mesh) -> sp.csr_matrix:
        return sparse_operator(mesh, self.matrix_op)

    def _apply(self, m: sp.csr_matrix, fields, rows: slice = slice(None)):
        """Evaluate against ``m``: the operator, or its ``rows`` slice."""
        y = m @ (self.pre(*fields) if self.pre is not None else fields[0])
        return self.post(y) if self.post is not None else y

    def __call__(self, mesh: Mesh, *fields):
        return self._apply(self.operator(mesh), fields)


class SliceableOp(CompiledOp):
    """A :class:`CompiledOp` the split executor can row-slice.

    ``apply_rows`` computes only the output rows in ``rows`` (a slice over
    output *points*) by slicing the CSR's rows before the matvec.  CSR
    matvec processes each row independently, so ``M[rows] @ x`` is bitwise
    identical to ``(M @ x)[rows]`` — the boundary-band reconciliation of
    :mod:`repro.engine.split` stays bitwise-stable while the inactive
    device's rows are never computed.  ``block`` maps output points to
    matrix rows (3 for the vector-valued reconstruction).
    """

    def __init__(self, op: str, matrix_op: str, pre=None, post=None, block: int = 1):
        super().__init__(op, matrix_op, pre=pre, post=post)
        self.block = block

    def apply_rows(self, mesh: Mesh, fields, rows: slice):
        m = self.operator(mesh)
        sub = m[rows.start * self.block : rows.stop * self.block]
        return self._apply(sub, fields, rows)


class CoriolisOp(SliceableOp):
    """B1 as two matvecs of the TRiSK stencil ``K`` (``tangential_velocity``).

    ``0.5 * (q * (K f) + K (f * q))`` with ``f = u * h_edge``, in exactly
    this evaluation order: the plan's B1 stage issues the same ufunc
    sequence into its buffers, so fused and unfused stay bitwise identical.
    Each output row reads only its own ``q`` and its own row of ``K``, so
    row slicing commutes with the evaluation as for any matvec.
    """

    def __init__(self) -> None:
        super().__init__("coriolis_edge_term", "tangential_velocity")

    def _apply(self, K: sp.csr_matrix, fields, rows: slice = slice(None)):
        u_edge, h_edge, pv_edge = fields
        # In place — the bits of the expression above, a * b being b * a —
        # because each temporary saved is an mmap'd 240 kB array at level 5.
        flux = u_edge * h_edge
        out = K @ flux
        flux *= pv_edge
        out *= pv_edge[rows]
        out += K @ flux
        out *= 0.5
        return out


def _pair(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A 2-D y is a batched (2n, N) member block: keep the member axis last.
    d2 = y.reshape(-1, 2) if y.ndim == 1 else y.reshape(-1, 2, y.shape[1])
    return np.ascontiguousarray(d2[:, 0]), np.ascontiguousarray(d2[:, 1])


def _triples(y: np.ndarray) -> np.ndarray:
    # Block rows 3c + i -> component i of cell c; a 2-D y is a batched
    # (3n, N) member block reshaped to (n, 3, N).
    return y.reshape(-1, 3) if y.ndim == 1 else y.reshape(-1, 3, y.shape[1])


def build_sparse_impls() -> dict[str, Callable]:
    """Backend implementations for every sparse-compilable registry op."""
    impls: dict[str, Callable] = {}
    for op in (
        "cell_divergence",
        "vertex_curl",
        "tangential_velocity",
        "cell_to_edge_mean",
        "vertex_to_edge_mean",
        "edge_gradient_of_cell",
        "edge_gradient_of_vertex",
        "vertex_from_cells_kite",
        "cell_from_vertices_kite",
    ):
        impls[op] = SliceableOp(op, op)
    impls["flux_divergence"] = SliceableOp(
        "flux_divergence", "cell_divergence", pre=lambda u, h: u * h
    )
    impls["kinetic_energy"] = SliceableOp(
        "kinetic_energy", "kinetic_energy", pre=lambda u: u * u
    )
    impls["velocity_reconstruction"] = SliceableOp(
        "velocity_reconstruction",
        "velocity_reconstruction",
        post=_triples,
        block=3,
    )
    impls["coriolis_edge_term"] = CoriolisOp()
    # Tuple-valued (and no_split in the registry): plain CompiledOp.
    impls["d2fdx2"] = CompiledOp("d2fdx2", "d2fdx2", post=_pair)
    return impls
