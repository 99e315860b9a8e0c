"""The precompiled sparse-operator backend (``backend="sparse"``).

Table I reduces every non-local computation of the RK loop to eight
fixed-sparsity stencil shapes, and the Algorithm-3 gather refactoring makes
each of them a *linear* map from the gathered input field to the output
field — i.e. a sparse matrix–vector product with an operator that depends
only on the mesh.  This module takes that observation literally: every
compilable registry operator is compiled **once per mesh** into a
:class:`CSR` operator carrying the same weights the ``numpy`` gather
backend uses (label matrices, inverse areas, TRiSK weights), and a dispatch
is then a single ``M @ x`` — no per-call index gathers, no ``(n, lanes)``
temporaries.  A :class:`CSR` is scipy's three arrays and a shape, built
with numpy alone; ``M @ x`` runs scipy's compiled ``csr_matvec`` kernel,
loaded from its extension file.  A warm run never imports ``scipy.sparse``
(~80 ms, ~22 MB and 75 modules in a fresh interpreter): only composing a
matrix that misses the cache does.

Compilability: ``matvec`` ops are one CSR matvec (11 of the 14 registry
ops, including the block-row ``velocity_reconstruction`` and the two-row
``d2fdx2`` sweep); ``pre`` ops multiply point-local inputs first
(``flux_divergence`` = divergence of ``u*h``, ``kinetic_energy`` = weighted
sum of ``u*u``); the ``bilinear`` B1 is
``sum_j w_ej f_j (q_e + q_j)/2 = (q_e (K f)_e + (K (f q))_e)/2`` with
``f = u * h_edge`` and ``K`` the ``tangential_velocity`` operator, two
matvecs of ``K`` plus four elementwise ops in one fixed order
(:class:`CoriolisOp`).  All 14 registry ops are registered.

Operators are cached at two levels: a per-process ``WeakKeyDictionary`` on
the mesh object (the same CSR instance on every dispatch), and one
versioned ``.npz`` per ``(mesh, operator)`` under ``cache_dir()/operators/``
keyed by a content fingerprint of the mesh arrays the compilers read; a
stale or unstamped file is recompiled and overwritten, never loaded
blindly.  Only meshes :func:`repro.mesh.cache.cached_mesh` marked
``info["disk_cached"]`` persist; ad-hoc meshes compile into memory only.
A decomposed rank compiles no stencil: its operators are its parent mesh's,
restricted to the rank's rows (:func:`_restrict`).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import threading
import weakref
from pathlib import Path
from typing import Callable

import numpy as np

from ..mesh.cache import cache_dir
from ..mesh.mesh import Mesh
from ..resilience.integrity import checked_load, publish

__all__ = [
    "CSR",
    "OPERATOR_CACHE_VERSION",
    "classify_op",
    "mesh_fingerprint",
    "operator_cache_path",
    "scipy_sparse",
    "sparse_operator",
    "clear_operator_memory_cache",
    "build_sparse_impls",
]

#: Format version of the on-disk operator archives.  Bump whenever the
#: compiled representation changes; mismatched files are recompiled.
OPERATOR_CACHE_VERSION = 1


# ------------------------------------------------------------------ kernels
def scipy_sparse():
    """The ``scipy.sparse`` package, imported on first call: composing a
    matrix (:mod:`repro.engine.plan`, on a cache miss) is what needs it."""
    import scipy.sparse

    return scipy.sparse


def _load_sparsetools():
    """scipy's compiled ``_sparsetools`` extension, loaded from its file.

    ``find_spec`` of the top-level name runs no ``__init__``: this costs
    ~0.4 ms and 0.2 MB where the package costs ~80 ms and 22 MB.  A scipy
    laid out differently falls back to the package."""
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "sparse", f"_sparsetools{suffix}")
            if path.is_file():
                spec = importlib.util.spec_from_file_location(
                    "scipy.sparse._sparsetools", path
                )
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools  # pragma: no cover - other layouts

    return _sparsetools


_SPARSETOOLS = _load_sparsetools()


def _probe_kernel():
    """``_sparsetools.csr_matvec`` if it sums each row's stored entries
    sequentially in storage order, bit for bit; else ``None``.  That order
    is what keeps lane-ordered rows invariant under the pool's renumbering.
    The probe rows hold unsorted columns and a duplicate."""
    indptr = np.array([0, 3, 5, 9], dtype=np.int32)
    indices = np.array([2, 0, 3, 1, 1, 3, 0, 2, 0], dtype=np.int32)
    data = np.arange(1.0, 10.0) / 7.0
    x = np.linspace(-1.0, 1.0, 4)
    out = np.zeros(3)
    try:
        fn = _SPARSETOOLS.csr_matvec
        fn(3, 4, indptr, indices, data, x, out)
    except (AttributeError, TypeError, ValueError):  # pragma: no cover
        return None
    want = np.zeros_like(out)
    for row in range(3):
        for k in range(indptr[row], indptr[row + 1]):
            want[row] += data[k] * x[indices[k]]
    return fn if np.array_equal(out, want) else None


_CSR_MATVEC = _probe_kernel()


def _matvec(m: CSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = m @ x`` into a preallocated buffer, bit for bit.

    ``M @ x`` zeroes an output and runs the same kernel into it, so a reused
    buffer saves the allocation and nothing else.  A kernel that failed the
    probe leaves the product to ``scipy.sparse``.
    """
    if _CSR_MATVEC is None:  # pragma: no cover - a scipy whose kernel changed
        out[:] = m.to_scipy() @ x
    elif x.flags.c_contiguous and out.flags.c_contiguous:
        out.fill(0.0)
        _CSR_MATVEC(*m.shape, m.indptr, m.indices, m.data, x, out)
    else:
        out[:] = m @ x
    return out


class CSR:
    """A compressed-sparse-row operator: scipy's ``data`` / ``indices`` /
    ``indptr`` arrays and ``shape``, applied by scipy's compiled kernel.

    ``M @ x`` on a real vector gives the bits
    ``scipy.sparse.csr_matrix @ x`` gives.  :meth:`to_scipy` wraps the same
    arrays for the cold paths that compose matrices.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape) -> None:
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot apply a {self.shape} operator to {x.shape}")
        return _matvec(self, x, np.empty(self.shape[0]))

    def to_scipy(self):
        return scipy_sparse().csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, m) -> CSR:
        return cls(m.data, m.indices, m.indptr, m.shape)


# ----------------------------------------------------------------- compilers
def _lanes_csr(n_in, cols, weights, valid=None) -> CSR:
    """CSR operator from a padded gather table.

    ``cols``/``weights`` are ``(n_out, lanes)`` arrays (the Algorithm-4
    label-matrix form: padded lanes clamped to column 0 with weight 0);
    ``valid`` masks the live lanes.  Each row stores its entries in **lane
    order**, not sorted by column (never through COO's canonicalizing
    ``tocsr``): the matvec sums a row in storage order, so the sum is
    invariant under the pool's rank-local renumbering and a decomposed run
    stays bitwise serial.  Duplicate ``(row, col)`` pairs are kept.
    """
    cols = np.asarray(cols)
    if valid is None:
        valid = np.ones(cols.shape, dtype=bool)
    return _rows_csr(cols, np.broadcast_to(weights, cols.shape), valid, n_in)


def _rows_csr(cols, weights, valid, n_in) -> CSR:
    """Non-canonical CSR from ``(..., lanes)`` tables, flattened row-major.

    Leading axes are flattened into matrix rows (row-major, so a
    ``(n, 3, lanes)`` block table yields rows ``3c + i``); the last axis is
    the per-row lane order, preserved verbatim in storage.  The index dtype
    follows scipy's rule (``int32`` while the shape and nnz fit), so the
    arrays and archives are those ``scipy.sparse.csr_matrix`` built.
    """
    lanes = cols.shape[-1]
    cols2 = cols.reshape(-1, lanes)
    valid2 = valid.reshape(-1, lanes)
    counts = np.count_nonzero(valid2, axis=1)
    indptr = np.zeros(cols2.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    shape = (cols2.shape[0], n_in)
    index = np.int32 if max(*shape, indptr[-1]) <= np.iinfo(np.int32).max else np.int64
    return CSR(
        weights.reshape(-1, lanes)[valid2],
        cols2[valid2].astype(index),
        indptr.astype(index),
        shape,
    )


def _restrict(m: CSR, lm) -> CSR:
    """Rank ``lm``'s rows of its parent mesh's operator ``m``.

    The rows of the points ``lm`` holds (block rows ``k p + i`` included),
    columns renumbered to local ids, lanes whose column the rank does not
    hold dropped, storage order kept: a row whose stencil the rank holds is
    the global row bit for bit.
    """
    rows = lm.rows(np.arange(m.shape[0]))
    sizes = (lm.parent.nCells, lm.parent.nEdges, lm.parent.nVertices)
    g2l = lm.local_ids[sizes.index(m.shape[1])]
    start, count = m.indptr[rows], np.diff(m.indptr)[rows]
    pos = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
    cols = g2l[m.indices[pos]]
    keep = cols >= 0
    kept = np.bincount(np.repeat(np.arange(rows.size), count)[keep], minlength=rows.size)
    shape = (rows.size, int(g2l.max()) + 1)  # indices as _rows_csr types them
    index = np.int32 if max(*shape, kept.sum()) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(kept)]).astype(index)
    return CSR(m.data[pos[keep]], cols[keep].astype(index), indptr, shape)


def _gathered(build: Callable) -> Callable[[Mesh], CSR]:
    """A compiler over the mesh's numpy gather tables (``plan_for``)."""

    def compile_(mesh: Mesh) -> CSR:
        from ..swm.operators import plan_for

        return build(mesh, plan_for(mesh))

    return compile_


def _pair_csr(n_in, a, b, wa, wb) -> CSR:
    """Two-lane rows ``wa * x[a] + wb * x[b]`` (edge means and gradients)."""
    return _lanes_csr(n_in, np.stack([a, b], axis=1), np.stack([wa, wb], axis=1))


def _compile_velocity_reconstruction(mesh: Mesh) -> CSR:
    """Block-row operator: rows ``3c + i`` give component ``i`` at cell ``c``."""
    from ..swm.reconstruct import reconstruction_matrices

    conn = mesh.connectivity
    mats = reconstruction_matrices(mesh)  # (nCells, 3, maxEdges)
    n, lanes = conn.n_cells, conn.max_edges
    eoc = conn.edgesOnCell
    valid = np.broadcast_to((eoc >= 0)[:, None, :], (n, 3, lanes))
    cols = np.broadcast_to(np.where(eoc >= 0, eoc, 0)[:, None, :], (n, 3, lanes))
    return _rows_csr(cols, mats, valid, conn.n_edges)


def _compile_d2fdx2(mesh: Mesh) -> CSR:
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
_COMPILERS: dict[str, Callable[[Mesh], CSR]] = {
    "cell_divergence": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nEdges, p.eoc_safe, p.sign_dv * p.inv_area_cell[:, None],
        mesh.connectivity.edgesOnCell >= 0,
    )),
    "kinetic_energy": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nEdges, p.eoc_safe, p.ke_weight * p.inv_area_cell[:, None],
        mesh.connectivity.edgesOnCell >= 0,
    )),
    "vertex_curl": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nEdges, p.eov, p.sign_dc * p.inv_area_tri[:, None]
    )),
    "tangential_velocity": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nEdges, p.eoe_safe, p.woe, mesh.trisk.edgesOnEdge >= 0
    )),
    "cell_to_edge_mean": _gathered(lambda mesh, p: _pair_csr(
        mesh.nCells, p.c0, p.c1, np.full(p.c0.shape, 0.5), np.full(p.c1.shape, 0.5)
    )),
    "vertex_to_edge_mean": _gathered(lambda mesh, p: _pair_csr(
        mesh.nVertices, p.v0, p.v1, np.full(p.v0.shape, 0.5), np.full(p.v1.shape, 0.5)
    )),
    "edge_gradient_of_cell": _gathered(lambda mesh, p: _pair_csr(
        mesh.nCells, p.c0, p.c1, -p.inv_dc, p.inv_dc
    )),
    "edge_gradient_of_vertex": _gathered(lambda mesh, p: _pair_csr(
        mesh.nVertices, p.v0, p.v1, -p.inv_dv, p.inv_dv
    )),
    "vertex_from_cells_kite": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nCells, p.cov, p.kite * p.inv_area_tri[:, None]
    )),
    "cell_from_vertices_kite": _gathered(lambda mesh, p: _lanes_csr(
        mesh.nVertices, p.voc_safe, p.kite_on_cell * p.inv_area_cell[:, None],
        mesh.connectivity.verticesOnCell >= 0,
    )),
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
_MEMORY_OPS: "weakref.WeakKeyDictionary[Mesh, dict[str, CSR]]" = (
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


def _read_archive(path: Path, stamps: dict, kind: str) -> CSR | None:
    """Load one archive; ``None`` when a stamp (format version, fingerprint)
    is missing or stale (rebuild in place) *or* on corruption — a damaged
    archive is quarantined by the integrity layer
    (``resilience.cache.quarantined`` tagged ``kind``), never raised to the
    dispatch path."""

    def read(p: Path) -> CSR | None:
        with np.load(p) as d:
            if any(k not in d.files or d[k].item() != v for k, v in stamps.items()):
                return None
            return CSR(d["data"], d["indices"], d["indptr"], d["shape"])

    return checked_load(path, read, kind=kind)


def _write_archive(path: Path, stamps: dict, m: CSR) -> None:
    """The one writer of the ``.npz`` format, stored, not deflated (float64
    does not deflate).  Each writer publishes from a temporary name of its
    own (pid + thread id): two writers of one entry built equal matrices,
    and the last rename wins."""
    tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp.npz")
    np.savez(
        tmp,
        data=m.data,
        indices=m.indices,
        indptr=m.indptr,
        shape=np.array(m.shape),
        **{k: np.array(v) for k, v in stamps.items()},
    )
    publish(tmp, path)


def _cached_operator(
    memory, mesh, name, build, use_disk=None, kind="operator", **extra_stamps
):
    """``build(mesh)`` behind the two cache levels: ``memory[mesh][name]``,
    then the archive ``name`` (a composed matrix adds a ``plan_version``
    stamp).  A rank's ``LocalMesh`` restricts its parent's operator instead
    (:func:`_restrict`), in memory only: no rank compiles a stencil."""
    ops = memory.setdefault(mesh, {})
    m = ops.get(name)
    if m is not None:
        return m
    parent = getattr(mesh, "parent", None)
    if parent is not None:
        m = _cached_operator(memory, parent, name, build, use_disk, kind, **extra_stamps)
        ops[name] = _restrict(m, mesh)
        return ops[name]
    if use_disk is None:
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
        m = build(mesh)
        if use_disk:
            _write_archive(path, stamps, m)
    ops[name] = m
    return m


def sparse_operator(mesh: Mesh, op: str, use_disk: bool | None = None) -> CSR:
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
    return _cached_operator(_MEMORY_OPS, mesh, op, _COMPILERS[op], use_disk)


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

    def __call__(self, mesh: Mesh, *fields):
        m = sparse_operator(mesh, self.matrix_op)
        y = m @ (self.pre(*fields) if self.pre is not None else fields[0])
        return self.post(y) if self.post is not None else y


class CoriolisOp(CompiledOp):
    """B1 as two matvecs of the TRiSK stencil ``K`` (``tangential_velocity``).

    ``0.5 * (q * (K f) + K (f * q))`` with ``f = u * h_edge``, in exactly
    this evaluation order: the plan's B1 stage issues the same ufunc
    sequence into its buffers, so fused and unfused stay bitwise identical.
    """

    def __init__(self) -> None:
        super().__init__("coriolis_edge_term", "tangential_velocity")

    def __call__(self, mesh: Mesh, u_edge, h_edge, pv_edge):
        K = sparse_operator(mesh, self.matrix_op)
        # In place — the bits of the expression above, a * b being b * a —
        # because each temporary saved is an mmap'd 240 kB array at level 5.
        flux = u_edge * h_edge
        out = K @ flux
        flux *= pv_edge
        out *= pv_edge
        out += K @ flux
        out *= 0.5
        return out


def _pair(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = y.reshape(-1, 2)
    return np.ascontiguousarray(d2[:, 0]), np.ascontiguousarray(d2[:, 1])


def _triples(y: np.ndarray) -> np.ndarray:
    # Block rows 3c + i -> component i of cell c.
    return y.reshape(-1, 3)


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
        impls[op] = CompiledOp(op, op)
    impls["flux_divergence"] = CompiledOp(
        "flux_divergence", "cell_divergence", pre=lambda u, h: u * h
    )
    impls["kinetic_energy"] = CompiledOp(
        "kinetic_energy", "kinetic_energy", pre=lambda u: u * u
    )
    impls["velocity_reconstruction"] = CompiledOp(
        "velocity_reconstruction", "velocity_reconstruction", post=_triples
    )
    impls["coriolis_edge_term"] = CoriolisOp()
    impls["d2fdx2"] = CompiledOp("d2fdx2", "d2fdx2", post=_pair)
    return impls
