"""Cold-compile tables against the per-entity loops they replaced.

``reconstruction_matrices``, ``plan_for(...).kite_on_cell`` and
``advection_coefficients`` used to be built by Python loops over cells,
vertices and (edge, side) pairs.  They are vectorized now; the loops live
here as oracles, and the contract is **bitwise** equality — on the
icosahedral mesh, on a random SCVT (heptagons included) and on a rank-local
``LocalMesh`` (whose remapped, fallback-padded connectivity is where an
index trick would break first) — because every compiled operator, golden
file and decomposed-equals-serial guarantee downstream hangs off these
arrays.  The operators themselves are built with numpy alone and applied
by scipy's kernel loaded from its file; ``scipy.sparse`` is the oracle for
both, arrays and dtypes, and ``csr_matrix @ x`` on vectors and blocks.

The paper's adjustable host/device split (Fig. 4b) is simulated by
:mod:`repro.hybrid`; its one numerical contract is checked here against the
real CSR operators: a contiguous row cut of any registered pattern, each
half computed from its owned inputs plus the reconciled boundary band,
stitches bitwise to the unsplit result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import default_registry, dispatch
from repro.engine import sparse
from repro.engine.sparse import sparse_operator
from repro.geometry import lloyd_relax, normalize
from repro.geometry.sphere import tangent_basis, tangent_plane_coords
from repro.mesh import Mesh
from repro.parallel import build_local_mesh, partition_cells
from repro.swm.advection import advection_coefficients
from repro.swm.operators import plan_for
from repro.swm.reconstruct import reconstruction_matrices


@pytest.fixture(scope="module")
def random_scvt():
    rng = np.random.default_rng(23)
    points = lloyd_relax(normalize(rng.standard_normal((120, 3))), iterations=60)
    return Mesh.from_points(points.points, name="random120-23")


@pytest.fixture(scope="module", params=["icos3", "random", "local"])
def mesh(request, mesh3, random_scvt):
    if request.param == "icos3":
        return mesh3
    if request.param == "local":
        return build_local_mesh(mesh3, partition_cells(mesh3, 3), 1)
    return random_scvt


def _reconstruction_matrices_loop(mesh) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    mats = np.zeros((conn.n_cells, 3, conn.max_edges))
    east, north = tangent_basis(met.xCell)
    for c in range(conn.n_cells):
        n = int(conn.nEdgesOnCell[c])
        N = met.edgeNormal[conn.edgesOnCell[c, :n]]  # (n, 3)
        E = np.stack([east[c], north[c]], axis=1)  # (3, 2)
        mats[c, :, :n] = E @ np.linalg.pinv(N @ E)
    return mats


def _kite_on_cell_loop(mesh) -> np.ndarray:
    conn, met = mesh.connectivity, mesh.metrics
    lookup = {}
    for v in range(conn.n_vertices):
        for k in range(3):
            lookup[(v, int(conn.cellsOnVertex[v, k]))] = float(
                met.kiteAreasOnVertex[v, k]
            )
    kite = np.zeros(conn.verticesOnCell.shape)
    for c in range(conn.n_cells):
        for j in range(int(conn.nEdgesOnCell[c])):
            kite[c, j] = lookup[(int(conn.verticesOnCell[c, j]), c)]
    return kite * (conn.verticesOnCell >= 0)


def _advection_coefficients_loop(mesh) -> tuple[np.ndarray, np.ndarray]:
    conn, met = mesh.connectivity, mesh.metrics
    stencils, pinvs = [], []
    scales = np.sqrt(met.areaCell)
    for c in range(conn.n_cells):
        stencil = np.concatenate(([c], conn.cellsOnCell[c, : conn.nEdgesOnCell[c]]))
        xy = tangent_plane_coords(met.xCell[c], met.xCell[stencil])
        xy = xy * (met.radius / scales[c])
        x, y = xy[:, 0], xy[:, 1]
        pinv = np.linalg.pinv(
            np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
        )
        pinv[3:6] /= scales[c] * scales[c]
        stencils.append(stencil)
        pinvs.append(pinv)
    cells = np.zeros((conn.n_edges, 2, conn.max_edges + 1), dtype=np.int64)
    weights = np.zeros(cells.shape)
    for e in range(conn.n_edges):
        for s in range(2):
            c = int(conn.cellsOnEdge[e, s])
            east, north = tangent_basis(met.xCell[c])  # one call per (edge, side)
            nx, ny = float(met.edgeNormal[e] @ east), float(met.edgeNormal[e] @ north)
            nrm = np.hypot(nx, ny)
            nx, ny = nx / nrm, ny / nrm
            p = pinvs[c]
            k = stencils[c].shape[0]
            cells[e, s, :k] = stencils[c]
            weights[e, s, :k] = 2.0 * (nx * nx * p[3] + nx * ny * p[4] + ny * ny * p[5])
    return cells, weights


def test_reconstruction_matrices_equal_the_per_cell_loop(mesh):
    assert np.array_equal(
        reconstruction_matrices(mesh), _reconstruction_matrices_loop(mesh)
    )


def test_kite_on_cell_equals_the_lookup_loop(mesh):
    assert np.array_equal(plan_for(mesh).kite_on_cell, _kite_on_cell_loop(mesh))


def test_advection_coefficients_equal_the_per_side_loop(mesh):
    coeffs = advection_coefficients(mesh)
    cells, weights = _advection_coefficients_loop(mesh)
    assert np.array_equal(coeffs.cells, cells)
    assert np.array_equal(coeffs.weights, weights)


# ------------------------------------- operators without scipy.sparse
@pytest.mark.parametrize("name", sorted(sparse._COMPILERS))
def test_numpy_built_operators_equal_scipys_construction(mesh, name):
    """The compilers build the CSR arrays with numpy alone; scipy built them
    from int64 index arrays with its own index-dtype rule, and every array,
    dtype and shape must come out the same (archives depend on it)."""
    import scipy.sparse as sp

    m = sparse._COMPILERS[name](mesh)
    ref = sp.csr_matrix(
        (m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)),
        shape=m.shape,
    )
    assert m.shape == ref.shape
    for key in ("data", "indices", "indptr"):
        got, want = getattr(m, key), getattr(ref, key)
        assert got.dtype == want.dtype, key
        assert np.array_equal(got, want), key


@pytest.mark.parametrize("name", sorted(sparse._COMPILERS))
def test_path_loaded_kernels_equal_scipy_matvec(mesh, name):
    """``M @ x`` and the plan's in-place matvec run the kernel loaded from
    the extension file; they equal ``scipy.sparse.csr_matrix @ x`` bit for
    bit.  (That a run loads it without the package is the hygiene test's
    fresh interpreter.)"""
    import scipy.sparse as sp

    assert sparse._CSR_MATVEC is not None  # passed the probe
    m = sparse.sparse_operator(mesh, name)
    ref = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    x = np.random.default_rng(30).standard_normal(m.shape[1])
    want = ref @ x
    assert np.array_equal(m @ x, want)
    assert np.array_equal(sparse._matvec(m, x, np.full(want.shape, np.nan)), want)


# ------------------------------------------------ row cuts of every pattern
#: Every registered operator a contiguous row cut partitions (13 of 14: the
#: tuple-valued C1,C2 sweep is ``no_split``).
SPLITTABLE_OPS = [
    entry.op for entry in map(default_registry().op, default_registry().ops())
    if entry.stencil is not None and not entry.no_split
]

#: Inputs per operator; all of the operator's input point type.
_ARITY = {"flux_divergence": 2, "coriolis_edge_term": 3}


@pytest.fixture(scope="module", params=["icos3", "random"])
def cut_mesh(request, mesh3, random_scvt):
    return mesh3 if request.param == "icos3" else random_scvt


def _cut_rows(op: str, mesh, fields, rows: slice, n_out: int) -> np.ndarray:
    """Output ``rows`` of ``op`` from the CSR operator's row slice alone."""
    impl = default_registry().op(op).resolve("sparse")
    m = sparse_operator(mesh, impl.matrix_op)
    block = m.shape[0] // n_out  # 3 matrix rows per cell for the reconstruction
    sub = m.to_scipy()[rows.start * block : rows.stop * block]
    if op == "coriolis_edge_term":
        # B1 in CoriolisOp's order; each row reads only its own pv_edge.
        u, h_edge, pv_edge = fields
        flux = u * h_edge
        out = sub @ flux
        flux *= pv_edge
        out *= pv_edge[rows]
        out += sub @ flux
        out *= 0.5
        return out
    y = sub @ (impl.pre(*fields) if impl.pre is not None else fields[0])
    return impl.post(y) if impl.post is not None else y


@pytest.mark.parametrize("op", SPLITTABLE_OPS)
@pytest.mark.parametrize("fraction", [0.25, 0.37, 0.5, 0.8])
def test_row_cut_stitches_bitwise(cut_mesh, fraction, op):
    """Cut output and input points at ``floor(f * n)``; each half sees only
    its own inputs plus the boundary band its gather table reaches across
    the cut, everything else zero.  The two halves concatenate to exactly
    the unsplit dispatch."""
    entry = default_registry().op(op)
    n_out = entry.output_point.count(cut_mesh)
    n_in = entry.input_point.count(cut_mesh)
    rng = np.random.default_rng(2015)
    fields = [rng.standard_normal(n_in) for _ in range(_ARITY.get(op, 1))]
    want = dispatch(op, cut_mesh, *fields, backend="sparse")

    table = np.asarray(entry.stencil(cut_mesh))
    cut_out, cut_in = int(fraction * n_out), int(fraction * n_in)
    halves = []
    for rows, owned in (
        (slice(0, cut_out), slice(0, cut_in)),
        (slice(cut_out, n_out), slice(cut_in, n_in)),
    ):
        gathered = table[rows]
        needed = np.unique(gathered[gathered >= 0])
        band = needed[(needed < owned.start) | (needed >= owned.stop)]
        assert band.size > 0  # the cut crosses the mesh
        local = []
        for field in fields:
            copy = np.zeros_like(field)
            copy[owned] = field[owned]
            copy[band] = field[band]
            local.append(copy)
        halves.append(_cut_rows(op, cut_mesh, local, rows, n_out))
    assert np.array_equal(np.concatenate(halves), want)
