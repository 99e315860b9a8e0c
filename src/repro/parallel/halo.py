"""Halo construction and rank-local meshes.

Each rank owns the cells its partition assigned to it, plus ``halo_layers``
rings of ghost cells (MPAS uses two; we default to three so that the
high-order thickness advection and the APVM potential-vorticity chain are
*fully redundant* on the halo — owned outputs then only require the
prognostic state to be exchanged, exactly like the production code: halo
values of diagnostics are recomputed locally rather than communicated).

A :class:`LocalIndexPlan` says which global points a rank holds; a
:class:`LocalMesh` adds the self-contained restriction of the global mesh to
those point sets, using the same ``Connectivity`` / ``Metrics`` /
``TriskWeights`` containers so every kernel of :mod:`repro.swm` runs on it
unchanged.  Connectivity entries that point outside the local set (possible
only on the outermost halo ring, whose outputs are never consumed) are
remapped to safe local indices, keeping all arithmetic finite.

Point ordering is deterministic: owned points first (in ascending global
order), then halo points layer by layer — so ``array[:n_owned]`` is always
the owned slice and equals the corresponding global slice bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.connectivity import FILL, Connectivity
from ..mesh.mesh import Mesh
from ..mesh.metrics import Metrics
from ..mesh.trisk import TriskWeights

__all__ = [
    "LocalIndexPlan",
    "LocalMesh",
    "build_local_mesh",
    "halo_layers_required",
    "exchange_bytes",
    "local_index_plan",
    "ring_halo_indices",
    "schedule_exchange_bytes",
]


def halo_layers_required(thickness_adv_order: int, apvm: bool) -> int:
    """Cell halo depth for fully-redundant halo diagnostics.

    The deepest chains: 4th-order ``h_edge`` read by the TRiSK neighbourhood
    of an owned edge reaches 3 cell layers; the APVM ``pv_edge`` chain
    likewise.  Second-order, APVM-free configurations manage with 2.
    """
    if thickness_adv_order >= 3 or apvm:
        return 3
    return 2


@dataclass(frozen=True, eq=False)
class LocalIndexPlan:
    """Which global points one rank holds, in local order, without geometry
    (the pool parent's per-rank record; each worker builds the mesh)."""

    rank: int

    # Local -> global index maps; owned points first.
    cells_global: np.ndarray
    edges_global: np.ndarray
    vertices_global: np.ndarray
    n_owned_cells: int
    n_owned_edges: int
    n_owned_vertices: int

    # Ring id per local point: 0 = owned, k = k-th ghost ring.  Halo edges
    # on the partition boundary carry ring 0 (they touch an owned cell);
    # a ring-limited exchange must still refresh them.
    cell_rings: np.ndarray
    edge_rings: np.ndarray

    #: The ranks owning any of this rank's halo cells or edges.
    providers: tuple[int, ...]

    @property
    def n_halo_cells(self) -> int:
        return self.cells_global.size - self.n_owned_cells

    @property
    def n_halo_edges(self) -> int:
        return self.edges_global.size - self.n_owned_edges


@dataclass(frozen=True, eq=False)
class LocalMesh(LocalIndexPlan):
    """One rank's restriction of the global mesh (duck-types ``Mesh``)."""

    connectivity: Connectivity
    metrics: Metrics
    trisk: TriskWeights

    @property
    def nCells(self) -> int:
        return self.connectivity.n_cells

    @property
    def nEdges(self) -> int:
        return self.connectivity.n_edges

    @property
    def nVertices(self) -> int:
        return self.connectivity.n_vertices

    @property
    def maxEdges(self) -> int:
        return self.connectivity.max_edges

    @property
    def radius(self) -> float:
        return self.metrics.radius


def ring_halo_indices(
    lm: LocalIndexPlan, rings: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local halo indices a depth-``rings`` exchange must refresh.

    Returns ``(cell_idx, edge_idx)``: the halo cells with ring ``<= rings``
    (cells are ring-ordered, so this is a contiguous run starting at
    ``n_owned_cells``) and the halo edges whose nearest adjacent local cell
    sits within ``rings`` — exactly the edge set a depth-``rings`` local
    mesh would contain.  With ``rings`` at or above the built halo depth
    this covers every halo point and the exchange is the full one.
    """
    cr, er = lm.cell_rings, lm.edge_rings
    cell_idx = np.flatnonzero((cr >= 1) & (cr <= rings))
    edge_idx = lm.n_owned_edges + np.flatnonzero(er[lm.n_owned_edges:] <= rings)
    return cell_idx, edge_idx


def exchange_bytes(local_meshes: "list[LocalIndexPlan]") -> float:
    """Bytes one prognostic halo exchange moves across all ranks.

    Each exchange refreshes the halo values of ``h`` (cells) and ``u``
    (edges) on every rank — the payload the paper's MPI layer ships at each
    red synchronization arrow of Figure 2.  Diagnostics are recomputed
    redundantly and move nothing.
    """
    return 8.0 * sum(lm.n_halo_cells + lm.n_halo_edges for lm in local_meshes)


def schedule_exchange_bytes(local_meshes: "list[LocalIndexPlan]", schedule) -> float:
    """Bytes one RK step moves across all ranks under a ``HaloSchedule``.

    Counts, for every kept sync point, only the fields it names and only
    the halo points within its ring depth — the payload a comm-avoiding
    exchange actually ships.  The static schedule reduces to
    ``8 * exchange_bytes(local_meshes)`` when the built halo depth matches
    the schedule's ring depth.
    """
    total = 0.0
    for lm in local_meshes:
        for point in schedule.points:
            cells, edges = ring_halo_indices(lm, point.rings)
            total += 8.0 * (
                cells.size * ("h" in point.fields) + edges.size * ("u" in point.fields)
            )
    return total


def _halo_rings(mesh: Mesh, owned: np.ndarray, layers: int) -> list[np.ndarray]:
    """Successive rings of ghost cells around the owned set."""
    conn = mesh.connectivity
    known = np.zeros(mesh.nCells, dtype=bool)
    known[owned] = True
    frontier = owned
    rings: list[np.ndarray] = []
    for _ in range(layers):
        neigh = conn.cellsOnCell[frontier]
        neigh = neigh[neigh >= 0]
        new = np.unique(neigh[~known[neigh]])
        rings.append(new)
        known[new] = True
        frontier = new
    return rings


def local_index_plan(
    mesh: Mesh, owner: np.ndarray, rank: int, halo_layers: int = 3
) -> LocalIndexPlan:
    """The points of ``mesh`` that ``rank`` holds: its owned cells plus
    ``halo_layers`` ghost rings, and the edges and vertices of those cells."""
    conn = mesh.connectivity
    owned_cells = np.flatnonzero(owner == rank)
    if owned_cells.size == 0:
        raise ValueError(f"rank {rank} owns no cells")
    rings = _halo_rings(mesh, owned_cells, halo_layers)
    cells_global = np.concatenate([owned_cells, *rings])

    # Edge/vertex ownership follows the first adjacent cell, giving every
    # edge/vertex exactly one owner consistently across ranks.
    edge_owner = owner[conn.cellsOnEdge[:, 0]]
    vertex_owner = owner[conn.cellsOnVertex[:, 0]]

    def local_points(on_cell: np.ndarray, point_owner: np.ndarray) -> tuple[np.ndarray, int]:
        pts = on_cell[cells_global]
        pts = np.unique(pts[pts >= 0])
        is_owned = point_owner[pts] == rank
        ordered = np.concatenate([pts[is_owned], pts[~is_owned]])
        return ordered, int(np.count_nonzero(is_owned))

    edges_global, n_owned_edges = local_points(conn.edgesOnCell, edge_owner)
    vertices_global, n_owned_vertices = local_points(conn.verticesOnCell, vertex_owner)

    # Ring ids.  Cells are ring-ordered by construction; an edge's ring is
    # the ring of its nearest adjacent local cell (absent second cells on
    # the outermost ring count as infinitely far).
    ring_of_global_cell = np.full(mesh.nCells, np.iinfo(np.int64).max, dtype=np.int64)
    ring_of_global_cell[owned_cells] = 0
    for depth, ring in enumerate(rings, start=1):
        ring_of_global_cell[ring] = depth
    cell_rings = ring_of_global_cell[cells_global]
    edge_cell_rings = np.where(
        conn.cellsOnEdge[edges_global] >= 0,
        ring_of_global_cell[np.clip(conn.cellsOnEdge[edges_global], 0, None)],
        np.iinfo(np.int64).max,
    )
    edge_rings = np.min(edge_cell_rings, axis=1)

    providers = np.unique(np.concatenate([
        owner[cells_global[owned_cells.size :]],
        edge_owner[edges_global[n_owned_edges:]],
    ]))
    return LocalIndexPlan(
        rank=rank,
        cells_global=cells_global,
        edges_global=edges_global,
        vertices_global=vertices_global,
        n_owned_cells=int(owned_cells.size),
        n_owned_edges=n_owned_edges,
        n_owned_vertices=n_owned_vertices,
        cell_rings=cell_rings,
        edge_rings=edge_rings,
        providers=tuple(providers.tolist()),
    )


def build_local_mesh(
    mesh: Mesh, owner: np.ndarray, rank: int, halo_layers: int = 3
) -> LocalMesh:
    """Restrict ``mesh`` to the points :func:`local_index_plan` gives ``rank``."""
    conn, met, tri = mesh.connectivity, mesh.metrics, mesh.trisk
    plan = local_index_plan(mesh, owner, rank, halo_layers)
    cells_global, edges_global = plan.cells_global, plan.edges_global
    vertices_global = plan.vertices_global

    n_cells = cells_global.size
    n_edges = edges_global.size
    n_vertices = vertices_global.size

    cell_g2l = np.full(mesh.nCells, -1, dtype=np.int64)
    cell_g2l[cells_global] = np.arange(n_cells)
    edge_g2l = np.full(mesh.nEdges, -1, dtype=np.int64)
    edge_g2l[edges_global] = np.arange(n_edges)
    vertex_g2l = np.full(mesh.nVertices, -1, dtype=np.int64)
    vertex_g2l[vertices_global] = np.arange(n_vertices)

    def remap(table: np.ndarray, g2l: np.ndarray, fallback: np.ndarray) -> np.ndarray:
        """Remap a global index table to local ids, FILL-preserving.

        ``fallback`` (broadcastable to ``table``'s shape) substitutes
        out-of-partition references: a valid local id, or ``FILL`` to
        leave them for the caller to patch.
        """
        out = np.where(table >= 0, g2l[np.clip(table, 0, None)], FILL)
        missing = (table >= 0) & (out < 0)
        if np.any(missing):
            fb = np.broadcast_to(fallback, table.shape)
            out = np.where(missing, fb, out)
        return out

    # ---------------------------------------------------------------- cells
    loc = np.arange(n_cells)[:, None]
    edgesOnCell = remap(conn.edgesOnCell[cells_global], edge_g2l, 0)
    verticesOnCell = remap(conn.verticesOnCell[cells_global], vertex_g2l, 0)
    cellsOnCell = remap(conn.cellsOnCell[cells_global], cell_g2l, loc)

    # ---------------------------------------------------------------- edges
    coe = remap(conn.cellsOnEdge[edges_global], cell_g2l, FILL)
    # A local edge always touches at least one local cell; a missing second
    # cell (outermost ring) falls back to the present one.
    have0 = coe[:, 0] >= 0
    have1 = coe[:, 1] >= 0
    coe[:, 0] = np.where(have0, coe[:, 0], coe[:, 1])
    coe[:, 1] = np.where(have1, coe[:, 1], coe[:, 0])
    if np.any(coe < 0):
        raise AssertionError("local edge with no local cell")
    verticesOnEdge = remap(conn.verticesOnEdge[edges_global], vertex_g2l, 0)

    # -------------------------------------------------------------- vertices
    cov = remap(conn.cellsOnVertex[vertices_global], cell_g2l, FILL)
    # Fallback for missing cells: the first local cell on the vertex.
    first_local = np.max(cov, axis=1)  # at least one is local (>= 0)
    if np.any(first_local < 0):
        raise AssertionError("local vertex with no local cell")
    cov = np.where(cov >= 0, cov, first_local[:, None])
    eov = remap(conn.edgesOnVertex[vertices_global], edge_g2l, FILL)
    first_local_e = np.max(eov, axis=1)
    eov = np.where(eov >= 0, eov, first_local_e[:, None])

    # ------------------------------------------------------------- TRiSK
    eoe = remap(tri.edgesOnEdge[edges_global], edge_g2l, np.arange(n_edges)[:, None])

    local_conn = Connectivity(
        n_cells=n_cells,
        n_edges=n_edges,
        n_vertices=n_vertices,
        max_edges=conn.max_edges,
        nEdgesOnCell=conn.nEdgesOnCell[cells_global],
        verticesOnCell=verticesOnCell,
        edgesOnCell=edgesOnCell,
        cellsOnCell=cellsOnCell,
        cellsOnEdge=coe,
        verticesOnEdge=verticesOnEdge,
        cellsOnVertex=cov,
        edgesOnVertex=eov,
        edgeSignOnCell=conn.edgeSignOnCell[cells_global],
        edgeSignOnVertex=conn.edgeSignOnVertex[vertices_global],
    )
    local_metrics = Metrics(
        radius=met.radius,
        xCell=met.xCell[cells_global],
        xEdge=met.xEdge[edges_global],
        xVertex=met.xVertex[vertices_global],
        lonCell=met.lonCell[cells_global],
        latCell=met.latCell[cells_global],
        lonEdge=met.lonEdge[edges_global],
        latEdge=met.latEdge[edges_global],
        lonVertex=met.lonVertex[vertices_global],
        latVertex=met.latVertex[vertices_global],
        areaCell=met.areaCell[cells_global],
        areaTriangle=met.areaTriangle[vertices_global],
        kiteAreasOnVertex=met.kiteAreasOnVertex[vertices_global],
        dcEdge=met.dcEdge[edges_global],
        dvEdge=met.dvEdge[edges_global],
        edgeNormal=met.edgeNormal[edges_global],
        edgeTangent=met.edgeTangent[edges_global],
        angleEdge=met.angleEdge[edges_global],
    )
    local_trisk = TriskWeights(
        nEdgesOnEdge=tri.nEdgesOnEdge[edges_global],
        edgesOnEdge=eoe,
        weightsOnEdge=tri.weightsOnEdge[edges_global],
    )
    return LocalMesh(
        connectivity=local_conn, metrics=local_metrics, trisk=local_trisk,
        **vars(plan),
    )
