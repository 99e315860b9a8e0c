"""Halo construction and rank-local meshes.

Each rank owns the cells its partition assigned to it, plus ``halo_layers``
rings of ghost cells (MPAS uses two; we default to three so that the
high-order thickness advection and the APVM potential-vorticity chain are
*fully redundant* on the halo — owned outputs then only require the
prognostic state to be exchanged, exactly like the production code: halo
values of diagnostics are recomputed locally rather than communicated).

A :class:`LocalIndexPlan` says which global points a rank holds
(:func:`decompose` computes a mesh's partition and plans once); a
:class:`LocalMesh` adds the parent mesh, whose operators it slices
(:mod:`repro.engine.sparse`) and whose geometry it restricts on first read.
Connectivity entries that point outside the local set (possible only on the
outermost halo ring, whose outputs are never consumed) are remapped to safe
local indices, keeping all arithmetic finite.

Point ordering is deterministic: owned points first (in ascending global
order), then halo points layer by layer — so ``array[:n_owned]`` is always
the owned slice and equals the corresponding global slice bitwise.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from dataclasses import dataclass

import numpy as np

from ..mesh.connectivity import FILL, Connectivity
from ..mesh.mesh import Mesh
from ..mesh.metrics import Metrics
from ..mesh.trisk import TriskWeights
from .partition import partition_cells

__all__ = [
    "LocalIndexPlan",
    "LocalMesh",
    "build_local_mesh",
    "decompose",
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

    n_halo_cells = property(lambda self: self.cells_global.size - self.n_owned_cells)
    n_halo_edges = property(lambda self: self.edges_global.size - self.n_owned_edges)


@dataclass(frozen=True, eq=False)
class LocalMesh(LocalIndexPlan):
    """One rank's view of its ``parent`` mesh (duck-types ``Mesh``): its
    sparse operators are the parent's restricted to its rows, and its
    ``connectivity`` / ``metrics`` / ``trisk`` the parent's restricted on
    first read (by the numpy backend and tests; a sparse step reads none)."""

    parent: Mesh

    nCells = property(lambda self: self.cells_global.size)
    nEdges = property(lambda self: self.edges_global.size)
    nVertices = property(lambda self: self.vertices_global.size)
    maxEdges = property(lambda self: self.parent.maxEdges)
    radius = property(lambda self: self.parent.radius)

    def rows(self, array: np.ndarray) -> np.ndarray:
        """The held rows of a parent array with ``k`` rows per cell, edge or
        vertex (``k`` and the kind read off its length; 2e + s for ``k = 2``)."""
        sizes = (self.parent.nCells, self.parent.nEdges, self.parent.nVertices)
        held = (self.cells_global, self.edges_global, self.vertices_global)
        k, i = next((k, i) for k in (1, 2, 3) for i in range(3) if k * sizes[i] == len(array))
        return array.reshape(sizes[i], -1)[held[i]].reshape(-1, *array.shape[1:])

    @functools.cached_property
    def local_ids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global -> local id of every cell, edge and vertex (-1: not held)."""
        held = (self.cells_global, self.edges_global, self.vertices_global)
        sizes = (self.parent.nCells, self.parent.nEdges, self.parent.nVertices)
        maps = tuple(np.full(n, -1, dtype=np.int64) for n in sizes)
        for g2l, points in zip(maps, held):
            g2l[points] = np.arange(points.size)
        return maps

    @functools.cached_property
    def connectivity(self) -> Connectivity:
        """The parent's connectivity on the held points, in local ids."""
        conn, rows = self.parent.connectivity, self.rows
        cell_g2l, edge_g2l, vertex_g2l = self.local_ids

        # A local edge always touches at least one local cell; a missing second
        # cell (outermost ring) falls back to the present one.
        coe = _remap(rows(conn.cellsOnEdge), cell_g2l, FILL)
        coe = np.where(coe >= 0, coe, coe[:, ::-1])
        if np.any(coe < 0):
            raise AssertionError("local edge with no local cell")

        # Missing cells / edges of a vertex fall back to its first local one.
        cov = _remap(rows(conn.cellsOnVertex), cell_g2l, FILL)
        first_local = np.max(cov, axis=1)  # at least one is local (>= 0)
        if np.any(first_local < 0):
            raise AssertionError("local vertex with no local cell")
        cov = np.where(cov >= 0, cov, first_local[:, None])
        eov = _remap(rows(conn.edgesOnVertex), edge_g2l, FILL)
        eov = np.where(eov >= 0, eov, np.max(eov, axis=1)[:, None])

        return Connectivity(
            n_cells=self.nCells,
            n_edges=self.nEdges,
            n_vertices=self.nVertices,
            max_edges=conn.max_edges,
            nEdgesOnCell=rows(conn.nEdgesOnCell),
            verticesOnCell=_remap(rows(conn.verticesOnCell), vertex_g2l, 0),
            edgesOnCell=_remap(rows(conn.edgesOnCell), edge_g2l, 0),
            cellsOnCell=_remap(
                rows(conn.cellsOnCell), cell_g2l, np.arange(self.nCells)[:, None]
            ),
            cellsOnEdge=coe,
            verticesOnEdge=_remap(rows(conn.verticesOnEdge), vertex_g2l, 0),
            cellsOnVertex=cov,
            edgesOnVertex=eov,
            edgeSignOnCell=rows(conn.edgeSignOnCell),
            edgeSignOnVertex=rows(conn.edgeSignOnVertex),
        )

    @functools.cached_property
    def metrics(self) -> Metrics:
        """The parent's metric fields on the held points."""
        met = self.parent.metrics
        names = (f.name for f in dataclasses.fields(Metrics) if f.name != "radius")
        return Metrics(radius=met.radius, **{n: self.rows(getattr(met, n)) for n in names})

    @functools.cached_property
    def trisk(self) -> TriskWeights:
        """The parent's TRiSK weights on the held edges, in local ids."""
        tri, loc = self.parent.trisk, np.arange(self.nEdges)[:, None]
        eoe = _remap(self.rows(tri.edgesOnEdge), self.local_ids[1], loc)
        return TriskWeights(self.rows(tri.nEdgesOnEdge), eoe, self.rows(tri.weightsOnEdge))


def _remap(table: np.ndarray, g2l: np.ndarray, fallback) -> np.ndarray:
    """Remap a global index table to local ids, FILL-preserving; ``fallback``
    (broadcastable to ``table``'s shape) substitutes out-of-partition
    references: a valid local id, or ``FILL`` for the caller to patch."""
    out = np.where(table >= 0, g2l[np.clip(table, 0, None)], FILL)
    missing = (table >= 0) & (out < 0)
    if np.any(missing):
        out = np.where(missing, np.broadcast_to(fallback, table.shape), out)
    return out


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
    """``rank``'s :class:`LocalMesh`: the points :func:`local_index_plan`
    gives it, over ``mesh``."""
    return LocalMesh(parent=mesh, **vars(local_index_plan(mesh, owner, rank, halo_layers)))


_DECOMPOSITIONS: "weakref.WeakKeyDictionary[Mesh, dict]" = weakref.WeakKeyDictionary()


def decompose(
    mesh: Mesh, n_ranks: int, halo_layers: int
) -> tuple[np.ndarray, tuple[LocalIndexPlan, ...]]:
    """``mesh``'s cell owners for ``n_ranks`` ranks and every rank's index plan,
    computed once per ``(mesh, n_ranks, halo_layers)`` and kept, read
    only, while the mesh lives (the pool and the lockstep runner share them).
    A decomposition that raises (a rank owning no cells) is not kept."""
    memo = _DECOMPOSITIONS.setdefault(mesh, {})
    key = (n_ranks, halo_layers)
    if key not in memo:
        owner = partition_cells(mesh, n_ranks)
        plans = tuple(local_index_plan(mesh, owner, r, halo_layers) for r in range(n_ranks))
        # Each cell and edge has exactly one owner, so a gather writes every
        # global point once and needs no fill value to detect a gap.
        for n, owned in (
            (mesh.nCells, [p.cells_global[: p.n_owned_cells] for p in plans]),
            (mesh.nEdges, [p.edges_global[: p.n_owned_edges] for p in plans]),
        ):
            if not np.array_equal(np.sort(np.concatenate(owned)), np.arange(n)):
                raise AssertionError("ownership does not cover the mesh")
        for array in (owner, *(a for p in plans for a in vars(p).values())):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        memo[key] = owner, plans
    return memo[key]
