"""The Algorithm 2 access pattern as a loop: the "original code" baseline of
the Fig. 6 optimization ladder.

A direct Python transcription of the MPAS Fortran edge loop that the paper
highlights as race-prone under multithreading, deliberately unoptimized.
The loop references of the other operators, which only the tests run, are
in ``tests/oracles/reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..mesh.mesh import Mesh

__all__ = ["cell_divergence_scatter"]


def cell_divergence_scatter(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Edge-order scatter divergence — the Algorithm 2 access pattern.

    Traverses edges and accumulates into the two adjacent cells with opposite
    signs; the normal points from cell0 to cell1, so it is an outflow for
    cell0 (+) and an inflow for cell1 (-).
    """
    conn, met = mesh.connectivity, mesh.metrics
    out = np.zeros(conn.n_cells, dtype=np.float64)
    for e in range(conn.n_edges):
        c0 = conn.cellsOnEdge[e, 0]
        c1 = conn.cellsOnEdge[e, 1]
        flux = u_edge[e] * met.dvEdge[e]
        out[c0] += flux
        out[c1] -= flux
    return out / met.areaCell
