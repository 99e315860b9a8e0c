"""Algorithm 4: branch-free loop refactoring with a label matrix.

Section IV-D: to vectorize the refactored loop, the conditional is replaced
by a precomputed label matrix

.. code-block:: text

    L(i, j) = +1  if i == CellsOnEdge(EdgesOnCell(i, j), 1)
              -1  otherwise

so the inner loop becomes ``Y(i) += L(i,j) * X(EdgesOnCell(i,j))`` — no
branches, SIMD-friendly.  We extend the matrix with ``L = 0`` on the padded
lanes of short (pentagon) rows, which also removes the ragged-loop bound;
this is precisely the form all production kernels of :mod:`repro.swm` use
(their label matrices additionally fold in metric factors like ``dvEdge``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_label_matrix", "gather_label_matrix"]


def build_label_matrix(
    cells_on_edge: np.ndarray,
    edges_on_cell: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Label matrix ``L`` and 0-safe gather indices for Algorithm 4.

    Returns
    -------
    label : (nCells, maxEdges) float array
        ``+1`` / ``-1`` per the sign convention, ``0`` on padded lanes.
    eoc_safe : (nCells, maxEdges) int array
        ``edges_on_cell`` with padding clamped to a valid index (0).
    """
    valid = edges_on_cell >= 0
    eoc_safe = np.where(valid, edges_on_cell, 0)
    own_cell = np.arange(edges_on_cell.shape[0])[:, None]
    label = np.where(cells_on_edge[eoc_safe, 0] == own_cell, 1.0, -1.0)
    return np.where(valid, label, 0.0), eoc_safe


def gather_label_matrix(
    label: np.ndarray, eoc_safe: np.ndarray, x_edge: np.ndarray
) -> np.ndarray:
    """Fully vectorized Algorithm 4: one fancy gather + row reduction."""
    return np.sum(label * x_edge[eoc_safe], axis=1)
