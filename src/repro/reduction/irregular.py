"""Algorithm 2: the irregular reduction in its original edge-order form.

The paper's example (verbatim, translated to Python):

.. code-block:: fortran

    for iedge = 1 to nEdges do
        cell1 = CellsOnEdge(i,1); cell2 = CellsOnEdge(i,2)
        Y(cell1) = Y(cell1) + X(iedge)
        Y(cell2) = Y(cell2) - X(iedge)

The loop traverses edge data but writes back in cell order — two threads
handling different edges of the same cell race on ``Y``.  This module keeps
its NumPy analogue (:func:`scatter_add_signed` via ``np.add.at``, the
unbuffered scatter); the literal loop is a test oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_add_signed"]


def scatter_add_signed(
    n_cells: int, cells_on_edge: np.ndarray, x_edge: np.ndarray
) -> np.ndarray:
    """Vectorized Algorithm 2: ``np.add.at`` scatter (edge order).

    ``np.add.at`` performs unbuffered in-place addition, which is exactly
    the (correct, but serialization-prone) semantics of an atomic-protected
    OpenMP scatter.
    """
    y = np.zeros(n_cells, dtype=np.float64)
    np.add.at(y, cells_on_edge[:, 0], x_edge)
    np.subtract.at(y, cells_on_edge[:, 1], x_edge)
    return y
