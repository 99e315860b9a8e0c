"""Mesh-facing entry points for the Algorithm 2/3/4 forms.

These wrap the abstract reduction kernels with real mesh connectivity and
the divergence metric factors, giving apples-to-apples implementations of
the same physical operator (flux divergence, scaled): the vectorized
scatter and gather forms Fig. 6 measures.  The literal loops live with the
tests (``tests/oracles/reduction.py``), which assert their equivalence.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..mesh.mesh import Mesh
from .branchfree import build_label_matrix, gather_label_matrix
from .irregular import scatter_add_signed

__all__ = [
    "divergence_scatter_vectorized",
    "divergence_gather_vectorized",
]

_LABELS: "weakref.WeakKeyDictionary[Mesh, tuple[np.ndarray, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def _weighted(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Edge fluxes ``u * dvEdge`` (what the divergence accumulates)."""
    return u_edge * mesh.metrics.dvEdge


def _labels(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    entry = _LABELS.get(mesh)
    if entry is None:
        entry = build_label_matrix(
            mesh.connectivity.cellsOnEdge, mesh.connectivity.edgesOnCell
        )
        _LABELS[mesh] = entry
    return entry


def divergence_scatter_vectorized(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Algorithm 2, ``np.add.at`` scatter."""
    acc = scatter_add_signed(
        mesh.nCells, mesh.connectivity.cellsOnEdge, _weighted(mesh, u_edge)
    )
    return acc / mesh.metrics.areaCell


def divergence_gather_vectorized(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Algorithm 4, fully vectorized (the production form)."""
    label, eoc_safe = _labels(mesh)
    acc = gather_label_matrix(label, eoc_safe, _weighted(mesh, u_edge))
    return acc / mesh.metrics.areaCell
