"""The ``enforce_boundary_edge`` kernel (Algorithm 1, line 4).

Zeroes the momentum tendency on boundary edges.  Global spherical meshes are
closed, so the default mask is empty and the kernel is a (cheap) no-op — but
it is kept as a first-class kernel for fidelity with Algorithm 1 and to
support limited-area masks, which MPAS carries through the same code path.
"""

from __future__ import annotations

import numpy as np

from ..obs.instrument import pattern_span

__all__ = ["enforce_boundary_edge"]


def enforce_boundary_edge(tend_u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero ``tend_u`` on masked edges, in place; returns ``tend_u``."""
    with pattern_span("X1", n_points=tend_u.size):
        if mask.any():
            tend_u[mask] = 0.0
    return tend_u
