"""Irregular-reduction refactorings (Algorithms 2-4 of the paper); the
literal loops of the three algorithms are the test oracles of
``tests/oracles/reduction.py``."""

from .branchfree import build_label_matrix, gather_label_matrix
from .irregular import scatter_add_signed
from .planner import (
    divergence_gather_vectorized,
    divergence_scatter_vectorized,
)

__all__ = [
    "build_label_matrix",
    "gather_label_matrix",
    "scatter_add_signed",
    "divergence_gather_vectorized",
    "divergence_scatter_vectorized",
]
