"""Irregular-reduction refactorings (Algorithms 2-4 of the paper)."""

from .branchfree import (
    branch_free_reduction_loop,
    build_label_matrix,
    gather_label_matrix,
)
from .irregular import irregular_reduction_loop, scatter_add_signed
from .planner import (
    divergence_gather_vectorized,
    divergence_scatter_vectorized,
)
from .refactored import refactored_reduction_loop

__all__ = [
    "branch_free_reduction_loop",
    "build_label_matrix",
    "gather_label_matrix",
    "irregular_reduction_loop",
    "scatter_add_signed",
    "divergence_gather_vectorized",
    "divergence_scatter_vectorized",
    "refactored_reduction_loop",
]
