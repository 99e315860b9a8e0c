"""Pattern taxonomy of the shallow-water model (Figure 3 / Table I)."""

from .catalog import KERNELS, PatternInstance, build_catalog, instances_by_kernel
from .classify import VARIABLE_POINTS, classify, point_of
from .pattern import STENCIL_PATTERNS, PatternKind, StencilPattern
from .points import PointType

__all__ = [
    "KERNELS",
    "PatternInstance",
    "build_catalog",
    "instances_by_kernel",
    "VARIABLE_POINTS",
    "classify",
    "point_of",
    "STENCIL_PATTERNS",
    "PatternKind",
    "StencilPattern",
    "PointType",
]
