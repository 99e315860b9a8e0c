"""The eight stencil patterns (Figure 3) and local computations of the model.

Section III-A of the paper finds that *every* computation in the RK loop is
either (a) a local computation on one point type or (b) one of eight stencil
patterns mapping between point types of the C-grid.  With three point types
there are nine directed (output <- input) adjacency relations; the shallow
water model uses eight of them (edge <- edge appears through the wide TRiSK
neighbourhood rather than trivial self-maps):

====== ================== ===========================================
kind   output <- input     archetype in the model
====== ================== ===========================================
A      cell <- edges       tend_h, ke, divergence, velocity reconstruction
B      edge <- edges       nonlinear Coriolis term, tangential velocity
C      cell <- cells       d2fdx2 second-derivative stencils (high-order h_edge)
D      edge <- cells       h_edge average, Bernoulli-function gradient
E      vertex <- cells     h_vertex (kite-weighted), pv_vertex
F      cell <- vertices    pv_cell
G      edge <- vertices    pv_edge (incl. APVM upwinding)
H      vertex <- edges     vorticity (circulation)
====== ================== ===========================================

Each :class:`StencilPattern` also carries an abstract cost signature (flops
and bytes per output point) used by the machine model; the numbers are
operation counts of the actual kernels in :mod:`repro.swm.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .points import PointType

__all__ = ["PatternKind", "StencilPattern", "STENCIL_PATTERNS"]


class PatternKind(Enum):
    """The eight stencil shapes of Figure 3, named A-H."""

    A = ("A", PointType.CELL, PointType.EDGE)
    B = ("B", PointType.EDGE, PointType.EDGE)
    C = ("C", PointType.CELL, PointType.CELL)
    D = ("D", PointType.EDGE, PointType.CELL)
    E = ("E", PointType.VERTEX, PointType.CELL)
    F = ("F", PointType.CELL, PointType.VERTEX)
    G = ("G", PointType.EDGE, PointType.VERTEX)
    H = ("H", PointType.VERTEX, PointType.EDGE)

    def __init__(self, letter: str, output: PointType, input_: PointType) -> None:
        self.letter = letter
        self.output = output
        self.input = input_

    @classmethod
    def from_types(cls, output: PointType, input_: PointType) -> "PatternKind":
        """Classify a stencil by its (output, input) point types."""
        for kind in cls:
            if kind.output is output and kind.input is input_:
                return kind
        raise ValueError(f"no stencil pattern maps {input_} -> {output}")


@dataclass(frozen=True)
class StencilPattern:
    """One of the eight abstract stencil shapes, with its fan-in and reach.

    Attributes
    ----------
    kind : PatternKind
    fan_in : int
        Typical number of input points per output point (hexagon-dominant
        mesh averages; e.g. 6 edges per cell, 10 TRiSK neighbours per edge).
    halo_depth : int
        How many cell layers of remote data the stencil can reach — drives
        the halo-exchange requirements of the distributed runs.
    """

    kind: PatternKind
    fan_in: int
    halo_depth: int

    @property
    def letter(self) -> str:
        return self.kind.letter

    @property
    def output(self) -> PointType:
        return self.kind.output

    @property
    def input(self) -> PointType:
        return self.kind.input


#: Canonical geometry of the eight patterns on a hexagon-dominant mesh.
STENCIL_PATTERNS: dict[PatternKind, StencilPattern] = {
    PatternKind.A: StencilPattern(PatternKind.A, fan_in=6, halo_depth=1),
    PatternKind.B: StencilPattern(PatternKind.B, fan_in=10, halo_depth=1),
    PatternKind.C: StencilPattern(PatternKind.C, fan_in=7, halo_depth=1),
    PatternKind.D: StencilPattern(PatternKind.D, fan_in=2, halo_depth=1),
    PatternKind.E: StencilPattern(PatternKind.E, fan_in=3, halo_depth=1),
    PatternKind.F: StencilPattern(PatternKind.F, fan_in=6, halo_depth=1),
    PatternKind.G: StencilPattern(PatternKind.G, fan_in=2, halo_depth=1),
    PatternKind.H: StencilPattern(PatternKind.H, fan_in=3, halo_depth=1),
}
