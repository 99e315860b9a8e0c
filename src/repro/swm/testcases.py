"""Williamson et al. (1992) standard shallow-water test cases.

The paper validates with "a number of test cases [22]" and reports test case
five (zonal flow over an isolated mountain) in Figure 5.  We implement:

* **TC2** — global steady-state nonlinear zonal geostrophic flow.  Has an
  exact solution (the initial state), so it measures the discretization
  error directly.
* **TC5** — zonal flow over an isolated mountain; the Figure 5 workload.
  No analytic solution; used for conservation and cross-implementation
  comparisons.
* **TC6** — Rossby–Haurwitz wave (wavenumber 4).

All cases use the unrotated configuration (``alpha = 0``), like the paper.
Velocity fields are produced both as 3D vectors (for initializing edge
normal components) and as zonal/meridional components (for validating
``mpas_reconstruct``).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..constants import EARTH_RADIUS, GRAVITY, OMEGA, SECONDS_PER_DAY
from ..mesh.mesh import Mesh
from .state import State

__all__ = [
    "TestCase",
    "cosine_bell",
    "steady_zonal_flow",
    "isolated_mountain",
    "rossby_haurwitz",
    "dam_break",
    "flow_over_ridge",
    "TEST_CASES",
    "initialize",
    "coriolis_at_vertices",
]


@dataclass(frozen=True, eq=False)
class TestCase:
    """A fully-specified initial-value problem on the sphere.

    Attributes
    ----------
    name, number : str, int
        Williamson catalogue identification.
    velocity : callable (points (n,3) unit vectors) -> (n,3) velocity vectors
    thickness : callable (points) -> (n,) fluid thickness h (not h + b)
    topography : callable (points) -> (n,) bottom height b
    exact_thickness : same signature as ``thickness`` or None
        Time-independent exact solution, when one exists (TC2).
    suggested_days : float
        Standard integration length for reporting.
    coriolis : callable (points) -> (n,) or None
        Case-specific Coriolis parameter (the rotated-orientation cases
        redefine ``f`` in the flow-aligned frame, per Williamson et al.);
        ``None`` uses the standard ``2 * Omega * sin(lat)``.
    """

    name: str
    number: int
    velocity: Callable[[np.ndarray], np.ndarray]
    thickness: Callable[[np.ndarray], np.ndarray]
    topography: Callable[[np.ndarray], np.ndarray]
    exact_thickness: Callable[[np.ndarray], np.ndarray] | None
    suggested_days: float
    coriolis: Callable[[np.ndarray], np.ndarray] | None = None


def _lonlat(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    from ..geometry.sphere import xyz_to_lonlat

    return xyz_to_lonlat(points)


def _rotation_axis(alpha: float) -> np.ndarray:
    """Axis of the solid-body flow for the Williamson orientation ``alpha``.

    ``alpha = 0`` is the standard eastward zonal flow (axis = north pole);
    ``alpha = pi/2`` sends the flow over both geographic poles, the classic
    stress test for polar treatment (trivial on an SCVT, which has no pole
    singularity — but the battery includes it for completeness).
    """
    return np.array([-np.sin(alpha), 0.0, np.cos(alpha)])


def _zonal_velocity_vector(
    points: np.ndarray, u0: float, alpha: float = 0.0
) -> np.ndarray:
    """Solid-body flow ``u0 * (axis x r)`` for the orientation ``alpha``."""
    points = np.asarray(points, dtype=np.float64)
    return u0 * np.cross(_rotation_axis(alpha), points)


def _geostrophic_thickness(
    points: np.ndarray,
    u0: float,
    gh0: float,
    radius: float,
    omega: float,
    g: float,
    alpha: float = 0.0,
) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    # sin(lat') in the flow-aligned frame; for alpha = 0 this is sin(lat).
    sin_lat_rot = points @ _rotation_axis(alpha)
    gh = gh0 - (radius * omega * u0 + 0.5 * u0 * u0) * sin_lat_rot**2
    return gh / g


def cosine_bell(
    radius: float = EARTH_RADIUS,
    base_thickness: float = 1000.0,
) -> TestCase:
    """Williamson TC1: advection of a cosine bell by solid-body rotation.

    Integrated with ``SWConfig(advection_only=True)`` (the wind is frozen):
    after exactly one revolution (12 days) the bell returns to its starting
    point, so the initial condition doubles as the exact solution at that
    time.  A uniform ``base_thickness`` is added beneath the standard
    1000 m bell so every thickness-derived diagnostic stays positive; the
    advective dynamics are unaffected (the flow is non-divergent).
    """
    u0 = 2.0 * np.pi * radius / (12.0 * SECONDS_PER_DAY)
    h0 = 1000.0
    r_bell = radius / 3.0
    lon_c, lat_c = 1.5 * np.pi, 0.0
    from ..geometry.sphere import arc_length, lonlat_to_xyz

    centre = lonlat_to_xyz(np.array(lon_c), np.array(lat_c))

    def thickness(points: np.ndarray) -> np.ndarray:
        r = radius * arc_length(np.asarray(points, dtype=np.float64), centre)
        bell = np.where(
            r < r_bell, 0.5 * h0 * (1.0 + np.cos(np.pi * r / r_bell)), 0.0
        )
        return base_thickness + bell

    def topography(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(points).shape[0])

    return TestCase(
        name="cosine_bell",
        number=1,
        velocity=lambda p: _zonal_velocity_vector(p, u0),
        thickness=thickness,
        topography=topography,
        exact_thickness=thickness,  # valid after whole revolutions
        suggested_days=12.0,
    )


def steady_zonal_flow(
    radius: float = EARTH_RADIUS,
    omega: float = OMEGA,
    g: float = GRAVITY,
    alpha: float = 0.0,
) -> TestCase:
    """Williamson TC2: steady nonlinear zonal geostrophic flow.

    ``alpha`` is the standard flow-orientation parameter: the rotation axis
    of the flow is tilted by ``alpha`` from the planetary axis, and the
    Coriolis parameter is redefined in the flow frame
    (``f = 2 Omega sin(lat')``) so the flow remains an exact steady state —
    exactly as specified by Williamson et al. (1992).
    """
    u0 = 2.0 * np.pi * radius / (12.0 * SECONDS_PER_DAY)
    gh0 = 2.94e4
    axis = _rotation_axis(alpha)

    def thickness(points: np.ndarray) -> np.ndarray:
        return _geostrophic_thickness(points, u0, gh0, radius, omega, g, alpha)

    def topography(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(points).shape[0])

    coriolis = None
    if alpha != 0.0:
        def coriolis(points: np.ndarray) -> np.ndarray:
            return 2.0 * omega * (np.asarray(points, dtype=np.float64) @ axis)

    return TestCase(
        name="steady_zonal_flow" if alpha == 0.0 else f"steady_zonal_flow_a{alpha:.2f}",
        number=2,
        velocity=lambda p: _zonal_velocity_vector(p, u0, alpha),
        thickness=thickness,
        topography=topography,
        exact_thickness=thickness,
        suggested_days=5.0,
        coriolis=coriolis,
    )


def isolated_mountain(
    radius: float = EARTH_RADIUS, omega: float = OMEGA, g: float = GRAVITY
) -> TestCase:
    """Williamson TC5: zonal flow over an isolated mountain (Figure 5)."""
    u0 = 20.0
    h0 = 5960.0
    b0 = 2000.0
    r_m = np.pi / 9.0
    lon_c = 1.5 * np.pi
    lat_c = np.pi / 6.0

    def topography(points: np.ndarray) -> np.ndarray:
        lon, lat = _lonlat(points)
        # Conical mountain in (lon, lat) metric, as specified by Williamson.
        r = np.sqrt(
            np.minimum(r_m**2, (lon - lon_c) ** 2 + (lat - lat_c) ** 2)
        )
        return b0 * (1.0 - r / r_m)

    def thickness(points: np.ndarray) -> np.ndarray:
        surface = _geostrophic_thickness(points, u0, g * h0, radius, omega, g)
        return surface - topography(points)

    return TestCase(
        name="isolated_mountain",
        number=5,
        velocity=lambda p: _zonal_velocity_vector(p, u0),
        thickness=thickness,
        topography=topography,
        exact_thickness=None,
        suggested_days=15.0,
    )


def rossby_haurwitz(
    radius: float = EARTH_RADIUS, omega: float = OMEGA, g: float = GRAVITY
) -> TestCase:
    """Williamson TC6: Rossby–Haurwitz wave, zonal wavenumber R = 4."""
    w = 7.848e-6
    K = 7.848e-6
    R = 4.0
    h0 = 8000.0

    def velocity(points: np.ndarray) -> np.ndarray:
        lon, lat = _lonlat(points)
        cos_lat = np.cos(lat)
        u_zonal = radius * w * cos_lat + radius * K * cos_lat ** (R - 1.0) * (
            R * np.sin(lat) ** 2 - cos_lat**2
        ) * np.cos(R * lon)
        v_merid = -radius * K * R * cos_lat ** (R - 1.0) * np.sin(lat) * np.sin(R * lon)
        from ..geometry.sphere import tangent_basis

        east, north = tangent_basis(np.asarray(points, dtype=np.float64))
        return u_zonal[..., None] * east + v_merid[..., None] * north

    def thickness(points: np.ndarray) -> np.ndarray:
        lon, lat = _lonlat(points)
        c = np.cos(lat)
        A = 0.5 * w * (2.0 * omega + w) * c**2 + 0.25 * K**2 * c ** (2.0 * R) * (
            (R + 1.0) * c**2 + (2.0 * R**2 - R - 2.0) - 2.0 * R**2 * c ** (-2.0)
        )
        B = (
            2.0
            * (omega + w)
            * K
            / ((R + 1.0) * (R + 2.0))
            * c**R
            * ((R**2 + 2.0 * R + 2.0) - (R + 1.0) ** 2 * c**2)
        )
        C = 0.25 * K**2 * c ** (2.0 * R) * ((R + 1.0) * c**2 - (R + 2.0))
        gh = g * h0 + radius**2 * (A + B * np.cos(R * lon) + C * np.cos(2.0 * R * lon))
        return gh / g

    def topography(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(points).shape[0])

    return TestCase(
        name="rossby_haurwitz",
        number=6,
        velocity=velocity,
        thickness=thickness,
        topography=topography,
        exact_thickness=None,
        suggested_days=14.0,
    )


def dam_break(
    radius: float = EARTH_RADIUS,
    h_inside: float = 2500.0,
    h_outside: float = 2000.0,
    cap_radius: float = np.pi / 6.0,
) -> TestCase:
    """Dam break on the sphere: a cap of deeper fluid released at rest.

    The discontinuous-initial-condition battery member (the spherical
    analogue of the dam-break validations Delmas & Soulaïmani run for
    their multi-GPU SWE solver): the thickness jumps from ``h_inside`` to
    ``h_outside`` across a spherical cap of angular radius ``cap_radius``
    centred on the equator, the fluid starts at rest, and the collapse
    radiates gravity waves through the jump.  No analytic solution; used
    for conservation checks and shock-adjacent robustness of the
    unfiltered core (the jump is sampled, not smoothed — cells change
    value across one edge).
    """
    lon_c, lat_c = 1.5 * np.pi, 0.0
    from ..geometry.sphere import arc_length, lonlat_to_xyz

    centre = lonlat_to_xyz(np.array(lon_c), np.array(lat_c))

    def thickness(points: np.ndarray) -> np.ndarray:
        r = arc_length(np.asarray(points, dtype=np.float64), centre)
        return np.where(r < cap_radius, h_inside, h_outside)

    def velocity(points: np.ndarray) -> np.ndarray:
        return np.zeros((np.asarray(points).shape[0], 3))

    def topography(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(points).shape[0])

    return TestCase(
        name="dam_break",
        number=9,  # post-Williamson numbering, after the Galewsky jet (8)
        velocity=velocity,
        thickness=thickness,
        topography=topography,
        exact_thickness=None,
        suggested_days=0.25,
    )


def flow_over_ridge(
    radius: float = EARTH_RADIUS,
    omega: float = OMEGA,
    g: float = GRAVITY,
    b0: float = 1500.0,
    lat_r: float = np.pi / 6.0,
    half_width: float = np.pi / 9.0,
) -> TestCase:
    """Zonal flow over a zonally-symmetric mid-latitude ridge.

    The variable-topography battery member beyond TC5: instead of an
    isolated conical mountain, the bottom rises in a smooth
    ``cos^2``-profile ridge of height ``b0`` encircling the sphere at
    latitude ``lat_r`` (half-width ``half_width``).  The initial surface
    is the TC2 geostrophic surface of a 20 m/s zonal flow, so the fluid
    thins over the ridge crest and the flow must negotiate continuous —
    not compactly-supported — topography; exercises the ``grad(h + b)``
    pressure-gradient coupling along every longitude.
    """
    u0 = 20.0
    h0 = 5960.0

    def topography(points: np.ndarray) -> np.ndarray:
        _, lat = _lonlat(points)
        inside = np.abs(lat - lat_r) < half_width
        b = np.zeros(np.asarray(points).shape[0])
        b[inside] = b0 * np.cos(
            0.5 * np.pi * (lat[inside] - lat_r) / half_width
        ) ** 2
        return b

    def thickness(points: np.ndarray) -> np.ndarray:
        surface = _geostrophic_thickness(points, u0, g * h0, radius, omega, g)
        return surface - topography(points)

    return TestCase(
        name="flow_over_ridge",
        number=10,  # post-Williamson numbering
        velocity=lambda p: _zonal_velocity_vector(p, u0),
        thickness=thickness,
        topography=topography,
        exact_thickness=None,
        suggested_days=10.0,
    )


#: Registry by Williamson test-case number.
TEST_CASES: dict[int, Callable[[], TestCase]] = {
    1: cosine_bell,
    2: steady_zonal_flow,
    5: isolated_mountain,
    6: rossby_haurwitz,
}


#: Cases whose discretized IC a mesh keeps (least recently used goes first).
IC_MEMO_SIZE = 4
_IC_MEMO: "weakref.WeakKeyDictionary[Mesh, OrderedDict]" = weakref.WeakKeyDictionary()
_IC_LOCK = threading.Lock()


def initialize(mesh: Mesh, case: TestCase) -> tuple[State, np.ndarray]:
    """Discretize a test case on a mesh.

    Returns
    -------
    state : State
        ``h`` sampled at cell centres, ``u`` as the normal component of the
        analytic velocity at edge points.
    b_cell : (nCells,) array
        Bottom topography at cell centres.

    The discretization is a pure function of the mesh and the case object,
    so it is computed once per ``(mesh, case)`` and kept read only while the
    mesh lives, for the :data:`IC_MEMO_SIZE` cases it last discretized;
    every call returns fresh, writable copies.
    """
    with _IC_LOCK:
        memo = _IC_MEMO.setdefault(mesh, OrderedDict())
        arrays = memo.get(case)
        if arrays is not None:
            memo.move_to_end(case)
    if arrays is None:
        met = mesh.metrics
        h = case.thickness(met.xCell)
        u = np.sum(case.velocity(met.xEdge) * met.edgeNormal, axis=1)
        b = case.topography(met.xCell)
        State(h=h, u=u).validate_shapes(mesh.nCells, mesh.nEdges)
        arrays = tuple(np.array(a) for a in (h, u, b))  # owned copies
        for a in arrays:
            a.flags.writeable = False
        with _IC_LOCK:
            memo[case] = arrays
            while len(memo) > IC_MEMO_SIZE:
                memo.popitem(last=False)
    h, u, b = (a.copy() for a in arrays)
    return State(h=h, u=u), b


def coriolis_at_vertices(mesh: Mesh, case: TestCase, config) -> np.ndarray:
    """The Coriolis parameter at vorticity points: the case's own ``f`` when
    it defines one, else ``config.coriolis`` of the vertex latitudes."""
    if case.coriolis is not None:
        return case.coriolis(mesh.metrics.xVertex)
    return config.coriolis(mesh.metrics.latVertex)
