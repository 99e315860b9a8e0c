"""Galewsky, Scott & Polvani (2004) barotropic-instability test case.

A modern complement to the Williamson battery: a balanced mid-latitude zonal
jet that is steady when unperturbed, plus an optional localized height bump
that triggers barotropic instability and rolls the jet up into vortices
within ~6 days.  Exercises the full nonlinear dynamics (sharp gradients,
vorticity filamentation) far harder than TC2/TC5.

The balanced height field has no closed form; it is obtained by integrating
the zonal-balance relation

    g dh/dphi = -a u(phi) (f(phi) + tan(phi) u(phi) / a)

on a fine latitude grid (trapezoidal rule), shifted so the global-mean layer
depth equals 10 km, and interpolated to the mesh points — exactly the
procedure of the original paper.
"""

from __future__ import annotations

import functools

import numpy as np

from ..constants import EARTH_RADIUS, GRAVITY, OMEGA
from .testcases import TestCase

__all__ = ["galewsky_jet"]

#: Jet parameters from Galewsky et al. (2004).
PHI0 = np.pi / 7.0
PHI1 = np.pi / 2.0 - PHI0
U_MAX = 80.0
MEAN_DEPTH = 10_000.0

#: Perturbation parameters.
H_HAT = 120.0
ALPHA = 1.0 / 3.0
BETA = 1.0 / 15.0
PHI2 = np.pi / 4.0


def _jet_profile(lat: np.ndarray) -> np.ndarray:
    """Zonal wind u(phi): exponentially confined to (PHI0, PHI1)."""
    lat = np.asarray(lat, dtype=np.float64)
    en = np.exp(-4.0 / (PHI1 - PHI0) ** 2)
    inside = (lat > PHI0) & (lat < PHI1)
    u = np.zeros_like(lat)
    denom = (lat[inside] - PHI0) * (lat[inside] - PHI1)
    u[inside] = (U_MAX / en) * np.exp(1.0 / denom)
    return u


@functools.lru_cache(maxsize=8)
def _balanced_depth_table(
    radius: float, omega: float, g: float, n: int = 20001
) -> tuple[np.ndarray, np.ndarray]:
    """(lat grid, balanced h) by integrating the gradient relation.

    A pure function of its arguments, memoized (each case build, and
    ``api.run`` builds one twice, would pay the 20,001-point quadrature
    again); the arrays are read-only because every caller shares them."""
    lat = np.linspace(-np.pi / 2.0, np.pi / 2.0, n)
    u = _jet_profile(lat)
    f = 2.0 * omega * np.sin(lat)
    integrand = -radius * u * (f + np.tan(lat) * u / radius) / g
    # np.trapezoid cumulative: manual cumulative trapezoid.
    dlat = np.diff(lat)
    increments = 0.5 * (integrand[1:] + integrand[:-1]) * dlat
    h = np.concatenate([[0.0], np.cumsum(increments)])
    # Shift so the area-weighted global mean is MEAN_DEPTH.
    weights = np.cos(lat)
    mean = np.sum(h * weights) / np.sum(weights)
    h = h - mean + MEAN_DEPTH
    lat.flags.writeable = h.flags.writeable = False
    return lat, h


def galewsky_jet(
    perturbed: bool = True,
    radius: float = EARTH_RADIUS,
    omega: float = OMEGA,
    g: float = GRAVITY,
) -> TestCase:
    """The Galewsky et al. jet, optionally with the instability trigger.

    ``perturbed=False`` gives the balanced steady jet (a much harder steady
    state than TC2: the wind has near-discontinuous derivatives at the jet
    edges).  ``perturbed=True`` adds the Gaussian height bump that seeds the
    barotropic instability.
    """
    from ..geometry.sphere import tangent_basis, xyz_to_lonlat

    lat_grid, h_grid = _balanced_depth_table(radius, omega, g)

    def thickness(points: np.ndarray) -> np.ndarray:
        lon, lat = xyz_to_lonlat(np.asarray(points, dtype=np.float64))
        h = np.interp(lat, lat_grid, h_grid)
        if perturbed:
            lon_c = np.where(lon > np.pi, lon - 2.0 * np.pi, lon)  # (-pi, pi]
            h = h + H_HAT * np.cos(lat) * np.exp(-((lon_c / ALPHA) ** 2)) * np.exp(
                -(((PHI2 - lat) / BETA) ** 2)
            )
        return h

    def velocity(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        _, lat = xyz_to_lonlat(points)
        east, _ = tangent_basis(points)
        return _jet_profile(lat)[..., None] * east

    def topography(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(points).shape[0])

    return TestCase(
        name="galewsky_jet" if perturbed else "galewsky_jet_balanced",
        number=8,  # conventional "post-Williamson" numbering
        velocity=velocity,
        thickness=thickness,
        topography=topography,
        exact_thickness=None if perturbed else thickness,
        suggested_days=6.0,
    )
