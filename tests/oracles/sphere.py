"""Spherical-geometry helpers that only the tests call."""

from __future__ import annotations

import numpy as np

from repro.geometry.sphere import normalize, spherical_triangle_area


def chord_length(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Straight-line (3D chord) distance between points on the sphere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b, axis=-1)


def arc_midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoint of the minor great-circle arc between ``a`` and ``b``."""
    return normalize(np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for rotation by ``angle`` about ``axis``."""
    axis = normalize(np.asarray(axis, dtype=np.float64))
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def rotate(points: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate points about ``axis`` by ``angle`` (right-hand rule)."""
    mat = rotation_matrix(axis, angle)
    return np.asarray(points, dtype=np.float64) @ mat.T


def is_ccw(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """True where the triangle ``(a, b, c)`` winds CCW seen from outside."""
    return spherical_triangle_area(a, b, c) > 0.0
