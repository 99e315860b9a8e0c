"""Deterministic per-member initial conditions for ensemble runs.

Each member perturbs the test case's discretized thickness field with a
relative Gaussian perturbation ``h * (1 + amplitude * xi)``, drawn from an
rng stream seeded by ``[ensemble_seed, member]`` — so member ``k``'s
initial condition depends only on ``(case, mesh, seed, amplitude, k)``,
never on the ensemble width or the execution mode.  The ensemble driver and
the serial reference path both build their ICs through these functions,
which is what makes "member ``k`` of the ensemble equals the same-seed
serial run" hold bitwise from step 0.
"""

from __future__ import annotations

import numpy as np

from ..mesh.mesh import Mesh
from ..swm.state import State
from ..swm.testcases import TestCase, initialize

__all__ = [
    "member_rng",
    "perturbed_thickness",
    "perturbed_member",
    "member_initial_state",
    "ensemble_initial_states",
]


def member_rng(seed: int, member: int) -> np.random.Generator:
    """The rng stream of one ensemble member (independent across members)."""
    return np.random.default_rng([int(seed), int(member)])


def perturbed_thickness(
    h: np.ndarray, rng: np.random.Generator, amplitude: float
) -> np.ndarray:
    """``h * (1 + amplitude * N(0, 1))`` — the relative IC perturbation."""
    return h * (1.0 + amplitude * rng.standard_normal(h.shape))


def perturbed_member(
    base: State, member: int, seed: int, amplitude: float
) -> State:
    """Member ``member``'s initial state from the unperturbed base state."""
    if amplitude == 0.0:
        return base.copy()
    rng = member_rng(seed, member)
    return State(
        h=perturbed_thickness(base.h, rng, amplitude),
        u=base.u.copy(),
    )


def member_initial_state(
    mesh: Mesh, case: TestCase, member: int, seed: int, amplitude: float
) -> tuple[State, np.ndarray]:
    """One member's ``(state, topography)`` — the serial reference entry.

    Bitwise identical to what :func:`ensemble_initial_states` builds for
    the same member (both perturb the same deterministic base IC).
    """
    base, b = initialize(mesh, case)
    return perturbed_member(base, member, seed, amplitude), b


def ensemble_initial_states(
    mesh: Mesh, case: TestCase, n_members: int, seed: int, amplitude: float
) -> tuple[list[State], np.ndarray]:
    """All N member initial states plus the shared topography field."""
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members!r}")
    base, b = initialize(mesh, case)
    states = [perturbed_member(base, k, seed, amplitude) for k in range(n_members)]
    return states, b
