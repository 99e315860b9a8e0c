"""TRiSK shallow-water dynamical core (the MPAS proxy model of the paper)."""

from .advection import (
    AdvectionCoefficients,
    advection_coefficients,
    d2fdx2_on_edges,
    h_edge_high_order,
)
from .boundary import enforce_boundary_edge
from .config import SWConfig
from .diagnostics import compute_solve_diagnostics
from .galewsky import galewsky_jet
from .error import ErrorNorms, Invariants, error_norms, invariants
from .model import RunResult, ShallowWaterModel, suggested_dt
from .output import History, HistoryWriter, load_history
from .reconstruct import mpas_reconstruct, reconstruction_matrices
from .state import Diagnostics, Reconstruction, State
from .tendencies import compute_tend
from .scenarios import (
    SCENARIOS,
    Scenario,
    perturbed_case,
)
from .testcases import (
    TEST_CASES,
    TestCase,
    cosine_bell,
    dam_break,
    flow_over_ridge,
    initialize,
    isolated_mountain,
    rossby_haurwitz,
    steady_zonal_flow,
)
from .timestep import (
    RK4Integrator,
    RK_ACCUMULATE_WEIGHTS,
    RK_SUBSTEP_WEIGHTS,
    StepResult,
)

__all__ = [
    "AdvectionCoefficients",
    "advection_coefficients",
    "d2fdx2_on_edges",
    "h_edge_high_order",
    "enforce_boundary_edge",
    "SWConfig",
    "compute_solve_diagnostics",
    "galewsky_jet",
    "ErrorNorms",
    "Invariants",
    "error_norms",
    "invariants",
    "RunResult",
    "ShallowWaterModel",
    "suggested_dt",
    "History",
    "HistoryWriter",
    "load_history",
    "mpas_reconstruct",
    "reconstruction_matrices",
    "Diagnostics",
    "Reconstruction",
    "State",
    "compute_tend",
    "SCENARIOS",
    "Scenario",
    "perturbed_case",
    "TEST_CASES",
    "TestCase",
    "cosine_bell",
    "dam_break",
    "flow_over_ridge",
    "initialize",
    "isolated_mountain",
    "rossby_haurwitz",
    "steady_zonal_flow",
    "RK4Integrator",
    "RK_ACCUMULATE_WEIGHTS",
    "RK_SUBSTEP_WEIGHTS",
    "StepResult",
]
