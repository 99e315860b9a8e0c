"""Tests of the variable-resolution (multiresolution) SCVT extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.geometry import (
    arc_length,
    icosahedral_points,
    lonlat_to_xyz,
)
from repro.mesh import Mesh
from tests.oracles.density import radial_refinement, weighted_lloyd_relax

CENTRE = (np.pi, 0.5)


@pytest.fixture(scope="module")
def refined_mesh():
    rho = radial_refinement(
        CENTRE, inner_radius=0.5, transition_width=0.2, amplification=16.0
    )
    result = weighted_lloyd_relax(icosahedral_points(3), rho, iterations=40)
    mesh = Mesh.from_points(result.points, name="refined642")
    return mesh


class TestDensityFunction:
    def test_radial_profile(self):
        rho = radial_refinement(CENTRE, 0.5, 0.1, amplification=9.0)
        centre = lonlat_to_xyz(np.array(CENTRE[0]), np.array(CENTRE[1]))
        antipode = -centre
        assert rho(centre[None, :])[0] == pytest.approx(9.0, rel=0.01)
        assert rho(antipode[None, :])[0] == pytest.approx(1.0, rel=0.01)

    def test_monotone_decay(self):
        rho = radial_refinement(CENTRE, 0.5, 0.2, amplification=4.0)
        centre = lonlat_to_xyz(np.array(CENTRE[0]), np.array(CENTRE[1]))
        # Sample along a meridian away from the centre.
        from tests.oracles.sphere import rotate

        pts = np.stack([rotate(centre, [0.0, 0.0, 1.0], a) for a in np.linspace(0, 2, 15)])
        values = rho(pts)
        assert np.all(np.diff(values) <= 1e-9)


class TestWeightedLloyd:
    def test_uniform_density_matches_plain_lloyd(self):
        from repro.geometry import lloyd_relax

        pts = icosahedral_points(2)
        plain = lloyd_relax(pts, iterations=3).points
        weighted = weighted_lloyd_relax(pts, lambda p: np.ones(p.shape[0]), iterations=3).points
        # One-point quadrature vs exact fan centroids agree closely for
        # uniform density.
        assert np.max(np.linalg.norm(plain - weighted, axis=1)) < 5e-3

    def test_displacement_history(self):
        rho = radial_refinement(CENTRE, 0.5, 0.2, 4.0)
        res = weighted_lloyd_relax(icosahedral_points(2), rho, iterations=5)
        assert len(res.displacement_history) == 5
        assert res.displacement_history[-1] < res.displacement_history[0]


class TestRefinedMesh:
    def test_valid_c_grid(self, refined_mesh):
        refined_mesh.validate()
        assert refined_mesh.nCells == 642

    def test_resolution_gradient(self, refined_mesh):
        centre = lonlat_to_xyz(np.array(CENTRE[0]), np.array(CENTRE[1]))
        d = arc_length(refined_mesh.xCell, centre)
        near = refined_mesh.areaCell[d < 0.3].mean()
        far = refined_mesh.areaCell[d > 1.5].mean()
        # 40 Lloyd sweeps reach a clear (if not yet equilibrium) grading.
        assert far / near > 1.25

    def test_model_runs_stably(self, refined_mesh):
        from repro.swm import (
            ShallowWaterModel,
            SWConfig,
            steady_zonal_flow,
            suggested_dt,
        )

        case = steady_zonal_flow()
        dt = suggested_dt(refined_mesh, case, GRAVITY, cfl=0.5)
        model = ShallowWaterModel(refined_mesh, SWConfig(dt=dt))
        model.initialize(case)
        res = model.run(days=1.0, invariant_interval=10)
        assert res.mass_drift() < 1e-13
        assert model.exact_error().l2 < 5e-3

    def test_patterns_resolution_agnostic(self, refined_mesh, rng):
        """The pattern kernels run unchanged on the graded mesh and keep
        their invariants (the paper's machinery is mesh-general)."""
        from repro.swm.operators import cell_divergence, coriolis_edge_term

        u = rng.standard_normal(refined_mesh.nEdges)
        div = cell_divergence(refined_mesh, u)
        total = np.sum(div * refined_mesh.areaCell)
        assert abs(total) < 1e-11 * np.sum(np.abs(u) * refined_mesh.dvEdge)

        h_edge = rng.uniform(0.5, 2.0, refined_mesh.nEdges)
        q = rng.standard_normal(refined_mesh.nEdges)
        term = coriolis_edge_term(refined_mesh, u, h_edge, q)
        work = np.sum(u * h_edge * term * refined_mesh.dcEdge * refined_mesh.dvEdge)
        scale = np.sum((u * h_edge) ** 2 * refined_mesh.dcEdge * refined_mesh.dvEdge)
        assert abs(work) < 1e-10 * scale
