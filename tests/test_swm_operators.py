"""Unit tests of the discrete TRiSK operators.

Covers (a) equivalence of the vectorized gather kernels with the literal
loop references (the Algorithm 2/3 correspondence), and (b) the discrete
vector-calculus identities of the C-grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles import reference as ref
from repro.swm.operators import (
    cell_divergence,
    cell_from_vertices_kite,
    cell_kinetic_energy,
    cell_to_edge_mean,
    coriolis_edge_term,
    edge_gradient_of_cell,
    edge_gradient_of_vertex,
    flux_divergence,
    plan_for,
    tangential_velocity,
    vertex_curl,
    vertex_from_cells_kite,
    vertex_to_edge_mean,
)


class TestLoopEquivalence:
    """Vectorized gathers == literal loops (same summation order, bitwise)."""

    def test_divergence(self, mesh3, edge_field):
        a = cell_divergence(mesh3, edge_field)
        b = ref.cell_divergence_loop(mesh3, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_divergence_scatter_roundoff(self, mesh3, edge_field):
        a = cell_divergence(mesh3, edge_field)
        b = ref.cell_divergence_scatter(mesh3, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-18)

    def test_curl(self, mesh3, edge_field):
        a = vertex_curl(mesh3, edge_field)
        b = ref.vertex_curl_loop(mesh3, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_kinetic_energy(self, mesh3, edge_field):
        a = cell_kinetic_energy(mesh3, edge_field)
        b = ref.cell_kinetic_energy_loop(mesh3, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_tangential(self, mesh3, edge_field):
        a = tangential_velocity(mesh3, edge_field)
        b = ref.tangential_velocity_loop(mesh3, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_vertex_kite(self, mesh3, cell_field):
        a = vertex_from_cells_kite(mesh3, cell_field)
        b = ref.vertex_from_cells_kite_loop(mesh3, cell_field)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_cell_kite(self, mesh3, vertex_field):
        a = cell_from_vertices_kite(mesh3, vertex_field)
        b = ref.cell_from_vertices_kite_loop(mesh3, vertex_field)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class TestDiscreteIdentities:
    def test_curl_of_gradient_vanishes(self, mesh3, cell_field):
        """The discrete curl of a discrete cell gradient telescopes to 0."""
        grad = edge_gradient_of_cell(mesh3, cell_field)
        # The circulation sums (phi(c1)-phi(c0)) * dc / dc ... around each
        # vertex, which cancels exactly only in the *flux* form; use the
        # unnormalized gradient (differences) with dc folded back in.
        curl = vertex_curl(mesh3, grad)
        scale = np.abs(grad).max() / mesh3.dcEdge.min()
        assert np.abs(curl).max() < 1e-10 * scale

    def test_divergence_of_constant_thickness_flux(self, mesh3):
        """A constant field has zero divergence only for closed u; instead:
        div of u computed from any stream function is zero."""
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(mesh3.nVertices)
        # u from a stream function at vertices: u_e = (psi(v1)-psi(v0))/dv
        # is non-divergent on the C-grid by exact telescoping.
        u = edge_gradient_of_vertex(mesh3, psi) * mesh3.dvEdge  # differences
        div_sum = cell_divergence(mesh3, u / mesh3.dvEdge * mesh3.dvEdge)
        # Proper form: flux through cell boundary = sum(sign * (psi diff)).
        flux = np.sum(
            plan_for(mesh3).sign_dv
            * (u / mesh3.dvEdge)[plan_for(mesh3).eoc_safe],
            axis=1,
        )
        assert np.abs(flux).max() < 1e-9 * np.abs(psi).max()
        assert div_sum.shape == (mesh3.nCells,)

    def test_global_divergence_integral_zero(self, mesh3, edge_field):
        div = cell_divergence(mesh3, edge_field)
        total = np.sum(div * mesh3.areaCell)
        scale = np.sum(np.abs(edge_field) * mesh3.dvEdge)
        assert abs(total) < 1e-12 * scale

    def test_global_curl_integral_zero(self, mesh3, edge_field):
        curl = vertex_curl(mesh3, edge_field)
        total = np.sum(curl * mesh3.areaTriangle)
        scale = np.sum(np.abs(edge_field) * mesh3.dcEdge)
        assert abs(total) < 1e-12 * scale

    def test_div_grad_adjointness(self, mesh3, rng):
        """<phi, div F>_cells = -<grad phi, F>_edges with the C-grid weights."""
        phi = rng.standard_normal(mesh3.nCells)
        F = rng.standard_normal(mesh3.nEdges)
        lhs = np.sum(phi * cell_divergence(mesh3, F) * mesh3.areaCell)
        grad = edge_gradient_of_cell(mesh3, phi)
        rhs = -np.sum(grad * F * mesh3.dcEdge * mesh3.dvEdge)
        assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_coriolis_energy_neutral(self, mesh3, rng, coriolis_paths):
        """The TRiSK PV term does no work: with the energy weight
        h_edge * dc * dv per edge, sum_e u h (q F)perp = 0 for any q, h, u
        (antisymmetric weights x symmetric edge-PV average) — on every
        execution path, each of which also agrees with the numpy gather."""
        u = rng.standard_normal(mesh3.nEdges)
        h_edge = rng.uniform(0.5, 2.0, mesh3.nEdges)
        pv = rng.standard_normal(mesh3.nEdges)
        scale = np.sum((u * h_edge) ** 2 * mesh3.dcEdge * mesh3.dvEdge)
        reference = coriolis_edge_term(mesh3, u, h_edge, pv)
        for path, coriolis in coriolis_paths.items():
            qperp = coriolis(mesh3, u, h_edge, pv)
            work = np.sum(u * h_edge * qperp * mesh3.dcEdge * mesh3.dvEdge)
            assert abs(work) < 1e-10 * scale, path
            assert np.max(np.abs(qperp - reference)) <= 1e-12 * np.max(
                np.abs(reference)
            ), path

    def test_kite_interpolation_partition_of_unity(self, mesh3):
        ones = np.ones(mesh3.nCells)
        hv = vertex_from_cells_kite(mesh3, ones)
        np.testing.assert_allclose(hv, 1.0, rtol=1e-12)
        pv = cell_from_vertices_kite(mesh3, np.ones(mesh3.nVertices))
        np.testing.assert_allclose(pv, 1.0, rtol=1e-12)

    def test_ke_positive_definite(self, mesh3, edge_field):
        ke = cell_kinetic_energy(mesh3, edge_field)
        assert np.all(ke >= 0)
        assert cell_kinetic_energy(mesh3, np.zeros(mesh3.nEdges)).max() == 0.0

    def test_ke_global_consistency(self, mesh3):
        """For u_n = 1 on every edge, the ke integral is the diamond-tiling
        sum sum_e dc*dv/2 ~ the sphere area; for a physical unit-speed flow
        the integral is ~half that (<u_n^2> = 1/2)."""
        u = np.ones(mesh3.nEdges)
        total = np.sum(cell_kinetic_energy(mesh3, u) * mesh3.areaCell)
        assert np.isclose(total, mesh3.sphere_area, rtol=0.05)

        vel = np.cross([0.0, 0.0, 1.0], mesh3.metrics.xEdge)
        vel /= np.linalg.norm(vel, axis=1, keepdims=True)
        u_phys = np.sum(vel * mesh3.metrics.edgeNormal, axis=1)
        total_phys = np.sum(cell_kinetic_energy(mesh3, u_phys) * mesh3.areaCell)
        assert np.isclose(total_phys, mesh3.sphere_area / 2.0, rtol=0.05)


class TestSimpleMaps:
    def test_cell_to_edge_mean(self, mesh3, cell_field):
        he = cell_to_edge_mean(mesh3, cell_field)
        c = mesh3.connectivity.cellsOnEdge
        np.testing.assert_allclose(
            he, 0.5 * (cell_field[c[:, 0]] + cell_field[c[:, 1]])
        )

    def test_vertex_to_edge_mean(self, mesh3, vertex_field):
        pe = vertex_to_edge_mean(mesh3, vertex_field)
        v = mesh3.connectivity.verticesOnEdge
        np.testing.assert_allclose(
            pe, 0.5 * (vertex_field[v[:, 0]] + vertex_field[v[:, 1]])
        )

    def test_gradient_of_constant_zero(self, mesh3):
        grad = edge_gradient_of_cell(mesh3, np.full(mesh3.nCells, 7.5))
        assert np.abs(grad).max() < 1e-18

    def test_gradient_sign(self, mesh3):
        """Gradient points from c0 to c1: phi increasing along n gives +."""
        phi = mesh3.metrics.xCell[:, 2]  # increases northward
        grad = edge_gradient_of_cell(mesh3, phi)
        n_z = mesh3.metrics.edgeNormal[:, 2]
        # Correlation between grad and the z-component of the normal.
        corr = np.corrcoef(grad, n_z)[0, 1]
        assert corr > 0.9

    def test_flux_divergence_matches_manual(self, mesh3, edge_field, cell_field):
        h_edge = cell_to_edge_mean(mesh3, np.abs(cell_field) + 2.0)
        a = flux_divergence(mesh3, edge_field, h_edge)
        b = cell_divergence(mesh3, edge_field * h_edge)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_plan_cached(self, mesh3):
        assert plan_for(mesh3) is plan_for(mesh3)
