"""Tests of the automatic kernel generation (the paper's stated future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.patterns import PatternKind
from tests.oracles.codegen import (
    BUILTIN_SPECS,
    StencilSpec,
    compile_kernel,
    generate_source,
)
from repro.swm.operators import (
    cell_divergence,
    cell_kinetic_energy,
    cell_to_edge_mean,
    tangential_velocity,
    vertex_curl,
    vertex_from_cells_kite,
    vertex_to_edge_mean,
)


class TestGeneration:
    def test_source_is_valid_python(self):
        for spec in BUILTIN_SPECS.values():
            src = generate_source(spec)
            compile(src, "<test>", "exec")  # must not raise

    def test_source_attached(self):
        kernel = compile_kernel(BUILTIN_SPECS["divergence"])
        assert "def divergence" in kernel.__source__
        assert kernel.__spec__ is BUILTIN_SPECS["divergence"]

    def test_all_eight_kinds_covered(self):
        kinds = {spec.kind for spec in BUILTIN_SPECS.values()}
        assert kinds == set(PatternKind)


class TestEquivalenceWithHandWritten:
    """Generated kernels must match the production operators bitwise."""

    def test_divergence(self, mesh3, edge_field):
        kernel = compile_kernel(BUILTIN_SPECS["divergence"])
        assert np.array_equal(kernel(mesh3, edge_field), cell_divergence(mesh3, edge_field))

    def test_kinetic_energy(self, mesh3, edge_field):
        kernel = compile_kernel(BUILTIN_SPECS["kinetic_energy"])
        assert np.array_equal(
            kernel(mesh3, edge_field), cell_kinetic_energy(mesh3, edge_field)
        )

    def test_vorticity(self, mesh3, edge_field):
        kernel = compile_kernel(BUILTIN_SPECS["vorticity"])
        assert np.array_equal(kernel(mesh3, edge_field), vertex_curl(mesh3, edge_field))

    def test_tangential_velocity(self, mesh3, edge_field):
        kernel = compile_kernel(BUILTIN_SPECS["tangential_velocity"])
        assert np.array_equal(
            kernel(mesh3, edge_field), tangential_velocity(mesh3, edge_field)
        )

    def test_h_vertex(self, mesh3, cell_field):
        kernel = compile_kernel(BUILTIN_SPECS["h_vertex"])
        assert np.array_equal(
            kernel(mesh3, cell_field), vertex_from_cells_kite(mesh3, cell_field)
        )

    def test_edge_mean_of_cells(self, mesh3, cell_field):
        kernel = compile_kernel(BUILTIN_SPECS["edge_mean_of_cells"])
        np.testing.assert_allclose(
            kernel(mesh3, cell_field), cell_to_edge_mean(mesh3, cell_field), rtol=1e-15
        )

    def test_edge_mean_of_vertices(self, mesh3, vertex_field):
        kernel = compile_kernel(BUILTIN_SPECS["edge_mean_of_vertices"])
        np.testing.assert_allclose(
            kernel(mesh3, vertex_field),
            vertex_to_edge_mean(mesh3, vertex_field),
            rtol=1e-15,
        )


class TestGeneratedSemantics:
    def test_cell_neighbor_sum(self, mesh3, cell_field):
        kernel = compile_kernel(BUILTIN_SPECS["cell_neighbor_sum"])
        got = kernel(mesh3, cell_field)
        conn = mesh3.connectivity
        c = 17
        neigh = conn.cellsOnCell[c, : conn.nEdgesOnCell[c]]
        assert got[c] == pytest.approx(cell_field[neigh].sum())

    def test_cell_average_of_vertices_partition(self, mesh3):
        kernel = compile_kernel(BUILTIN_SPECS["cell_average_of_vertices"])
        ones = np.ones(mesh3.nVertices)
        np.testing.assert_allclose(kernel(mesh3, ones), 1.0, rtol=1e-12)

    def test_custom_spec(self, mesh3, edge_field):
        """A new kernel never written by hand: max-magnitude-weighted sum."""
        spec = StencilSpec(
            name="abs_flux",
            kind=PatternKind.A,
            weights="met.dvEdge[gather]",
            element="np.abs(x)",
            post="1.0 / met.areaCell",
        )
        kernel = compile_kernel(spec)
        got = kernel(mesh3, edge_field)
        assert np.all(got >= 0)
        # Manual check for one cell.
        conn, met = mesh3.connectivity, mesh3.metrics
        c = 5
        edges = conn.edgesOnCell[c, : conn.nEdgesOnCell[c]]
        expected = np.sum(met.dvEdge[edges] * np.abs(edge_field[edges])) / met.areaCell[c]
        assert got[c] == pytest.approx(expected)

    def test_generated_kernel_works_on_local_mesh(self, mesh3, edge_field):
        """Generated kernels run unchanged on rank-local meshes."""
        from repro.parallel import build_local_mesh, partition_cells

        owner = partition_cells(mesh3, 2)
        lm = build_local_mesh(mesh3, owner, 0, halo_layers=2)
        kernel = compile_kernel(BUILTIN_SPECS["divergence"])
        local_u = edge_field[lm.edges_global]
        got = kernel(lm, local_u)
        want = cell_divergence(mesh3, edge_field)
        # Owned outputs agree with the global kernel.
        np.testing.assert_array_equal(
            got[: lm.n_owned_cells], want[lm.cells_global[: lm.n_owned_cells]]
        )
