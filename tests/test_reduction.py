"""Unit tests of the Algorithm 2/3/4 irregular-reduction forms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reduction import (
    build_label_matrix,
    divergence_gather_vectorized,
    divergence_scatter_vectorized,
    gather_label_matrix,
    scatter_add_signed,
)
from repro.swm.operators import cell_divergence
from tests.oracles.reduction import (
    branch_free_reduction_loop,
    divergence_branchfree_loop,
    divergence_gather_loop,
    divergence_scatter_loop,
    irregular_reduction_loop,
    refactored_reduction_loop,
)


class TestAbstractForms:
    """All four algorithm forms agree on the raw +/- accumulation."""

    def test_loop_vs_scatter(self, mesh3, edge_field):
        conn = mesh3.connectivity
        a = irregular_reduction_loop(mesh3.nCells, conn.cellsOnEdge, edge_field)
        b = scatter_add_signed(mesh3.nCells, conn.cellsOnEdge, edge_field)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-16)

    def test_loop_vs_refactored(self, mesh3, edge_field):
        conn = mesh3.connectivity
        a = irregular_reduction_loop(mesh3.nCells, conn.cellsOnEdge, edge_field)
        b = refactored_reduction_loop(
            mesh3.nCells, conn.cellsOnEdge, conn.edgesOnCell,
            conn.nEdgesOnCell, edge_field,
        )
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_refactored_vs_branchfree_bitwise(self, mesh3, edge_field):
        """Algorithm 4 only replaces the branch; the summation order is the
        same as Algorithm 3, so results are bitwise identical."""
        conn = mesh3.connectivity
        a = refactored_reduction_loop(
            mesh3.nCells, conn.cellsOnEdge, conn.edgesOnCell,
            conn.nEdgesOnCell, edge_field,
        )
        label, eoc_safe = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
        b = branch_free_reduction_loop(label, eoc_safe, conn.nEdgesOnCell, edge_field)
        assert np.array_equal(a, b)

    def test_branchfree_loop_vs_vectorized_bitwise(self, mesh3, edge_field):
        conn = mesh3.connectivity
        label, eoc_safe = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
        a = branch_free_reduction_loop(label, eoc_safe, conn.nEdgesOnCell, edge_field)
        b = gather_label_matrix(label, eoc_safe, edge_field)
        # Same order, same padded zero terms -> pairwise-summation may differ
        # at most at round-off for 6-term rows; in practice it is bitwise.
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=1e-18)


class TestLabelMatrix:
    def test_values(self, mesh3):
        conn = mesh3.connectivity
        label, eoc_safe = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
        assert set(np.unique(label)) <= {-1.0, 0.0, 1.0}
        # Padding lanes carry zero weight and a safe index.
        pent = np.flatnonzero(conn.nEdgesOnCell == 5)
        assert np.all(label[pent, 5] == 0.0)
        assert np.all(eoc_safe >= 0)

    def test_label_matches_paper_definition(self, mesh3):
        conn = mesh3.connectivity
        label, _ = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
        for c in range(0, mesh3.nCells, 41):
            for j in range(int(conn.nEdgesOnCell[c])):
                e = conn.edgesOnCell[c, j]
                expected = 1.0 if conn.cellsOnEdge[e, 0] == c else -1.0
                assert label[c, j] == expected

    def test_label_equals_edge_sign(self, mesh3):
        """The label matrix IS edgeSignOnCell — the production kernels fold
        it into their metric-weighted gather tables."""
        conn = mesh3.connectivity
        label, _ = build_label_matrix(conn.cellsOnEdge, conn.edgesOnCell)
        assert np.array_equal(label, conn.edgeSignOnCell)


class TestDivergenceForms:
    @pytest.mark.parametrize(
        "impl",
        [
            divergence_scatter_loop,
            divergence_scatter_vectorized,
            divergence_gather_loop,
            divergence_branchfree_loop,
            divergence_gather_vectorized,
        ],
    )
    def test_matches_production_kernel(self, mesh3, edge_field, impl):
        got = impl(mesh3, edge_field)
        want = cell_divergence(mesh3, edge_field)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-18)

    def test_gather_forms_bitwise_equal(self, mesh3, edge_field):
        a = divergence_gather_loop(mesh3, edge_field)
        b = divergence_branchfree_loop(mesh3, edge_field)
        assert np.array_equal(a, b)

    def test_scatter_and_gather_differ_in_roundoff_only(self, mesh3, edge_field):
        a = divergence_scatter_vectorized(mesh3, edge_field)
        b = divergence_gather_vectorized(mesh3, edge_field)
        diff = np.abs(a - b).max()
        assert diff < 1e-11 * np.abs(a).max()
