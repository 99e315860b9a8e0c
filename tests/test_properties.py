"""Property-based tests (hypothesis) on core invariants.

Strategies are kept small and deterministic-ish (bounded examples) so the
suite stays fast; each property encodes an invariant that must hold for *all*
inputs, not just the fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import (
    arc_length,
    normalize,
    polygon_centroid,
    rotate,
    spherical_triangle_area,
)

unit_vectors = hnp.arrays(
    np.float64,
    (3,),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
).map(lambda v: normalize(v + np.array([0.05, 0.02, 0.01])))


finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestSphereProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=unit_vectors, b=unit_vectors)
    def test_arc_length_symmetric_and_bounded(self, a, b):
        d = arc_length(a, b)
        assert 0.0 <= d <= np.pi + 1e-12
        assert np.isclose(d, arc_length(b, a))

    @settings(max_examples=40, deadline=None)
    @given(a=unit_vectors, b=unit_vectors, c=unit_vectors)
    def test_triangle_inequality(self, a, b, c):
        assert arc_length(a, c) <= arc_length(a, b) + arc_length(b, c) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(a=unit_vectors, b=unit_vectors, c=unit_vectors)
    def test_triangle_area_antisymmetry(self, a, b, c):
        assert np.isclose(
            spherical_triangle_area(a, b, c),
            -spherical_triangle_area(a, c, b),
            atol=1e-12,
        )

    @settings(max_examples=40, deadline=None)
    @given(a=unit_vectors, b=unit_vectors, c=unit_vectors, angle=st.floats(-3.0, 3.0))
    def test_area_rotation_invariant(self, a, b, c, angle):
        axis = np.array([0.3, -0.2, 0.9])
        before = spherical_triangle_area(a, b, c)
        after = spherical_triangle_area(
            rotate(a, axis, angle), rotate(b, axis, angle), rotate(c, axis, angle)
        )
        assert np.isclose(before, after, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(a=unit_vectors, b=unit_vectors, c=unit_vectors)
    def test_centroid_inside_hull_direction(self, a, b, c):
        area = spherical_triangle_area(a, b, c)
        if abs(area) < 1e-3:  # skip degenerate triangles
            return
        cen = polygon_centroid(np.stack([a, b, c]))
        # The centroid direction has positive projection on the vertex mean.
        mean = a + b + c
        assert cen @ mean > 0


class TestReductionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n_cells=st.integers(3, 30),
    )
    def test_all_forms_agree_on_random_graphs(self, data, n_cells):
        """Algorithms 2/3/4 agree for ANY cell/edge incidence structure."""
        from repro.reduction import (
            build_label_matrix,
            gather_label_matrix,
            irregular_reduction_loop,
            refactored_reduction_loop,
            scatter_add_signed,
        )

        n_edges = data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        # Random incidence: every edge picks two distinct cells.
        cells_on_edge = np.stack(
            [rng.integers(0, n_cells, n_edges), rng.integers(0, n_cells, n_edges)],
            axis=1,
        )
        bad = cells_on_edge[:, 0] == cells_on_edge[:, 1]
        cells_on_edge[bad, 1] = (cells_on_edge[bad, 0] + 1) % n_cells
        x = rng.standard_normal(n_edges)

        # Derive edgesOnCell from the incidence.
        rows: list[list[int]] = [[] for _ in range(n_cells)]
        for e, (c0, c1) in enumerate(cells_on_edge):
            rows[c0].append(e)
            rows[c1].append(e)
        max_deg = max(1, max(len(r) for r in rows))
        edges_on_cell = np.full((n_cells, max_deg), -1, dtype=np.int64)
        for c, r in enumerate(rows):
            edges_on_cell[c, : len(r)] = r
        n_edges_on_cell = np.array([len(r) for r in rows])

        a = irregular_reduction_loop(n_cells, cells_on_edge, x)
        b = scatter_add_signed(n_cells, cells_on_edge, x)
        c = refactored_reduction_loop(
            n_cells, cells_on_edge, edges_on_cell, n_edges_on_cell, x
        )
        label, eoc = build_label_matrix(cells_on_edge, edges_on_cell)
        d = gather_label_matrix(label, eoc, x)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(c, d, rtol=1e-12, atol=1e-12)


class TestOperatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_divergence_linear(self, seed, mesh3):
        from repro.swm.operators import cell_divergence

        rng = np.random.default_rng(seed)
        u = rng.standard_normal(mesh3.nEdges)
        v = rng.standard_normal(mesh3.nEdges)
        alpha = float(rng.uniform(-3, 3))
        lhs = cell_divergence(mesh3, u + alpha * v)
        rhs = cell_divergence(mesh3, u) + alpha * cell_divergence(mesh3, v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_global_divergence_theorem(self, seed, mesh3):
        from repro.swm.operators import cell_divergence

        rng = np.random.default_rng(seed)
        u = rng.standard_normal(mesh3.nEdges)
        total = np.sum(cell_divergence(mesh3, u) * mesh3.areaCell)
        scale = np.sum(np.abs(u) * mesh3.dvEdge)
        assert abs(total) <= 1e-11 * scale

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_coriolis_energy_neutral_any_u(self, seed, mesh3, coriolis_paths):
        """The TRiSK PV term never injects kinetic energy — for ANY velocity,
        thickness and PV fields — because the symmetric edge-PV average
        multiplies the antisymmetric weight matrix.  The energy weight of an
        edge is h_edge * dc * dv (KE density is h*K).  Holds on every
        execution path (numpy gather, sparse two-matvec form, plan stage,
        batched plan column), not only on the numpy reference."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(mesh3.nEdges)
        h_edge = rng.uniform(0.5, 2.0, mesh3.nEdges)
        q = rng.standard_normal(mesh3.nEdges)  # arbitrary PV field
        scale = np.sum(np.abs(u * h_edge) ** 2 * mesh3.dcEdge * mesh3.dvEdge)
        for path, coriolis in coriolis_paths.items():
            term = coriolis(mesh3, u, h_edge, q)
            work = np.sum(u * h_edge * term * mesh3.dcEdge * mesh3.dvEdge)
            assert abs(work) <= 1e-10 * max(scale, 1e-30), path


class TestCostModelProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.integers(1, 10**7),
        n2=st.integers(1, 10**7),
        threads=st.sampled_from([1, 10, 59, 236]),
        vectorized=st.booleans(),
        refactored=st.booleans(),
    )
    def test_time_monotone_in_points(self, n1, n2, threads, vectorized, refactored):
        from repro.machine import CostModel, ExecutionProfile, XEON_PHI_5110P
        from repro.patterns import build_catalog

        inst = build_catalog()[0]
        model = CostModel(
            XEON_PHI_5110P,
            ExecutionProfile(threads=threads, vectorized=vectorized, refactored=refactored),
        )
        lo, hi = min(n1, n2), max(n1, n2)
        assert model.instance_time(inst, lo) <= model.instance_time(inst, hi) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(n_bytes=st.floats(0, 1e10), n_bytes2=st.floats(0, 1e10))
    def test_transfer_monotone(self, n_bytes, n_bytes2):
        from repro.machine import TransferModel

        link = TransferModel(6.0, 10.0)
        lo, hi = min(n_bytes, n_bytes2), max(n_bytes, n_bytes2)
        assert link.time(lo) <= link.time(hi)


class TestStateProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), w=st.floats(1e-3, 1e3))
    def test_accumulate_then_subtract_roundtrip(self, seed, w, mesh3):
        from repro.swm import State
        from repro.swm.timestep import accumulative_update

        rng = np.random.default_rng(seed)
        h = rng.standard_normal(mesh3.nCells)
        u = rng.standard_normal(mesh3.nEdges)
        th = rng.standard_normal(mesh3.nCells)
        tu = rng.standard_normal(mesh3.nEdges)
        acc = State(h=h.copy(), u=u.copy())
        accumulative_update(acc, th, tu, w)
        accumulative_update(acc, th, tu, -w)
        np.testing.assert_allclose(acc.h, h, rtol=1e-9, atol=1e-9 * w)
        np.testing.assert_allclose(acc.u, u, rtol=1e-9, atol=1e-9 * w)
