"""Tests of the execution engine: registry, split execution, layer consistency.

The engine is the one dispatch point for every stencil operator; these tests
pin its contracts — registration semantics, backend completeness, the
three-layer consistency between the data-flow builder / Table I catalog /
registry, and the bitwise identity of split execution across two logical
devices.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    BACKENDS,
    KernelRegistry,
    default_registry,
    dispatch,
    use_placements,
)
from repro.hybrid.executor import Placement
from repro.obs.metrics import MetricsRegistry, use_registry


class TestRegistry:
    def test_all_backends_registered(self):
        reg = default_registry()
        assert reg.backends() == sorted(BACKENDS)

    def test_no_silent_fallbacks(self):
        """Registry-completeness lint: every op implements every backend.

        There is no fallback: an operator registered for ``numpy`` only
        would be a ``KeyError`` under ``--backend sparse``.
        """
        reg = default_registry()
        for backend in BACKENDS:
            assert reg.ops(backend) == reg.ops(), backend

    def test_duplicate_registration_rejected(self):
        reg = KernelRegistry()
        reg.register("foo", "numpy", lambda mesh, x: x, pattern="A1")
        with pytest.raises(ValueError, match="already has"):
            reg.register("foo", "numpy", lambda mesh, x: x)

    def test_duplicate_kernel_rejected(self):
        reg = KernelRegistry()
        reg.register_kernel("compute_tend", lambda *a: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.register_kernel("compute_tend", lambda *a: None)

    def test_unknown_op_and_kernel_raise(self):
        reg = default_registry()
        with pytest.raises(KeyError, match="unknown operator"):
            reg.op("no_such_op")
        with pytest.raises(KeyError, match="unknown kernel"):
            reg.kernel("no_such_kernel")

    def test_op_for_label_resolves_fused(self):
        reg = default_registry()
        assert reg.op_for_label("A1").op == "flux_divergence"
        # Both members of the fused C1,C2 sweep resolve to the same operator.
        assert reg.op_for_label("C1").op == "d2fdx2"
        assert reg.op_for_label("C2").op == "d2fdx2"

    def test_missing_backend_is_a_key_error(self, mesh3, edge_field):
        """No silent fall-through to numpy, for a retired backend name or
        for an operator one backend never registered."""
        with pytest.raises(KeyError, match="no 'codegen' implementation"):
            dispatch("cell_divergence", mesh3, edge_field, backend="codegen")
        reg = KernelRegistry()
        reg.register("foo", "numpy", lambda mesh, x: x)
        with pytest.raises(KeyError, match="registered: \\['numpy'\\]"):
            reg.dispatch("foo", mesh3, edge_field, backend="sparse")

    def test_dispatch_times_every_call(self, mesh3, edge_field):
        metrics = MetricsRegistry()
        with use_registry(metrics):
            dispatch("cell_divergence", mesh3, edge_field, backend="numpy")
            dispatch("cell_divergence", mesh3, edge_field, backend="sparse")
        tags = {(s.tags["op"], s.tags["pattern"], s.tags["backend"])
                for s in metrics.series("engine.op")}
        assert tags == {
            ("cell_divergence", "A3", "numpy"),
            ("cell_divergence", "A3", "sparse"),
        }


class TestLayerConsistency:
    """dataflow/build <-> patterns/catalog <-> engine registry, one lint."""

    def test_kernel_names_mutually_exhaustive(self):
        from repro.dataflow.build import stage_kernels
        from repro.patterns.catalog import KERNELS

        reg = default_registry()
        staged = {k for stage in (1, 2, 3, 4) for k in stage_kernels(stage)}
        assert staged == set(KERNELS)
        assert set(reg.kernels()) == set(KERNELS)

    def test_stencil_labels_mutually_exhaustive(self):
        from repro.patterns.catalog import build_catalog

        reg = default_registry()
        catalog_stencils = {
            inst.label for inst in build_catalog(None) if not inst.is_local
        }
        assert reg.labels() == catalog_stencils

    def test_registry_kernel_attribution_matches_catalog(self):
        from repro.patterns.catalog import build_catalog

        reg = default_registry()
        owner = {inst.label: inst.kernel for inst in build_catalog(None)}
        for name in reg.ops():
            entry = reg.op(name)
            if entry.pattern is None:
                continue
            for label in entry.pattern.split(","):
                assert entry.kernel == owner[label], (name, label)

    def test_every_backend_covers_every_pattern_or_falls_back(self):
        """Each Table I stencil label executes under each backend name
        (natively: there is nothing to fall back to any more)."""
        reg = default_registry()
        for label in sorted(reg.labels()):
            entry = reg.op_for_label(label)
            for backend in BACKENDS:
                assert callable(entry.resolve(backend))


# Ops exercised by the split executor: (op, field point types).
_SPLIT_OPS = [
    ("flux_divergence", ("edge", "edge")),
    ("kinetic_energy", ("edge",)),
    ("cell_divergence", ("edge",)),
    ("velocity_reconstruction", ("edge",)),
    ("coriolis_edge_term", ("edge", "edge", "edge")),
    ("tangential_velocity", ("edge",)),
    ("cell_to_edge_mean", ("cell",)),
    ("vertex_from_cells_kite", ("cell",)),
    ("cell_from_vertices_kite", ("vertex",)),
    ("vertex_to_edge_mean", ("vertex",)),
    ("vertex_curl", ("edge",)),
    ("edge_gradient_of_cell", ("cell",)),
    ("edge_gradient_of_vertex", ("vertex",)),
]


def _fields(mesh, kinds, rng):
    n = {"cell": mesh.nCells, "edge": mesh.nEdges, "vertex": mesh.nVertices}
    return tuple(rng.standard_normal(n[kind]) for kind in kinds)


class TestSplitExecution:
    @pytest.mark.parametrize("op,kinds", _SPLIT_OPS, ids=[o for o, _ in _SPLIT_OPS])
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.8])
    def test_bitwise_identical_to_unsplit(self, mesh3, rng, op, kinds, fraction):
        fields = _fields(mesh3, kinds, rng)
        label = default_registry().op(op).pattern or op
        base = dispatch(op, mesh3, *fields)
        with use_placements({label: Placement("split", fraction)}):
            split = dispatch(op, mesh3, *fields)
        assert np.array_equal(base, split)

    def test_split_honours_backend(self, mesh3, rng):
        u, h = _fields(mesh3, ("edge", "edge"), rng)
        base = dispatch("flux_divergence", mesh3, u, h, backend="sparse")
        with use_placements({"A1": Placement("split", 0.4)}):
            split = dispatch("flux_divergence", mesh3, u, h, backend="sparse")
        assert np.array_equal(base, split)

    def test_band_points_counted(self, mesh3, rng):
        (u,) = _fields(mesh3, ("edge",), rng)
        metrics = MetricsRegistry()
        with use_registry(metrics), use_placements({"A3": Placement("split", 0.5)}):
            dispatch("cell_divergence", mesh3, u)
        bands = metrics.series("engine.split.band_points")
        assert {s.tags["device"] for s in bands} == {"cpu", "mic"}
        # The cut crosses the mesh, so both devices need a nonempty band.
        assert all(s.value > 0 for s in bands)
        (gauge,) = metrics.series("engine.split.cpu_fraction")
        assert gauge.value == 0.5

    def test_no_split_operator_refuses(self, mesh3, rng):
        h = rng.standard_normal(mesh3.nCells)
        with use_placements({"C1": Placement("split", 0.5)}):
            with pytest.raises(ValueError, match="does not support split"):
                dispatch("d2fdx2", mesh3, h)

    def test_single_device_placements_are_ignored(self, mesh3, rng):
        (u,) = _fields(mesh3, ("edge",), rng)
        base = dispatch("cell_divergence", mesh3, u)
        with use_placements({"A3": Placement("cpu")}):
            got = dispatch("cell_divergence", mesh3, u)
        assert np.array_equal(base, got)

    def test_placements_restored_after_context(self):
        from repro.engine import active_placements

        assert active_placements() == {}
        with use_placements({"A1": Placement("split", 0.5)}):
            assert "A1" in active_placements()
        assert active_placements() == {}

    def test_compute_tend_split_bitwise(self, mesh3):
        """The acceptance check: compute_tend split across two logical
        devices is bitwise identical to unsplit execution."""
        from repro.constants import GRAVITY
        from repro.swm.config import SWConfig
        from repro.swm.galewsky import galewsky_jet
        from repro.swm.model import suggested_dt
        from repro.swm.testcases import initialize
        from repro.swm.timestep import RK4Integrator

        case = galewsky_jet()
        config = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY), thickness_adv_order=4
        )
        state, b_cell = initialize(mesh3, case)
        integ = RK4Integrator(
            mesh3, config, b_cell, config.coriolis(mesh3.metrics.latVertex)
        )
        diag = integ.diagnostics_for(state)
        compute_tend = default_registry().kernel("compute_tend")

        tend_h, tend_u = compute_tend(mesh3, state, diag, b_cell, config)
        placements = {
            "A1": Placement("split", 0.37),
            "B1": Placement("split", 0.37),
        }
        with use_placements(placements):
            split_h, split_u = compute_tend(mesh3, state, diag, b_cell, config)
        assert np.array_equal(tend_h, split_h)
        assert np.array_equal(tend_u, split_u)

    def test_full_step_under_split_diagnostics(self, mesh3):
        """A whole RK-4 step with every splittable diagnostic pattern split
        stays bitwise identical to the unsplit step."""
        from repro.constants import GRAVITY
        from repro.swm.config import SWConfig
        from repro.swm.galewsky import galewsky_jet
        from repro.swm.model import suggested_dt
        from repro.swm.testcases import initialize
        from repro.swm.timestep import RK4Integrator

        case = galewsky_jet()
        config = SWConfig(
            dt=suggested_dt(mesh3, case, GRAVITY), thickness_adv_order=2
        )
        state, b_cell = initialize(mesh3, case)
        integ = RK4Integrator(
            mesh3, config, b_cell, config.coriolis(mesh3.metrics.latVertex)
        )
        diag = integ.diagnostics_for(state)
        base = integ.step(state, diag)
        placements = {
            label: Placement("split", 0.61)
            for label in ("A1", "A2", "A3", "A4", "B1", "B2", "D1", "E1", "F1", "G1", "H1")
        }
        with use_placements(placements):
            split = integ.step(state, diag)
        assert np.array_equal(base.state.h, split.state.h)
        assert np.array_equal(base.state.u, split.state.u)


class TestCLI:
    def test_selftest_subprocess(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.engine", "--selftest"],
            capture_output=True,
            text=True,
            timeout=600,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr[-2000:]
        assert "engine selftest OK" in result.stdout
