"""Tests of the execution engine: registry and layer consistency.

The engine is the one dispatch point for every stencil operator; these tests
pin its contracts — registration semantics, backend completeness and the
three-layer consistency between the data-flow builder / Table I catalog /
registry.  The row-cut contract of the paper's host/device split is an
oracle in ``tests/test_compile_oracles.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import BACKENDS, KernelRegistry, default_registry, dispatch
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
