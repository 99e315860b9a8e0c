"""Backend equivalence: numpy / scatter / codegen / sparse agree on every operator.

The refactor's correctness contract: selecting a backend changes *how* a
pattern executes, never *what* it computes.  Gather vs scatter reassociates
the reductions, so those agree to round-off; the compiled codegen kernels
that the seed suite already proves bitwise-equal must stay bitwise-equal
through the registry.  The full-model check integrates the Galewsky jet
under each backend and requires <= 1e-12 relative agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.engine import BACKENDS, dispatch
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh

# Reassociation tolerance for gather-vs-scatter reductions (matches the
# operator seed tests comparing repro.swm.reference to repro.swm.operators).
RTOL = 1e-11

# (op, input point types) for every registered stencil operator.
_OPS = [
    ("flux_divergence", ("edge", "edge")),
    ("kinetic_energy", ("edge",)),
    ("cell_divergence", ("edge",)),
    ("velocity_reconstruction", ("edge",)),
    ("coriolis_edge_term", ("edge", "edge", "edge")),
    ("tangential_velocity", ("edge",)),
    ("d2fdx2", ("cell",)),
    ("cell_to_edge_mean", ("cell",)),
    ("vertex_from_cells_kite", ("cell",)),
    ("cell_from_vertices_kite", ("vertex",)),
    ("vertex_to_edge_mean", ("vertex",)),
    ("vertex_curl", ("edge",)),
    ("edge_gradient_of_cell", ("cell",)),
    ("edge_gradient_of_vertex", ("vertex",)),
]

# Ops whose codegen kernels the seed suite proves bitwise-equal to the
# hand-written operators (test_codegen.py uses np.array_equal for these).
_CODEGEN_BITWISE = {
    "cell_divergence",
    "kinetic_energy",
    "vertex_curl",
    "tangential_velocity",
    "vertex_from_cells_kite",
}


def _fields(mesh, kinds, rng):
    n = {"cell": mesh.nCells, "edge": mesh.nEdges, "vertex": mesh.nVertices}
    return tuple(rng.standard_normal(n[kind]) for kind in kinds)


def _as_arrays(result):
    """Normalize tuple-valued ops (d2fdx2) to a tuple of arrays."""
    return result if isinstance(result, tuple) else (result,)


@pytest.fixture(scope="module", params=[3, 41])
def scvt_mesh(request):
    """Random (non-icosahedral) SCVT — backend agreement must not rely on
    icosahedral symmetry."""
    rng = np.random.default_rng(request.param)
    pts = lloyd_relax(normalize(rng.standard_normal((150, 3))), iterations=60).points
    return Mesh.from_points(pts, name=f"random150-{request.param}")


class TestOperatorEquivalence:
    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_mesh3(self, mesh3, rng, op, kinds):
        fields = _fields(mesh3, kinds, rng)
        results = {
            b: _as_arrays(dispatch(op, mesh3, *fields, backend=b)) for b in BACKENDS
        }
        for backend in ("scatter", "codegen", "sparse"):
            for got, want in zip(results[backend], results["numpy"]):
                np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-14, err_msg=f"{op} under {backend}")

    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_random_scvt(self, scvt_mesh, rng, op, kinds):
        fields = _fields(scvt_mesh, kinds, rng)
        results = {
            b: _as_arrays(dispatch(op, scvt_mesh, *fields, backend=b))
            for b in BACKENDS
        }
        for backend in ("scatter", "codegen", "sparse"):
            for got, want in zip(results[backend], results["numpy"]):
                np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-14, err_msg=f"{op} under {backend}")

    def test_sparse_coriolis_within_1e12_on_random_scvt(self, scvt_mesh, rng):
        """B1's two-matvec form reassociates the gather's row sums; the
        stated cross-backend tolerance (docs/numerics.md) bounds it."""
        fields = _fields(scvt_mesh, dict(_OPS)["coriolis_edge_term"], rng)
        want = dispatch("coriolis_edge_term", scvt_mesh, *fields, backend="numpy")
        got = dispatch("coriolis_edge_term", scvt_mesh, *fields, backend="sparse")
        assert not np.array_equal(got, want)  # a real second implementation
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("op", sorted(_CODEGEN_BITWISE))
    def test_codegen_bitwise_where_seed_claims(self, mesh3, rng, op):
        kinds = dict(_OPS)[op]
        fields = _fields(mesh3, kinds, rng)
        got = dispatch(op, mesh3, *fields, backend="codegen")
        want = dispatch(op, mesh3, *fields, backend="numpy")
        assert np.array_equal(got, want)


class TestFullModelEquivalence:
    """The acceptance run: a Galewsky RK-4 integration under each backend
    selected purely through ``SWConfig.backend`` agrees to <= 1e-12."""

    @pytest.fixture(scope="class")
    def run_states(self):
        from repro.mesh import cached_mesh
        from repro.swm.config import SWConfig
        from repro.swm.galewsky import galewsky_jet
        from repro.swm.model import ShallowWaterModel, suggested_dt

        mesh = cached_mesh(2)
        case = galewsky_jet()
        states = {}
        for backend in BACKENDS:
            config = SWConfig(
                dt=suggested_dt(mesh, case, GRAVITY),
                thickness_adv_order=3,
                backend=backend,
            )
            model = ShallowWaterModel(mesh, config)
            model.initialize(case)
            result = model.run(steps=5)
            states[backend] = (result.state.h, result.state.u)
        return states

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
    def test_galewsky_run_agrees(self, run_states, backend):
        h_ref, u_ref = run_states["numpy"]
        h, u = run_states[backend]
        rel_h = np.max(np.abs(h - h_ref)) / np.max(np.abs(h_ref))
        rel_u = np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref))
        assert rel_h <= 1e-12
        assert rel_u <= 1e-12

    def test_invalid_backend_rejected(self):
        from repro.swm.config import SWConfig

        with pytest.raises(ValueError, match="backend"):
            SWConfig(dt=60.0, backend="fortran")


def test_kernel_spans_carry_the_backend_tag():
    """Every Algorithm-1 kernel span of a traced step names its backend."""
    from repro.mesh import cached_mesh
    from repro.obs import Tracer, use_tracer
    from repro.patterns.catalog import KERNELS
    from repro.swm.config import SWConfig
    from repro.swm.galewsky import galewsky_jet
    from repro.swm.model import suggested_dt
    from repro.swm.testcases import initialize
    from repro.swm.timestep import RK4Integrator

    mesh = cached_mesh(2)
    case = galewsky_jet()
    config = SWConfig(
        dt=suggested_dt(mesh, case, GRAVITY), backend="codegen"
    )
    state, b_cell = initialize(mesh, case)
    integ = RK4Integrator(
        mesh, config, b_cell, config.coriolis(mesh.metrics.latVertex)
    )
    diag = integ.diagnostics_for(state)
    tracer = Tracer()
    with use_tracer(tracer):
        integ.step(state, diag)

    kernels = [s for s in tracer.finished() if s.category == "kernel"]
    assert {s.name for s in kernels} == set(KERNELS)
    assert {s.tags["backend"] for s in kernels} == {"codegen"}
    assert set(tracer.aggregate("backend", category="kernel")) == {"codegen"}
