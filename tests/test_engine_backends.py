"""Backend equivalence: numpy and sparse agree on every operator, and both
agree with the oracles kept beside them.

The correctness contract: selecting a backend changes *how* a pattern
executes, never *what* it computes.  The oracles are not backends — the
Algorithm 2 loop/scatter forms of :mod:`tests.oracles.reference` and the kernels
compiled from :data:`tests.oracles.codegen.BUILTIN_SPECS` are called here
directly.  Gather vs scatter reassociates the reductions, so those agree to
round-off; the compiled kernels the seed suite proves bitwise-equal must stay
bitwise-equal.  The full-model check integrates the Galewsky jet under each
backend and requires <= 1e-12 relative agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.engine import BACKENDS, dispatch
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh
from tests.oracles import reference as ref
from tests.oracles.codegen import BUILTIN_SPECS, compile_kernel

# Reassociation tolerance for gather-vs-scatter reductions (matches the
# operator seed tests comparing tests.oracles.reference to repro.swm.operators).
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

# op -> its Algorithm 2 loop/scatter form (the fused C sweep never had one).
_REFERENCE = {
    "flux_divergence": ref.flux_divergence_scatter,
    "kinetic_energy": ref.cell_kinetic_energy_loop,
    "cell_divergence": ref.cell_divergence_scatter,
    "velocity_reconstruction": ref.velocity_reconstruction_loop,
    "coriolis_edge_term": ref.coriolis_edge_term_loop,
    "tangential_velocity": ref.tangential_velocity_loop,
    "cell_to_edge_mean": ref.cell_to_edge_mean_loop,
    "vertex_from_cells_kite": ref.vertex_from_cells_kite_loop,
    "cell_from_vertices_kite": ref.cell_from_vertices_kite_loop,
    "vertex_to_edge_mean": ref.vertex_to_edge_mean_loop,
    "vertex_curl": ref.vertex_curl_loop,
    "edge_gradient_of_cell": ref.edge_gradient_of_cell_loop,
    "edge_gradient_of_vertex": ref.edge_gradient_of_vertex_loop,
}

# op -> the BUILTIN_SPECS kernel that computes it.  The declarative specs
# cannot express the vector-valued reconstruction, the fused C sweep or the
# F1 kite gather; the two multi-field operators are compositions (below).
_SPEC_OF = {
    "kinetic_energy": "kinetic_energy",
    "cell_divergence": "divergence",
    "tangential_velocity": "tangential_velocity",
    "cell_to_edge_mean": "edge_mean_of_cells",
    "vertex_from_cells_kite": "h_vertex",
    "vertex_to_edge_mean": "edge_mean_of_vertices",
    "vertex_curl": "vorticity",
    "edge_gradient_of_cell": "edge_gradient_of_cell",
    "edge_gradient_of_vertex": "edge_gradient_of_vertex",
}

# Ops whose compiled kernels the seed suite proves bitwise-equal to the
# hand-written operators (test_codegen.py uses np.array_equal for these).
_CODEGEN_BITWISE = {
    "cell_divergence",
    "kinetic_energy",
    "vertex_curl",
    "tangential_velocity",
    "vertex_from_cells_kite",
}


@pytest.fixture(scope="module")
def compiled():
    """op -> kernel compiled from the declarative specs."""
    kernels = {name: compile_kernel(spec) for name, spec in BUILTIN_SPECS.items()}
    out = {op: kernels[spec] for op, spec in _SPEC_OF.items()}
    divergence, trisk = kernels["divergence"], kernels["tangential_velocity"]
    # Compositions with point-local arithmetic, the decomposition the Table I
    # catalog prices: div(u h), and 0.5 q K(f) + 0.5 K(f q) with f = u h.
    out["flux_divergence"] = lambda mesh, u, h: divergence(mesh, u * h)
    out["coriolis_edge_term"] = lambda mesh, u, h, q: 0.5 * (
        q * trisk(mesh, u * h) + trisk(mesh, u * h * q)
    )
    return out


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


def _assert_all_agree(op, mesh, fields, compiled):
    """Both backends and every oracle of ``op`` against the numpy backend."""
    want = _as_arrays(dispatch(op, mesh, *fields, backend="numpy"))
    results = {"sparse": dispatch(op, mesh, *fields, backend="sparse")}
    if op in _REFERENCE:
        results["reference"] = _REFERENCE[op](mesh, *fields)
    if op in compiled:
        results["compiled"] = compiled[op](mesh, *fields)
    for name, result in results.items():
        for got, ref_arr in zip(_as_arrays(result), want):
            np.testing.assert_allclose(
                got, ref_arr, rtol=RTOL, atol=1e-14, err_msg=f"{op} under {name}"
            )


class TestOperatorEquivalence:
    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_mesh3(self, mesh3, rng, compiled, op, kinds):
        _assert_all_agree(op, mesh3, _fields(mesh3, kinds, rng), compiled)

    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_random_scvt(self, scvt_mesh, rng, compiled, op, kinds):
        _assert_all_agree(op, scvt_mesh, _fields(scvt_mesh, kinds, rng), compiled)

    def test_sparse_coriolis_within_1e12_on_random_scvt(self, scvt_mesh, rng):
        """B1's two-matvec form reassociates the gather's row sums; the
        stated cross-backend tolerance (docs/numerics.md) bounds it."""
        fields = _fields(scvt_mesh, dict(_OPS)["coriolis_edge_term"], rng)
        want = dispatch("coriolis_edge_term", scvt_mesh, *fields, backend="numpy")
        got = dispatch("coriolis_edge_term", scvt_mesh, *fields, backend="sparse")
        assert not np.array_equal(got, want)  # a real second implementation
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("op", sorted(_CODEGEN_BITWISE))
    def test_codegen_bitwise_where_seed_claims(self, mesh3, rng, compiled, op):
        kinds = dict(_OPS)[op]
        fields = _fields(mesh3, kinds, rng)
        got = compiled[op](mesh3, *fields)
        want = dispatch(op, mesh3, *fields, backend="numpy")
        assert np.array_equal(got, want)


class TestFullModelEquivalence:
    """The acceptance run: a Galewsky RK-4 integration under each backend
    selected purely through ``SWConfig.backend`` agrees to <= 1e-12, at
    order 3 and at order 4 (whose ``h_edge`` chain the plan composes)."""

    @pytest.fixture(scope="class", params=[3, 4], ids=["order3", "order4"])
    def run_states(self, request):
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
                thickness_adv_order=request.param,
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
        dt=suggested_dt(mesh, case, GRAVITY), backend="sparse"
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
    assert {s.tags["backend"] for s in kernels} == {"sparse"}
    assert set(tracer.aggregate("backend", category="kernel")) == {"sparse"}
