"""The comm-avoiding halo schedule (repro.dataflow.schedule + runners).

Three layers of evidence that eliding and thinning sync points is safe:

* **Derivation units** — the schedule derived from the Figure 4 step
  graph elides exactly the points whose halo the graph proves clean, and
  sizes the survivors (variables, ring depth) from the config.
* **Lint** — every sync point the static schedule runs is either kept by
  the dataflow derivation for *some* config, or explicitly whitelisted
  with a written rationale.  No unexplained synchronization.
* **Skip-refresh oracle** — on random (non-icosahedral) SCVTs and a grid
  of configs, brute force every ``(sync point, field)`` pair by skipping
  exactly that halo refresh in the static lockstep runner: every pair
  whose skip perturbs the owned state must be kept by the derived
  schedule (``needed ⊆ derived``).

Plus the end-to-end contract: the lockstep runner under the dataflow
schedule stays bitwise identical to serial while exchanging half the sync
points and a fraction of the bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.dataflow.schedule import (
    STATIC_SYNC_WHITELIST,
    SYNC_POINT_NAMES,
    derive_halo_schedule,
    halo_schedule_for,
    static_halo_schedule,
)
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh
from repro.parallel import (
    DecomposedShallowWater,
    build_local_mesh,
    halo_layers_required,
    partition_cells,
)
from repro.parallel.halo import (
    exchange_bytes,
    ring_halo_indices,
    schedule_exchange_bytes,
)
from repro.swm import ShallowWaterModel, SWConfig, steady_zonal_flow, suggested_dt

#: The config grid the lint and oracle sweep: thickness advection order
#: x APVM upwinding x viscosity (the dimensions that change the stencil
#: footprint), plus the advection-only degenerate case.
CONFIG_GRID = [
    dict(thickness_adv_order=2),
    dict(thickness_adv_order=3, apvm_upwinding=0.5),
    dict(thickness_adv_order=4),
    dict(thickness_adv_order=2, viscosity=1.0e4),
    dict(thickness_adv_order=4, apvm_upwinding=0.5, viscosity=1.0e4),
    dict(advection_only=True),
]


def _cfg(**kw) -> SWConfig:
    return SWConfig(dt=60.0, **kw)


class TestDerivation:
    def test_static_keeps_all_eight_points(self):
        sched = static_halo_schedule(_cfg())
        assert sched.mode == "static"
        assert tuple(p.name for p in sched.points) == SYNC_POINT_NAMES
        assert sched.elided == ()
        assert sched.exchanges_per_step == 8

    @pytest.mark.parametrize("kw", CONFIG_GRID, ids=str)
    def test_dataflow_elides_every_pre_point(self, kw):
        sched = derive_halo_schedule(_cfg(**kw))
        assert sched.mode == "dataflow"
        # The RK substate entering compute_tend was exchanged when it was
        # produced (post@s{k-1}); the accepted state entering stage 1 was
        # exchanged at the previous post@s4 (or seeded globally).
        assert set(sched.elided) >= {"pre@s1", "pre@s2", "pre@s3", "pre@s4"}
        assert sched.exchanges_per_step <= 4
        assert sched.entry("post@s4") is not None  # h is always dirty

    def test_advection_only_drops_velocity_everywhere(self):
        sched = derive_halo_schedule(_cfg(advection_only=True))
        for point in sched.points:
            assert point.fields == ("h",)

    def test_dynamics_keeps_both_fields_at_post_points(self):
        sched = derive_halo_schedule(_cfg(thickness_adv_order=4))
        for point in sched.points:
            assert point.fields == ("h", "u")

    @pytest.mark.parametrize("order,apvm", [(2, 0.0), (3, 0.5), (4, 0.0)])
    def test_ring_depth_matches_stencil_requirement(self, order, apvm):
        cfg = _cfg(thickness_adv_order=order, apvm_upwinding=apvm)
        required = halo_layers_required(order, apvm != 0.0)
        for sched in (static_halo_schedule(cfg), derive_halo_schedule(cfg)):
            assert {p.rings for p in sched.points} == {required}

    def test_halo_schedule_for_dispatches_on_config(self):
        assert halo_schedule_for(_cfg()).mode == "dataflow"
        assert halo_schedule_for(_cfg(halo_schedule="static")).mode == "static"

    def test_config_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="halo_schedule"):
            _cfg(halo_schedule="psychic")


class TestStaticScheduleLint:
    """No sync point without a justification.

    Every point the static schedule executes must either be *provably
    needed* (the dataflow derivation keeps it for at least one config in
    the grid) or carry an explicit whitelist rationale explaining why the
    static schedule runs it anyway.
    """

    def test_every_static_point_justified_or_whitelisted(self):
        derived_somewhere = set()
        for kw in CONFIG_GRID:
            sched = derive_halo_schedule(_cfg(**kw))
            derived_somewhere.update(p.name for p in sched.points)
        for name in SYNC_POINT_NAMES:
            assert name in derived_somewhere or name in STATIC_SYNC_WHITELIST, (
                f"static sync point {name!r} is neither kept by the dataflow "
                f"derivation for any config nor whitelisted with a rationale"
            )

    def test_whitelist_entries_carry_rationales(self):
        for name, rationale in STATIC_SYNC_WHITELIST.items():
            assert name in SYNC_POINT_NAMES
            assert isinstance(rationale, str) and len(rationale.split()) >= 5

    def test_whitelist_is_not_stale(self):
        """A point the derivation keeps for every config needs no excuse."""
        always_kept = set(SYNC_POINT_NAMES)
        for kw in CONFIG_GRID:
            sched = derive_halo_schedule(_cfg(**kw))
            always_kept &= {p.name for p in sched.points}
        assert not always_kept & set(STATIC_SYNC_WHITELIST)


class TestRingIndices:
    def test_ring_subset_matches_shallower_local_mesh(self, mesh3):
        owner = partition_cells(mesh3, 3)
        for r in range(3):
            deep = build_local_mesh(mesh3, owner, r, halo_layers=3)
            shallow = build_local_mesh(mesh3, owner, r, halo_layers=2)
            cell_idx, edge_idx = ring_halo_indices(deep, 2)
            assert np.array_equal(
                np.sort(deep.cells_global[cell_idx]),
                np.sort(shallow.cells_global[shallow.n_owned_cells :]),
            )
            assert np.array_equal(
                np.sort(deep.edges_global[edge_idx]),
                np.sort(shallow.edges_global[shallow.n_owned_edges :]),
            )

    def test_full_depth_rings_cover_the_whole_halo(self, mesh3):
        owner = partition_cells(mesh3, 2)
        lm = build_local_mesh(mesh3, owner, 0, halo_layers=3)
        cell_idx, edge_idx = ring_halo_indices(lm, 3)
        assert cell_idx.size == lm.n_halo_cells
        assert edge_idx.size == lm.n_halo_edges

    def test_schedule_bytes_static_vs_dataflow(self, mesh3):
        cfg = _cfg(thickness_adv_order=4)
        owner = partition_cells(mesh3, 2)
        layers = halo_layers_required(4, False)
        meshes = [
            build_local_mesh(mesh3, owner, r, halo_layers=layers)
            for r in range(2)
        ]
        static_bytes = schedule_exchange_bytes(meshes, static_halo_schedule(cfg))
        assert static_bytes == 8 * exchange_bytes(meshes)
        dataflow_bytes = schedule_exchange_bytes(meshes, derive_halo_schedule(cfg))
        assert 0 < dataflow_bytes <= static_bytes / 2


class TestLockstepDataflow:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(thickness_adv_order=2),
            dict(thickness_adv_order=4),
            dict(thickness_adv_order=3, apvm_upwinding=0.5, viscosity=1.0e4),
        ],
        ids=str,
    )
    def test_bitwise_equal_to_serial_with_half_the_exchanges(self, mesh3, kw):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(mesh3, case, GRAVITY, cfl=0.5), **kw)
        model = ShallowWaterModel(mesh3, cfg)
        model.initialize(case)
        serial = model.run(steps=3)

        dec = DecomposedShallowWater(
            mesh3, 3, case, dataclasses.replace(cfg, halo_schedule="dataflow")
        )
        res = dec.run(3)
        assert np.array_equal(res.state.h, serial.state.h)
        assert np.array_equal(res.state.u, serial.state.u)
        assert dec.exchange_count == dec.schedule.exchanges_per_step * 3
        assert dec.exchange_count <= 4 * 3  # half of the 8-per-step static


# --------------------------------------------------------------------- oracle
@pytest.fixture(scope="module", params=[11, 23])
def oracle_mesh(request):
    """A small random (non-icosahedral) SCVT, so the oracle cannot lean on
    icosahedral symmetry."""
    rng = np.random.default_rng(request.param)
    pts = lloyd_relax(
        normalize(rng.standard_normal((120, 3))), iterations=60
    ).points
    return Mesh.from_points(pts, name=f"oracle120-{request.param}")


class TestSkipRefreshOracle:
    """Brute-force soundness: the derived schedule ⊇ the needed refreshes.

    For every ``(sync point, field)`` pair, run the *static* lockstep
    runner with exactly that one halo refresh skipped.  If the owned state
    diverges from serial, the refresh was needed — and must be kept by the
    dataflow derivation.  (The converse — pairs the derivation drops never
    diverge — is implied: ``needed ⊆ kept`` checks every dropped pair.)
    """

    @pytest.mark.parametrize(
        "kw",
        [
            dict(thickness_adv_order=2),
            dict(thickness_adv_order=3, apvm_upwinding=0.5),
            dict(thickness_adv_order=4, viscosity=1.0e4),
        ],
        ids=str,
    )
    def test_needed_refreshes_are_kept(self, oracle_mesh, kw):
        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(oracle_mesh, case, GRAVITY, cfl=0.5), **kw)
        model = ShallowWaterModel(oracle_mesh, cfg)
        model.initialize(case)
        serial = model.run(steps=2).state

        kept = {
            (p.name, f)
            for p in derive_halo_schedule(cfg).points
            for f in p.fields
        }
        needed = set()
        for sync in SYNC_POINT_NAMES:
            for field in ("h", "u"):
                dec = DecomposedShallowWater(oracle_mesh, 2, case, cfg)
                dec._skip_refresh = (sync, field)
                res = dec.run(2)
                if not (
                    np.array_equal(res.state.h, serial.h)
                    and np.array_equal(res.state.u, serial.u)
                ):
                    needed.add((sync, field))
        assert needed <= kept, f"needed-but-elided refreshes: {sorted(needed - kept)}"
        # The oracle must have teeth: dynamics needs every post refresh.
        assert {("post@s1", "h"), ("post@s4", "h")} <= needed

    def test_advection_only_never_needs_velocity(self, oracle_mesh):
        case = steady_zonal_flow()
        cfg = SWConfig(
            dt=suggested_dt(oracle_mesh, case, GRAVITY, cfl=0.5),
            advection_only=True,
        )
        model = ShallowWaterModel(oracle_mesh, cfg)
        model.initialize(case)
        serial = model.run(steps=2).state
        for sync in SYNC_POINT_NAMES:
            dec = DecomposedShallowWater(oracle_mesh, 2, case, cfg)
            dec._skip_refresh = (sync, "u")
            res = dec.run(2)
            assert np.array_equal(res.state.h, serial.h)
            assert np.array_equal(res.state.u, serial.u)
