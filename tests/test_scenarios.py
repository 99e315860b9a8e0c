"""The scenario library: registry round-trips and the case-plumbing fixes.

Three bugs motivated the registry, and each keeps a failing-before
regression test here:

* ``repro.obs.report`` carried a private 3-entry case dict, so
  ``run_traced("tc6")`` / ``run_traced("mountain")`` raised even though
  ``repro.api.resolve_case`` accepted both;
* ``suggested_dt`` computed the gravity-wave speed from
  ``max(thickness + topography)``, though the shallow-water phase speed
  depends on the *fluid* thickness only;
* a :class:`~repro.swm.model.RunResult` with an empty invariant history
  crashed ``mass_drift()`` with a bare ``IndexError`` (the durable-job
  reconstruction path; its end-to-end test lives in ``test_jobs.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import RunRequest, resolve_case, suggested_dt
from repro.constants import GRAVITY
from repro.swm import scenarios
from repro.swm.scenarios import (
    SCENARIOS,
    known_names,
    perturbed_case,
    scenario,
    scenario_for,
)
from repro.swm.testcases import TEST_CASES, initialize
from tests.oracles.harness import canonical_name


class TestRegistryRoundTrip:
    def test_every_alias_resolves_to_its_scenario(self):
        for sc in SCENARIOS:
            for alias in sc.all_names:
                assert scenario(alias) is sc, alias
                assert resolve_case(alias).name == sc.name, alias
                assert canonical_name(alias) == sc.name, alias

    def test_factory_name_matches_registry_name(self):
        for sc in SCENARIOS:
            assert sc.build().name == sc.name

    def test_williamson_numbers_resolve(self):
        for number in TEST_CASES:
            assert scenario(number).number == number
            assert resolve_case(number).number == number

    def test_non_williamson_numbers_do_not(self):
        # 8/9/10 are catalogue labels, not Williamson identities.
        for number in (8, 9, 10):
            with pytest.raises(ValueError, match="known numbers"):
                scenario(number)

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(ValueError, match="known names"):
            scenario("tc99")

    def test_every_scenario_initializes(self, mesh3):
        for sc in SCENARIOS:
            state, b = initialize(mesh3, sc.build())
            assert state.h.shape == (mesh3.nCells,), sc.name
            assert state.u.shape == (mesh3.nEdges,), sc.name
            assert b.shape == (mesh3.nCells,), sc.name
            assert np.all(np.isfinite(state.h)) and np.all(state.h > 0), sc.name
            assert np.all(np.isfinite(state.u)), sc.name
            assert np.all(np.isfinite(b)), sc.name
            if sc.topographic:
                assert np.max(np.abs(b)) > 0, sc.name
            else:
                assert np.max(np.abs(b)) == 0, sc.name

    def test_scenario_for_built_and_perturbed_cases(self):
        tc5 = resolve_case("tc5")
        assert scenario_for(tc5) is scenario("tc5")
        assert scenario_for(perturbed_case("galewsky", 1, 2)) is scenario(
            "galewsky"
        )
        assert scenario_for("perturbed:tc5:0:0") is scenario("tc5")
        unknown = dataclasses.replace(tc5, name="not_in_catalogue")
        assert scenario_for(unknown) is None

    def test_run_request_key_collapses_aliases(self, mesh3):
        keys = {
            RunRequest(case=token, mesh=mesh3, steps=2).key()
            for token in ("tc5", "mountain", 5, "isolated_mountain")
        }
        assert len(keys) == 1

    def test_run_request_key_separates_perturbed_members(self, mesh3):
        keys = {
            RunRequest(case=token, mesh=mesh3, steps=2).key()
            for token in (
                "galewsky",
                "perturbed:galewsky:0:0",
                "perturbed:galewsky:1:0",
                "perturbed:galewsky:0:1",
            )
        }
        assert len(keys) == 4


class TestStableCases:
    """A catalogue entry or token resolves to the same frozen object every
    time, so ``initialize`` reuses its discretization across calls."""

    def test_every_spelling_of_an_entry_is_one_object(self):
        for sc in SCENARIOS:
            spellings = [*sc.all_names, sc.name.upper(), f" {sc.name} "]
            assert len({id(resolve_case(n)) for n in spellings}) == 1, sc.name
        for number in TEST_CASES:
            assert resolve_case(number) is resolve_case(scenario(number).name)

    def test_a_token_resolves_to_one_object_per_spelling(self):
        token = "perturbed:galewsky:2:7"
        assert resolve_case(token) is resolve_case(token.upper())
        assert resolve_case(token) is not resolve_case("perturbed:galewsky:3:7")
        assert resolve_case(token).name == resolve_case(token + ":1e-06").name

    def test_a_built_case_is_returned_unchanged(self):
        built = perturbed_case("galewsky", 2, 7)
        assert resolve_case(built) is built
        assert built is not resolve_case("perturbed:galewsky:2:7")


class TestPerturbedFamily:
    def test_matches_ensemble_member_bitwise(self, mesh3):
        from repro.ensemble.members import member_initial_state

        base = resolve_case("galewsky")
        ref_state, ref_b = member_initial_state(mesh3, base, 2, 7, 1e-6)
        state, b = initialize(mesh3, perturbed_case("galewsky", 2, 7, 1e-6))
        assert np.array_equal(state.h, ref_state.h)
        assert np.array_equal(state.u, ref_state.u)
        assert np.array_equal(b, ref_b)

    def test_zero_amplitude_is_the_base_case(self, mesh3):
        base_state, _ = initialize(mesh3, resolve_case("galewsky"))
        state, _ = initialize(
            mesh3, perturbed_case("galewsky", 3, 5, amplitude=0.0)
        )
        assert np.array_equal(state.h, base_state.h)

    def test_members_differ(self, mesh3):
        a, _ = initialize(mesh3, perturbed_case("galewsky", 0, 0))
        b, _ = initialize(mesh3, perturbed_case("galewsky", 1, 0))
        assert not np.array_equal(a.h, b.h)

    def test_case_is_reusable(self, mesh3):
        """The closure draws a fresh rng per call: two inits agree bitwise."""
        case = perturbed_case("galewsky", 2, 7)
        first, _ = initialize(mesh3, case)
        second, _ = initialize(mesh3, case)
        assert np.array_equal(first.h, second.h)
        xc = mesh3.metrics.xCell
        assert np.array_equal(case.thickness(xc), case.thickness(xc))

    def test_token_spelling(self):
        case = resolve_case("perturbed:galewsky:2:7")
        assert case.name == "galewsky_jet+m2s7a1e-06"
        assert resolve_case("perturbed:tc5:0:3:1e-4").name == (
            "isolated_mountain+m0s3a0.0001"
        )

    @pytest.mark.parametrize("token", [
        "perturbed:galewsky",           # too few fields
        "perturbed:galewsky:2:7:1:9",   # too many
        "perturbed:galewsky:x:7",       # non-integer member
        "perturbed:galewsky:2:7:oops",  # non-float amplitude
    ])
    def test_malformed_tokens_raise(self, token):
        with pytest.raises(ValueError, match="malformed"):
            resolve_case(token)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="member"):
            perturbed_case("galewsky", member=-1)
        with pytest.raises(ValueError, match="amplitude"):
            perturbed_case("galewsky", amplitude=-1e-6)


class TestReportRouting:
    """Bugfix: the obs report's private case table is gone.

    Before the registry, ``run_traced`` accepted exactly
    {galewsky, tc2, tc5}; any other alias the rest of the package resolved
    — ``tc6``, ``mountain``, a Williamson number — raised ``ValueError``.
    """

    @pytest.mark.parametrize("token", ["tc6", "mountain"])
    def test_registry_aliases_work(self, token):
        from repro.obs.report import run_traced

        tracer, registry, mesh, config = run_traced(token, level=2, steps=1)
        assert tracer.finished(), token

    def test_unknown_case_still_raises(self):
        from repro.obs.report import run_traced

        with pytest.raises(ValueError, match="known names"):
            run_traced("tc99", level=2, steps=1)

    def test_advection_only_comes_from_the_registry(self):
        from repro.obs.report import run_traced

        tracer, registry, mesh, config = run_traced("tc1", level=2, steps=1)
        assert config.advection_only


class TestSuggestedDt:
    """Bugfix: the CFL wave speed uses the fluid thickness only."""

    def test_ignores_topography(self, mesh3):
        """Raising the bottom under a fixed fluid layer must not shrink dt.

        Before the fix the estimate used ``max(h + b)``: stacking an extra
        2 km of rock under the mountain (same fluid thickness) tightened
        the time step by ~15% for no physical reason.
        """
        case = resolve_case("tc5")
        taller = dataclasses.replace(
            case, topography=lambda points: 2.0 * case.topography(points)
        )
        assert suggested_dt(mesh3, taller, GRAVITY) == suggested_dt(
            mesh3, case, GRAVITY
        )

    def test_tc5_matches_fluid_thickness_formula(self, mesh3):
        case = resolve_case("tc5")
        met = mesh3.metrics
        h = case.thickness(met.xCell)
        umax = float(np.max(np.linalg.norm(case.velocity(met.xCell), axis=1)))
        expected = (
            0.5 * float(np.min(met.dcEdge))
            / (umax + np.sqrt(GRAVITY * float(np.max(h))))
        )
        assert suggested_dt(mesh3, case, GRAVITY, cfl=0.5) == expected


class TestDriftAccessors:
    """Bugfix: an endpoint-free RunResult refuses drift questions clearly."""

    def test_empty_history_raises_value_error(self, mesh3):
        from repro.api import run

        result = run("tc2", mesh=mesh3, steps=1)
        hollow = dataclasses.replace(result, invariant_history=[])
        with pytest.raises(ValueError, match="invariant records"):
            hollow.mass_drift()
        with pytest.raises(ValueError, match="invariant records"):
            hollow.energy_drift()
        # the real result still answers
        assert np.isfinite(result.mass_drift())


class TestNewCases:
    def test_dam_break_is_a_two_level_cap_at_rest(self, mesh3):
        case = resolve_case("dambreak")
        state, b = initialize(mesh3, case)
        levels = np.unique(state.h)
        assert set(levels) == {2000.0, 2500.0}
        assert np.all(state.u == 0.0)
        assert np.all(b == 0.0)
        assert scenario("dam_break").discontinuous

    def test_flow_over_ridge_has_bounded_ridge(self, mesh3):
        case = resolve_case("ridge")
        state, b = initialize(mesh3, case)
        assert float(np.max(b)) == pytest.approx(1500.0, rel=1e-3)
        assert float(np.min(b)) == 0.0
        assert np.all(state.h > 0)

    def test_balanced_jet_is_galewsky_without_the_bump(self, mesh3):
        bumped, _ = initialize(mesh3, resolve_case("galewsky"))
        flat, _ = initialize(mesh3, resolve_case("galewsky_balanced"))
        assert not np.array_equal(bumped.h, flat.h)
        # the bump is a small positive perturbation: the balanced field
        # is nowhere thicker than the perturbed one
        assert np.all(bumped.h - flat.h >= -1e-9)
