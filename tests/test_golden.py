"""Golden-run regression matrix: pinned invariant trajectories.

``tests/golden/<case>-l3-<backend>.json`` pins the mass / total-energy /
potential-enstrophy trajectory of a 10-step run of every golden-flagged
scenario (``repro.swm.scenarios``) on the level-3 mesh, stored as
``float.hex()`` strings so the comparison is *bitwise*, not approximate.
The matrix covers three axes:

* **case** — every scenario with ``golden=True`` in the registry
  (mountain, Rossby–Haurwitz, Galewsky, dam break, ridge);
* **backend** — numpy / sparse / plan (the fused executor);
* **mode** — serial, lockstep and pool executors.  Decomposed runs only
  record endpoint invariants, so mode cells assert the start/end entries
  of the *same* golden file the serial cell pinned — the
  bitwise-identical execution contract, enforced per case.

Any change to the numerics — intended or not — trips these tests; an
intended change regenerates the registry with::

    REPRO_GOLDEN_REGEN=1 python -m pytest tests/test_golden.py

(or ``python -m repro golden regen``).  The resumed-run check closes the
durability loop: a run interrupted mid-trajectory and resumed must
reproduce the golden invariants exactly from its restart point onward.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import resolve_case, run, suggested_dt
from repro.constants import GRAVITY
from repro.resilience.faults import FaultInjected, crash_at
from repro.swm.config import SWConfig
from repro.swm.scenarios import SCENARIOS, scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
STEPS = 10
LEVEL = 3
REGEN = bool(os.environ.get("REPRO_GOLDEN_REGEN"))

CASES = tuple(sc.name for sc in SCENARIOS if sc.golden)

BACKENDS = {
    "numpy": {"backend": "numpy"},
    "sparse": {"backend": "sparse"},
    "plan": {"backend": "sparse", "plan": True},
}

MODES = {
    "serial": {},
    "lockstep": {"parallel": "lockstep", "ranks": 2},
    "pool": {"parallel": "pool", "ranks": 2},
}

KEYS = ("mass", "total_energy", "potential_enstrophy")


def skip_reason(case: str, backend: str, mode: str) -> str | None:
    """Why a matrix cell does not run, or ``None`` if it does.

    Pool cells spawn worker processes (the expensive executor), so they
    run one backend per case — sparse, the production numerics — rather
    than all three; lockstep and serial cover the full backend axis.
    """
    if mode == "pool" and backend != "sparse":
        return "pool cells run the sparse backend only (process spawn cost)"
    return None


def expected_golden_files() -> set[str]:
    """Every file the matrix (plus the ensemble pin) reads or writes.

    ``test_repo_hygiene`` asserts ``tests/golden/`` holds exactly these,
    so a renamed case cannot leave an orphaned, never-checked golden
    behind.
    """
    files = {
        f"{case}-l{LEVEL}-{backend}.json"
        for case in CASES
        for backend in BACKENDS
    }
    files.add(f"galewsky_jet-l{LEVEL}-ensemble.json")
    return files


def _config(case: str, mesh, backend: str, **extra) -> SWConfig:
    sc = scenario(case)
    dt = suggested_dt(mesh, resolve_case(case), GRAVITY, cfl=sc.suggested_cfl)
    return SWConfig(dt=dt, thickness_adv_order=4, **BACKENDS[backend], **extra)


def _trajectory(result) -> dict[str, list[str]]:
    hist = result.invariant_history
    return {
        "mass": [float.hex(i.mass) for i in hist],
        "total_energy": [float.hex(i.total_energy) for i in hist],
        "potential_enstrophy": [
            float.hex(i.potential_enstrophy) for i in hist
        ],
    }


def _golden_path(case: str, backend: str) -> Path:
    return GOLDEN_DIR / f"{case}-l{LEVEL}-{backend}.json"


def _load_golden(case: str, backend: str) -> dict:
    path = _golden_path(case, backend)
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; regenerate the registry with "
            f"REPRO_GOLDEN_REGEN=1 python -m pytest tests/test_golden.py"
        )
    return json.loads(path.read_text())


def _mismatches(payload: dict, golden: dict) -> list[str]:
    """Keys on which ``payload`` deviates from ``golden`` (hex-exact)."""
    bad = [] if payload["dt"] == golden["dt"] else ["dt"]
    bad.extend(k for k in KEYS if payload[k] != golden[k])
    return bad


class TestGoldenMatrix:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_serial_matches_golden(self, mesh3, case, backend):
        config = _config(case, mesh3, backend)
        result = run(
            case, mesh=mesh3, config=config, steps=STEPS,
            invariant_interval=1,
        )
        payload = {
            "case": case,
            "level": LEVEL,
            "steps": STEPS,
            "cfl": scenario(case).suggested_cfl,
            "dt": float.hex(config.dt),
            **_trajectory(result),
        }
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            _golden_path(case, backend).write_text(
                json.dumps(payload, indent=2) + "\n"
            )
            return
        golden = _load_golden(case, backend)
        bad = _mismatches(payload, golden)
        assert not bad, (
            f"{bad} deviate from tests/golden for case {case!r} backend "
            f"{backend!r}; if the numerics change is intended, regenerate "
            f"with REPRO_GOLDEN_REGEN=1"
        )

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("mode", [m for m in MODES if m != "serial"])
    def test_decomposed_matches_golden_endpoints(
        self, mesh3, case, backend, mode
    ):
        """Lockstep/pool rejoin the serial golden at both endpoints.

        Decomposed executors record ``[start, end]`` invariants only, and
        the execution contract says owned state is bitwise-identical to
        serial — so both entries must equal the serial golden's first and
        last entries to the bit.
        """
        reason = skip_reason(case, backend, mode)
        if reason:
            pytest.skip(reason)
        if REGEN:
            pytest.skip("regenerating (serial cells write the files)")
        golden = _load_golden(case, backend)
        config = _config(case, mesh3, backend, **MODES[mode])
        result = run(case, mesh=mesh3, config=config, steps=STEPS)
        got = _trajectory(result)
        assert float.hex(config.dt) == golden["dt"], "time step drifted"
        for key in KEYS:
            assert len(got[key]) == 2
            assert got[key][0] == golden[key][0], (
                f"{mode} initial {key} deviates from serial for {case!r}"
            )
            assert got[key][-1] == golden[key][-1], (
                f"{mode} final {key} deviates from serial for {case!r}"
            )

    @pytest.mark.parametrize("case", CASES)
    def test_backends_share_one_trajectory(self, case):
        """The pinned files agree to ~1e-13: numpy and plan against sparse.

        The golden configs run order 4, whose ``h_edge`` chain the plan
        composes into one matrix (reassociated row sums), and the numpy
        backend sums fluxes in a different association order: both are
        allowed round-off-level divergence only.
        """
        if REGEN:
            pytest.skip("regenerating")
        goldens = {b: _load_golden(case, b) for b in BACKENDS}
        for other in ("numpy", "plan"):
            assert goldens[other]["dt"] == goldens["sparse"]["dt"]
            for key in KEYS:
                ref = [float.fromhex(x) for x in goldens["sparse"][key]]
                got = [float.fromhex(x) for x in goldens[other][key]]
                for a, b in zip(ref, got):
                    assert abs(a - b) <= 1e-13 * abs(a), (other, key)

    def test_matrix_trips_on_one_ulp(self):
        """A single-ulp perturbation anywhere in a trajectory is caught.

        This is the property the whole registry rests on: ``float.hex``
        round-trips doubles exactly, so the weakest possible numerical
        drift — one unit in the last place of one invariant at one step —
        already shows up as a mismatch.
        """
        if REGEN:
            pytest.skip("regenerating")
        golden = _load_golden(CASES[0], "sparse")
        payload = json.loads(json.dumps(golden))  # deep copy
        assert _mismatches(payload, golden) == []
        val = float.fromhex(payload["total_energy"][-1])
        payload["total_energy"][-1] = float.hex(np.nextafter(val, np.inf))
        assert _mismatches(payload, golden) == ["total_energy"]


class TestGoldenEnsembleAndResume:
    def test_ensemble_mean_matches_golden(self, mesh3):
        """``galewsky_jet-l3-ensemble.json`` pins the 4-member ensemble-
        *mean* invariant trajectory (fixed seed, lockstep).  This guards
        the whole ensemble stack — member ICs, the member blocks on their
        threads, each member's serial run of the config — with one file."""
        from repro.api import run_ensemble

        n_members = 4
        config = _config(
            "galewsky_jet", mesh3, "sparse", ensemble=n_members,
            ensemble_seed=2015, ensemble_amplitude=1e-6,
        )
        ens = run_ensemble(
            "galewsky_jet", mesh=mesh3, config=config, steps=STEPS,
            invariant_interval=1,
        )
        assert [v.status for v in ens.verdicts] == ["ok"] * n_members
        payload = {
            "case": "galewsky_jet",
            "level": LEVEL,
            "steps": STEPS,
            "ensemble": n_members,
            "seed": 2015,
            "dt": float.hex(config.dt),
            "mass": [float.hex(i.mass) for i in ens.mean_invariants()],
            "total_energy": [
                float.hex(i.total_energy) for i in ens.mean_invariants()
            ],
            "potential_enstrophy": [
                float.hex(i.potential_enstrophy)
                for i in ens.mean_invariants()
            ],
        }
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            _golden_path("galewsky_jet", "ensemble").write_text(
                json.dumps(payload, indent=2) + "\n"
            )
            return
        golden = _load_golden("galewsky_jet", "ensemble")
        bad = _mismatches(payload, golden)
        assert not bad, (
            f"ensemble-mean {bad} deviate from tests/golden; if the "
            f"numerics change is intended, regenerate with "
            f"REPRO_GOLDEN_REGEN=1"
        )

    def test_resumed_run_matches_golden(self, mesh3, tmp_path):
        """Interrupt at step 6, resume: invariants rejoin the golden tail."""
        if REGEN:
            pytest.skip("regenerating")
        config = _config(
            "galewsky_jet", mesh3, "numpy", checkpoint_interval=2
        )
        d = tmp_path / "run"
        with crash_at(6), pytest.raises(FaultInjected):
            run(
                "galewsky_jet", mesh=mesh3, config=config, steps=STEPS,
                run_dir=d, invariant_interval=1,
            )
        resumed = run(resume=d, mesh=mesh3, invariant_interval=1)
        tail = _trajectory(resumed)
        golden = _load_golden("galewsky_jet", "numpy")
        # The resumed history covers steps 4..10 (restart point onward).
        start = STEPS + 1 - len(tail["mass"])
        assert start == 4
        for key in KEYS:
            assert tail[key] == golden[key][start:], key
