"""Ensemble execution: N perturbed scenarios stepped in lockstep.

The members are the independent work of the paper's first Fig. 6 rung:
one block of them per usable CPU, each block on its own thread.

* :mod:`~repro.ensemble.members` — deterministic per-member initial
  conditions (seeded relative thickness perturbations, one independent
  rng stream per member).
* :mod:`~repro.ensemble.run` — :class:`~repro.ensemble.run.EnsembleRun`,
  the lockstep driver: every thread steps the members of its block one
  after another, each a serial state through the one step program
  (:func:`~repro.swm.timestep.rk4_step`) on the thread's own serial plan,
  so member ``k`` is its serial run by construction.  It keeps per-member
  invariants and divergence verdicts (a diverging member is quarantined or
  detached to a serial rollback continuation and never stepped again in
  the lockstep) and produces one :class:`~repro.swm.model.RunResult` per
  member.
* :mod:`~repro.ensemble.batch` — the column adapter the frozen benchmark
  probes still build; no run path uses it.

The public entry point is :func:`repro.api.run_ensemble` (CLI:
``python -m repro run --ensemble N``).
"""

from .batch import BatchedIntegrator
from .members import ensemble_initial_states, member_initial_state, member_rng
from .run import EnsembleResult, EnsembleRun, MemberVerdict, run_ensemble

__all__ = [
    "BatchedIntegrator",
    "EnsembleResult",
    "EnsembleRun",
    "MemberVerdict",
    "ensemble_initial_states",
    "member_initial_state",
    "member_rng",
    "run_ensemble",
]
