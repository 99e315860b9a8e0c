"""Ensemble execution: N perturbed scenarios stepped on every usable CPU.

The members are the independent work of the paper's first Fig. 6 rung:
one worker per usable CPU pulls the next member-step as soon as it is free.

* :mod:`~repro.ensemble.members` — deterministic per-member initial
  conditions (seeded relative thickness perturbations, one independent
  rng stream per member).
* :mod:`~repro.ensemble.run` — :class:`~repro.ensemble.run.EnsembleRun`,
  the run loop: a worker steps whichever member is ready, each a serial
  state through the one step program (:func:`~repro.swm.timestep.rk4_step`)
  on the worker's own serial plan, so member ``k`` is its serial run by
  construction.  It keeps per-member invariants and divergence verdicts (a
  diverging member is quarantined or detached to a serial rollback
  continuation and never stepped again by a worker) and produces one
  :class:`~repro.swm.model.RunResult` per member.
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
