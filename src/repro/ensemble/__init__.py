"""Batched ensemble execution: N scenarios through one compiled plan.

Serving production traffic means many concurrent scenarios, not one big
run.  This package adds the batch dimension on top of the execution stack:

* :mod:`~repro.ensemble.members` — deterministic per-member initial
  conditions (seeded relative thickness perturbations, one independent
  rng stream per member).
* :mod:`~repro.ensemble.run` — :class:`~repro.ensemble.run.EnsembleRun`,
  the lockstep driver: it stacks the members into one ``(n, N)`` state and
  steps it with the plain :class:`~repro.swm.timestep.RK4Integrator` (the
  one step program is shape-agnostic over the member axis; column ``k`` is
  bitwise identical to a serial integration of member ``k``), keeping
  per-member invariants and divergence verdicts
  (a diverging member is quarantined or detached to a serial rollback
  continuation without stalling the batch), producing one
  :class:`~repro.swm.model.RunResult` per member.

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
