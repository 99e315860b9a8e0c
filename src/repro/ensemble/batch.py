"""Compatibility constructor kept for ``benchmarks/e2e/probes.py``.

The batched RK-4 loop is gone: :class:`~repro.swm.timestep.RK4Integrator`
steps ``(n, N)`` member blocks itself.  The frozen benchmark probes still
construct this name; it goes when ROADMAP item 1 thaws them.
"""

import dataclasses

from ..engine.plan import compiled_plan
from ..swm.timestep import RK4Integrator

__all__ = ["BatchedIntegrator"]


class BatchedIntegrator(RK4Integrator):
    def __init__(self, mesh, config, b_cell, f_vertex, n_members, registry=None):
        if config.backend != "sparse":
            raise ValueError(f"batching requires backend='sparse' (got {config.backend!r})")
        if int(n_members) < 1:
            raise ValueError(f"n_members must be >= 1, got {n_members!r}")
        config = dataclasses.replace(config, plan=True)
        super().__init__(mesh, config, b_cell, f_vertex, registry=registry)
        compiled_plan(mesh, config, registry=registry, batch=int(n_members))  # warm
