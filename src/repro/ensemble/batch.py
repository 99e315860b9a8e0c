"""The column adapter the frozen ``benchmarks/e2e`` probes still build.

Ensemble members step as serial states (:mod:`repro.ensemble.run`).  The
probes time ``compile_plan(..., batch=N)`` and :class:`BatchedIntegrator`
over ``State.stack`` blocks, so both run each ``(n, N)`` column through the
serial program: contiguous column copies go in, stacked outputs come out,
and column ``k`` is member ``k``'s serial result by construction.  This
module goes when ROADMAP item 1 thaws the probes.
"""

from dataclasses import fields

import numpy as np

from ..swm.timestep import RK4Integrator, StepResult

__all__ = ["BatchedIntegrator", "ColumnPlan"]


def _columns(block) -> list:
    """Each column of a stacked ``State`` / ``Diagnostics``, as contiguous copies."""
    names = [f.name for f in fields(block)]
    width = getattr(block, names[0]).shape[1]
    return [
        type(block)(**{n: np.ascontiguousarray(getattr(block, n)[:, k]) for n in names})
        for k in range(width)
    ]


def _stacked(items: list):
    """Per-member results of one type, stacked into one ``(n, N)`` block."""
    names = [f.name for f in fields(items[0])]
    return type(items[0])(
        **{n: np.stack([getattr(i, n) for i in items], axis=1) for n in names}
    )


class ColumnPlan:
    """``compiled_plan(..., batch=N)``: the serial plan run column by column."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def tend(self, state, diag, b_cell) -> tuple[np.ndarray, np.ndarray]:
        # The serial plan reuses its tendency buffers: copy each column out.
        tends = [
            [t.copy() for t in self.plan.tend(s, d, b_cell)]
            for s, d in zip(_columns(state), _columns(diag))
        ]
        return tuple(np.stack(col, axis=1) for col in zip(*tends))

    def diagnostics(self, state, f_vertex):
        return _stacked([self.plan.diagnostics(s, f_vertex) for s in _columns(state)])


class BatchedIntegrator:
    """RK-4 over ``State.stack`` blocks: each column steps through the serial
    :class:`~repro.swm.timestep.RK4Integrator` on the calling thread."""

    def __init__(self, mesh, config, b_cell, f_vertex, n_members):
        if config.backend != "sparse":
            raise ValueError(
                f"batching requires backend='sparse' (got {config.backend!r})"
            )
        if int(n_members) < 1:
            raise ValueError(f"n_members must be >= 1, got {n_members!r}")
        self.serial = RK4Integrator(mesh, config, b_cell, f_vertex)

    def diagnostics_for(self, state):
        return _stacked([self.serial.diagnostics_for(s) for s in _columns(state)])

    def step(self, state, diag) -> StepResult:
        steps = [
            self.serial.step(s, d) for s, d in zip(_columns(state), _columns(diag))
        ]
        return StepResult(
            state=_stacked([r.state for r in steps]),
            diagnostics=_stacked([r.diagnostics for r in steps]),
            reconstruction=_stacked([r.reconstruction for r in steps]),
        )
