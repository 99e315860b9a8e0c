"""The chaos crash point: the one fault injected into a run.

A durable run must survive the process itself dying mid-integration and
resume bitwise from its run directory.  Testing that needs the process to
die at a chosen step: the one run loop,
:meth:`repro.swm.model.ShallowWaterModel.run`, calls :func:`crash_point`
once for every integration step about to start, and :func:`crash_at` arms
it for one step number.

Armed with ``kill=True`` (``python -m repro run --chaos-crash-at N``) the
point delivers a real ``SIGKILL`` to the current process — no exception, no
cleanup, no ``atexit``.  Otherwise it raises :class:`FaultInjected`, which
the in-process crash-and-resume tests catch where a kill would have landed.
Unarmed, it is one module-global ``None`` check.

Every other failure the tests exercise is real, not injected: a pool worker
killed with ``SIGKILL``, a step file or a manifest written past
``RLIMIT_FSIZE``.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Iterator

__all__ = ["FaultInjected", "crash_at", "crash_point"]


class FaultInjected(RuntimeError):
    """The armed crash point fired in raise mode (never raised by a real
    failure)."""


#: ``(step, kill)`` while :func:`crash_at` is armed.
_CRASH: tuple[int, bool] | None = None


@contextmanager
def crash_at(step: int, *, kill: bool = False) -> Iterator[None]:
    """Arm the crash point for integration step ``step`` within the block."""
    global _CRASH
    old, _CRASH = _CRASH, (step, kill)
    try:
        yield
    finally:
        _CRASH = old


def crash_point(step: int) -> None:
    """Integration step ``step`` is about to start: crash here if armed."""
    if _CRASH is not None and _CRASH[0] == step:
        if _CRASH[1]:
            os.kill(os.getpid(), signal.SIGKILL)
        raise FaultInjected(f"injected crash as step {step} starts")
