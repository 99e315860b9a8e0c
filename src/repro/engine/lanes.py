"""One pinned thread per CPU, the only threads the numerical core starts: the
ensemble's member blocks (:func:`repro.ensemble.run._sweep`) and a serial
plan's independent ``K`` products (:func:`second_core`) run on them.  A
handoff is a lock release and acquire each way (13 - 17 us a round trip on 2
vCPUs); scipy's ``csr_matvec`` releases the interpreter lock meanwhile."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress

from ..obs.trace import get_tracer


class Lane:
    """The persistent thread pinned to ``cpu``, running the calls handed to
    it one at a time by whoever holds :attr:`claim`."""

    def __init__(self, cpu: int) -> None:
        # _slot holds the call handed over, then its (result, exception).
        self.claim, self.busy, self._slot = threading.Lock(), False, None
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        threading.Thread(target=self._serve, args=(cpu,), daemon=True).start()

    def _serve(self, cpu: int) -> None:
        with suppress(OSError):  # an unpinned lane still serves
            os.sched_setaffinity(0, {cpu})
        while self._go.acquire():
            fn, args = self._slot
            try:
                self._slot = (fn(*args), None)
            except BaseException as exc:  # noqa: BLE001 - join() raises it
                self._slot = (None, exc)
            self._done.release()

    def submit(self, fn, *args) -> None:
        self._slot, self.busy = (fn, args), True
        self._go.release()

    def join(self):
        """The call's result, or its exception raised here."""
        self._done.acquire()
        (result, error), self._slot, self.busy = self._slot, None, False
        if error is not None:
            raise error
        return result


_LANES: dict[int, Lane] = {}
_LOCK = threading.Lock()


@contextmanager
def claimed(cpus: list[int]):
    """The lanes of ``cpus[1:]`` while the caller runs pinned to ``cpus[0]``,
    or ``None`` (no pinning) while another thread holds one.  On exit every
    lane has finished its call and the caller's affinity is restored."""
    with _LOCK:
        lanes = [_LANES.get(c) or _LANES.setdefault(c, Lane(c)) for c in cpus[1:]]
    held = [lane for lane in lanes if lane.claim.acquire(blocking=False)]
    before = os.sched_getaffinity(0)
    try:
        if len(held) == len(lanes):
            os.sched_setaffinity(0, {cpus[0]})
        yield held if len(held) == len(lanes) else None
    finally:
        for lane in held:
            if lane.busy:  # the body raised: its exception is the one to keep
                with suppress(Exception):
                    lane.join()
            lane.claim.release()
        os.sched_setaffinity(0, before)


_ENGAGED, _FORKED = threading.local(), False


def engaged() -> Lane | None:
    """The lane the calling thread's plan hands its ``K`` products to."""
    return getattr(_ENGAGED, "lane", None)


@contextmanager
def second_core(wanted: bool = True):
    """Engage the second usable CPU's lane for the calling thread's plan,
    if ``wanted`` (it has work to hand over): not with one usable CPU, under
    the (single-threaded) tracer, in a forked child (a pool rank) or while
    another thread holds the lane."""
    cpus = sorted(os.sched_getaffinity(0)) if wanted else []
    if len(cpus) < 2 or _FORKED or engaged() or get_tracer().enabled:
        yield
        return
    with claimed(cpus[:2]) as held:
        _ENGAGED.lane = held and held[0]
        try:
            yield
        finally:
            _ENGAGED.lane = None


def _forget_lanes() -> None:  # their threads did not survive the fork
    global _LOCK, _FORKED
    _LANES.clear()
    _LOCK, _ENGAGED.lane, _FORKED = threading.Lock(), None, True


os.register_at_fork(after_in_child=_forget_lanes)
