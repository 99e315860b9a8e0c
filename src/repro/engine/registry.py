"""The kernel registry: one dispatch point for every stencil operator.

The paper's premise is that the whole RK-4 loop is a composition of the
eight Table I stencil patterns; its conclusion names interchangeable,
automatically generated implementations as the way to exploit that.  This
module is the mechanism: a :class:`KernelRegistry` maps *operator* names
(``"flux_divergence"``, ``"vorticity"``, ...) to one callable per *backend*,
and Algorithm-1 *kernel* names (``"compute_tend"``, ...) to the driver
functions of :mod:`repro.swm` — so the integrator, the tests, the CLI and
the hybrid layer all resolve work through the same table instead of
importing implementations directly (the Loop-of-stencil-reduce shape: one
pattern abstraction, many interchangeable backends).

Two backends ship (see :mod:`repro.engine.backends`):

``numpy``
    The production gather-form operators of :mod:`repro.swm.operators`
    (Algorithms 3/4 — label matrices, branch-free padding).
``sparse``
    Fixed-sparsity stencils compiled once per mesh into CSR operators and
    applied by scipy's compiled matvec kernel (:mod:`repro.engine.sparse`),
    with a two-level in-memory + versioned on-disk operator cache.

Both implement every operator; asking for an implementation that was never
registered is a ``KeyError``.  Every dispatch is timed into the
process-wide :class:`~repro.obs.metrics.MetricsRegistry` under
``engine.op`` tagged with ``(op, pattern, backend)`` — the raw material of
the per-backend cost report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs.metrics import get_registry as _get_metrics

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "OpEntry",
    "KernelRegistry",
    "default_registry",
    "dispatch",
]

#: The backends registered by :mod:`repro.engine.backends`.
BACKENDS: tuple[str, ...] = ("numpy", "sparse")

DEFAULT_BACKEND = "numpy"


@dataclass
class OpEntry:
    """One registered stencil operator and its per-backend implementations.

    Attributes
    ----------
    op : str
        Operator name (the dispatch key).
    pattern : str or None
        Table I label this operator executes (``"A1"``, fused ``"C1,C2"``),
        or ``None`` for helper operators that run inside another label's
        span (e.g. the Bernoulli gradient inside B1).
    kind : str or None
        Stencil shape letter A-H.
    kernel : str or None
        Owning Algorithm-1 kernel (attributed from the catalog).
    input_point / output_point : PointType or None
        Point types of the gathered inputs and of the output.
    stencil : callable or None
        ``stencil(mesh) -> (n_out, lanes) int array`` returning the gather
        table (−1 on padded lanes): the boundary band a row cut needs.
    no_split : bool
        Marks operators whose output a row cut does not partition (e.g.
        tuple-valued sweeps).
    impls : dict
        backend name -> callable ``fn(mesh, *fields)``.
    """

    op: str
    pattern: str | None = None
    kind: str | None = None
    kernel: str | None = None
    input_point: object | None = None
    output_point: object | None = None
    stencil: Callable | None = None
    no_split: bool = False
    impls: dict[str, Callable] = field(default_factory=dict)

    def resolve(self, backend: str) -> Callable:
        """The implementation registered for ``backend``."""
        try:
            return self.impls[backend]
        except KeyError:
            raise KeyError(
                f"operator {self.op!r} has no {backend!r} implementation; "
                f"registered: {sorted(self.impls)}"
            ) from None


class KernelRegistry:
    """Maps operator and Algorithm-1 kernel names to callables per backend."""

    def __init__(self) -> None:
        self._ops: dict[str, OpEntry] = {}
        self._kernels: dict[str, Callable] = {}

    def __reduce__(self):
        """Pickle support for worker processes.

        Registered implementations include closures that cannot cross a
        process boundary, so a registry never pickles by value.  The
        process-default registry pickles as "rebuild the default in the
        receiving process" — each pool worker then owns an equivalent,
        independently built table (same registrations, fresh timers).
        Custom registries must be rebuilt inside the worker.
        """
        if self is _DEFAULT:
            return (default_registry, ())
        raise TypeError(
            "only the process-default KernelRegistry is picklable (it is "
            "rebuilt on unpickling); construct custom registries inside "
            "each worker process instead"
        )

    # ------------------------------------------------------------- operators
    def register(self, op: str, backend: str, fn: Callable, **meta) -> OpEntry:
        """Register ``fn`` as the ``backend`` implementation of ``op``.

        ``meta`` (pattern, kind, kernel, input_point, output_point, stencil,
        no_split) is recorded on first registration of the operator.
        """
        entry = self._ops.get(op)
        if entry is None:
            entry = OpEntry(op=op, **meta)
            self._ops[op] = entry
        if backend in entry.impls:
            raise ValueError(f"operator {op!r} already has a {backend!r} backend")
        entry.impls[backend] = fn
        return entry

    def op(self, name: str) -> OpEntry:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(
                f"unknown operator {name!r}; registered: {sorted(self._ops)}"
            ) from None

    def ops(self, backend: str | None = None) -> list[str]:
        """All operator names, or only those ``backend`` natively implements."""
        if backend is None:
            return sorted(self._ops)
        return sorted(op for op, e in self._ops.items() if backend in e.impls)

    def backends(self) -> list[str]:
        """Every backend name that appears in at least one registration."""
        names = {b for e in self._ops.values() for b in e.impls}
        return sorted(names)

    def labels(self) -> set[str]:
        """All Table I labels served by registered operators (un-fused)."""
        out: set[str] = set()
        for e in self._ops.values():
            if e.pattern:
                out.update(e.pattern.split(","))
        return out

    def op_for_label(self, label: str) -> OpEntry:
        """The operator entry that executes Table I label ``label``."""
        for e in self._ops.values():
            if e.pattern and label in e.pattern.split(","):
                return e
        raise KeyError(f"no registered operator executes pattern {label!r}")

    # --------------------------------------------------- Algorithm-1 kernels
    def register_kernel(self, name: str, fn: Callable) -> None:
        """Register an Algorithm-1 kernel driver under its paper name."""
        if name in self._kernels:
            raise ValueError(f"kernel {name!r} already registered")
        self._kernels[name] = fn

    def kernel(self, name: str) -> Callable:
        try:
            return self._kernels[name]
        except KeyError:
            raise KeyError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def kernels(self) -> list[str]:
        return sorted(self._kernels)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, op: str, mesh, *fields, backend: str = DEFAULT_BACKEND):
        """Execute ``op`` on ``mesh`` under ``backend``, recording an
        ``engine.op`` timer tagged ``(op, pattern, backend)``."""
        entry = self.op(op)
        fn = entry.resolve(backend)
        timer = _get_metrics().timer(
            "engine.op", op=op, pattern=entry.pattern or "-", backend=backend
        )
        with timer.time():
            return fn(mesh, *fields)


# --------------------------------------------------------- default registry
_DEFAULT: KernelRegistry | None = None


def default_registry() -> KernelRegistry:
    """The process-wide registry with all built-in backends registered."""
    global _DEFAULT
    if _DEFAULT is None:
        from .backends import build_default_registry

        _DEFAULT = build_default_registry()
    return _DEFAULT


def dispatch(op: str, mesh, *fields, backend: str = DEFAULT_BACKEND):
    """Dispatch ``op`` through the default registry (the kernels' entry point)."""
    return default_registry().dispatch(op, mesh, *fields, backend=backend)
