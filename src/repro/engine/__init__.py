"""Pattern-driven execution engine: kernel registry + pluggable backends.

The one way kernels execute.  See :mod:`repro.engine.registry` for the
dispatch mechanics, :mod:`repro.engine.backends` for the two built-in
backends (``numpy`` / ``sparse``),
:mod:`repro.engine.split` for split execution across two logical devices,
and :mod:`repro.engine.plan` for fused per-mesh execution plans compiled
from the Fig. 4 dataflow graph (``SWConfig(plan=True)``).

Importing this package is deliberately light (no backend modules are
loaded, and ``plan``/``sparse`` — which pull scipy — are imported lazily);
the default registry is built lazily on first dispatch.  Run
``python -m repro.engine --selftest`` for an end-to-end smoke check.
"""

from .registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    KernelRegistry,
    OpEntry,
    default_registry,
    dispatch,
    reset_default_registry,
)
from .split import active_placements, use_placements

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "KernelRegistry",
    "OpEntry",
    "default_registry",
    "dispatch",
    "reset_default_registry",
    "active_placements",
    "use_placements",
]
