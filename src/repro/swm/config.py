"""Configuration of the shallow-water core (MPAS ``config_*`` equivalents)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import APVM_UPWINDING, GRAVITY, OMEGA

__all__ = ["SWConfig"]


@dataclass
class SWConfig:
    """Runtime configuration of the shallow-water model.

    Attributes
    ----------
    dt : float
        Time step in seconds.
    gravity : float
        Gravitational acceleration (m s^-2).
    omega : float
        Planetary rotation rate (rad s^-1); sets the Coriolis parameter
        ``f = 2 * omega * sin(lat)`` unless explicit ``f`` arrays are given.
    apvm_upwinding : float
        Anticipated-potential-vorticity upwinding factor
        (MPAS ``config_apvm_upwinding``); 0 disables APVM.
    thickness_adv_order : int
        Spatial order of the thickness (``h_edge``) advection: 2 uses the
        plain two-cell average; 3/4 add the ``d2fdx2`` correction terms of
        Table I (MPAS ``config_thickness_adv_order``).
    coef_3rd_order : float
        Blending coefficient of the upwinded third-order correction
        (MPAS ``config_coef_3rd_order``), used only when
        ``thickness_adv_order == 3``.
    viscosity : float
        Del2 momentum dissipation coefficient ``nu_2`` (m^2 s^-1); 0 (the MPAS
        shallow-water default) disables it.
    advection_only : bool
        Freeze the velocity field and integrate only the thickness equation
        (the Williamson TC1 passive-advection configuration): ``tend_u`` is
        forced to zero every substage.
    backend : str
        Execution backend for the stencil operators (``"numpy"`` or
        ``"sparse"``); every kernel dispatches through the
        :mod:`repro.engine` registry under this name.
    parallel : str
        What advances the state inside the one run loop
        (:meth:`repro.swm.model.ShallowWaterModel.run`):
        ``"serial"`` integrates in-process; ``"lockstep"`` steps ``ranks``
        decomposed ranks inside one process
        (:class:`repro.parallel.runner.DecomposedShallowWater`);
        ``"pool"`` steps them concurrently in a persistent shared-memory
        worker pool (:class:`repro.parallel.pool.PoolShallowWater`).
        All three produce bitwise-identical owned state.
    ranks : int
        Number of decomposed ranks for the ``"lockstep"``/``"pool"`` modes
        (must stay 1 for ``"serial"``).
    backend_retries, halo_retries, halo_backoff_s, transfer_retries
        Bounded-retry knobs of the recovery policy installed for the
        duration of a model run (see :class:`repro.resilience.recovery.
        RecoveryPolicy` for each knob's meaning).
    guard_interval : int
        Run the numerical watchdog every this many steps (0 disables it);
        1 gives the per-step NaN/Inf scan.  Every executor is guarded: the
        run loop checks the gathered state, so a decomposed run's verdict is
        the serial run's.
    guard_policy : str
        What a watchdog violation does: ``"halt"`` raises
        :class:`~repro.resilience.guards.NumericalBlowup` with a diagnostic
        naming the offending field and step; ``"rollback"`` restores the
        last auto-checkpoint and halves ``dt`` (requires
        ``checkpoint_interval > 0``; not available with ``parallel="pool"``).
    guard_mass_drift, guard_energy_drift : float
        Relative invariant-drift limits against the first guarded state
        (0 disables each).
    guard_cfl_max : float
        Gravity-wave Courant-number ceiling on the running state
        (0 disables; 1.0 is the textbook stability limit).
    checkpoint_interval : int
        Automatic restart-file cadence in steps (0 disables).
    max_rollbacks : int
        Watchdog rollbacks allowed per run before halting anyway.
    """

    dt: float
    gravity: float = GRAVITY
    omega: float = OMEGA
    apvm_upwinding: float = APVM_UPWINDING
    thickness_adv_order: int = 2
    coef_3rd_order: float = 0.25
    viscosity: float = 0.0
    #: Del4 hyperdiffusion coefficient ``nu_4`` (m^4 s^-1); 0 disables it.
    #: Scale-selective: damps grid noise much faster than resolved flow
    #: (MPAS ``config_h_mom_eddy_visc4``).
    hyperviscosity: float = 0.0
    advection_only: bool = False
    backend: str = "numpy"
    #: Execute substeps through a fused per-mesh :class:`~repro.engine.plan.
    #: ExecutionPlan` (requires ``backend="sparse"``): the RK kernels run as
    #: compiled stage programs with zero per-op dispatch, bitwise identical
    #: to the unfused sparse backend.
    plan: bool = False
    #: Plan fusion mode: ``"exact"`` replays the unfused arithmetic bitwise;
    #: ``"algebraic"`` additionally composes linear-operator chains into
    #: single matrices (equivalent to ~1e-12, not bitwise).
    plan_fuse: str = "exact"
    #: Halo synchronization schedule of the decomposed modes: ``"dataflow"``
    #: runs the comm-avoiding schedule derived from the step graph by
    #: :func:`repro.dataflow.schedule.derive_halo_schedule` — provably-clean
    #: sync points are elided and the rest ship only the dirty variables;
    #: ``"static"`` executes all 8 Algorithm-1 sync points with full
    #: payloads (the oracle the derivation is checked against).  Both
    #: produce bitwise-identical owned state.
    halo_schedule: str = "dataflow"
    parallel: str = "serial"
    ranks: int = 1
    backend_retries: int = 1
    halo_retries: int = 2
    halo_backoff_s: float = 0.0
    transfer_retries: int = 2
    guard_interval: int = 0
    guard_policy: str = "halt"
    guard_mass_drift: float = 0.0
    guard_energy_drift: float = 0.0
    guard_cfl_max: float = 0.0
    checkpoint_interval: int = 0
    max_rollbacks: int = 3
    #: Ensemble width: 0 runs a single scenario; N > 0 advances N
    #: perturbed-IC members lockstep through one batched execution plan
    #: (:mod:`repro.ensemble`).  Requires ``backend="sparse"`` and
    #: ``parallel="serial"``.
    ensemble: int = 0
    #: Base seed of the per-member IC perturbation streams; member ``k``
    #: draws from ``default_rng([ensemble_seed, k])``, so each member's
    #: perturbation is independent of the ensemble width.
    ensemble_seed: int = 0
    #: Relative amplitude of the thickness perturbation applied to each
    #: member's initial condition (0 runs N identical members).
    ensemble_amplitude: float = 1e-6

    #: Execution modes accepted by :attr:`parallel`.
    PARALLEL_MODES = ("serial", "lockstep", "pool")

    #: Halo schedules accepted by :attr:`halo_schedule`.
    HALO_SCHEDULES = ("static", "dataflow")

    #: Fields this class used to have.  Manifests and restart files written
    #: before their removal still carry them; :meth:`from_dict` drops them.
    RETIRED_FIELDS = ("ensemble_mode",)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject inconsistent configurations with actionable messages.

        Called automatically at construction; call it again after mutating
        fields in place.  Raises :class:`ValueError` naming the offending
        field and the accepted values.
        """
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.thickness_adv_order not in (2, 3, 4):
            raise ValueError(
                "thickness_adv_order must be 2, 3 or 4, "
                f"got {self.thickness_adv_order!r}"
            )
        if self.viscosity < 0.0:
            raise ValueError("viscosity must be non-negative")
        if self.hyperviscosity < 0.0:
            raise ValueError("hyperviscosity must be non-negative")
        if self.guard_policy not in ("halt", "rollback"):
            raise ValueError(
                f"guard_policy must be 'halt' or 'rollback', got {self.guard_policy!r}"
            )
        for name in (
            "backend_retries", "halo_retries", "transfer_retries",
            "guard_interval", "checkpoint_interval", "max_rollbacks",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in (
            "halo_backoff_s", "guard_mass_drift", "guard_energy_drift",
            "guard_cfl_max",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.halo_schedule not in self.HALO_SCHEDULES:
            raise ValueError(
                f"halo_schedule must be one of {self.HALO_SCHEDULES}, "
                f"got {self.halo_schedule!r}"
            )
        if self.parallel not in self.PARALLEL_MODES:
            raise ValueError(
                f"parallel must be one of {self.PARALLEL_MODES}, "
                f"got {self.parallel!r}"
            )
        if int(self.ranks) != self.ranks or self.ranks < 1:
            raise ValueError(f"ranks must be a positive integer, got {self.ranks!r}")
        if self.parallel == "serial" and self.ranks != 1:
            raise ValueError(
                f"ranks={self.ranks} needs a decomposed mode: "
                "set parallel='pool' or parallel='lockstep'"
            )
        if (
            self.guard_interval
            and self.guard_policy == "rollback"
            and self.parallel == "pool"
        ):
            raise ValueError(
                "guard_policy='rollback' needs parallel='serial' or 'lockstep': "
                "pool workers hold their own copy of the config, so the halved "
                "dt of a rollback would not reach them (guard_policy='halt' "
                "works under parallel='pool')"
            )
        from ..engine import BACKENDS  # deferred: config must stay import-light

        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.plan and self.backend != "sparse":
            raise ValueError(
                "plan=True requires backend='sparse' (plans fuse the "
                f"precompiled CSR operators), got backend={self.backend!r}"
            )
        from ..engine.plan import PLAN_FUSE_MODES  # deferred: import-light

        if self.plan_fuse not in PLAN_FUSE_MODES:
            raise ValueError(
                f"plan_fuse must be one of {PLAN_FUSE_MODES}, "
                f"got {self.plan_fuse!r}"
            )
        if int(self.ensemble) != self.ensemble or self.ensemble < 0:
            raise ValueError(
                "ensemble must be a non-negative integer "
                f"(0 disables batching), got {self.ensemble!r}"
            )
        if int(self.ensemble_seed) != self.ensemble_seed or self.ensemble_seed < 0:
            raise ValueError(
                "ensemble_seed must be a non-negative integer "
                f"(it seeds the per-member rng streams), got {self.ensemble_seed!r}"
            )
        if self.ensemble_amplitude < 0.0:
            raise ValueError(
                "ensemble_amplitude must be >= 0 (relative thickness "
                f"perturbation; 0 runs identical members), got "
                f"{self.ensemble_amplitude!r}"
            )
        if self.ensemble:
            if self.backend != "sparse":
                raise ValueError(
                    "ensemble runs batch the precompiled CSR operators: "
                    f"set backend='sparse' (got backend={self.backend!r})"
                )
            if self.parallel != "serial":
                raise ValueError(
                    "ensemble batching is in-process: set parallel='serial' "
                    f"(got parallel={self.parallel!r})"
                )

    @classmethod
    def from_dict(cls, stored: dict) -> "SWConfig":
        """The config a manifest or restart file recorded.

        The one loader of persisted configs: keys named in
        :attr:`RETIRED_FIELDS` are dropped (run directories written before a
        field was retired keep loading); any other unknown key is still a
        ``TypeError``.
        """
        return cls(
            **{k: v for k, v in stored.items() if k not in cls.RETIRED_FIELDS}
        )

    def recovery_policy(self):
        """The :class:`~repro.resilience.recovery.RecoveryPolicy` these knobs
        describe (installed by :meth:`repro.swm.model.ShallowWaterModel.run`)."""
        from ..resilience.recovery import RecoveryPolicy  # deferred: import-light

        return RecoveryPolicy(
            backend_retries=self.backend_retries,
            halo_retries=self.halo_retries,
            halo_backoff_s=self.halo_backoff_s,
            transfer_retries=self.transfer_retries,
        )

    def coriolis(self, lat: np.ndarray) -> np.ndarray:
        """Coriolis parameter at the given latitudes (radians)."""
        return 2.0 * self.omega * np.sin(lat)
