"""The scenario library: one catalogue for every runnable case.

Before this module, case resolution was scattered: :mod:`repro.api` kept an
alias dict, :mod:`repro.obs.report` kept a private 3-entry copy, and
:data:`repro.swm.testcases.TEST_CASES` indexed by Williamson number — three
partial views that drifted apart (``python -m repro report --case tc6``
failed even though ``repro.api.resolve_case("tc6")`` worked).  This module
is the single source of truth they all route through.

A :class:`Scenario` is one catalogue entry: the canonical name, every
accepted alias, the :class:`~repro.swm.testcases.TestCase` factory, and the
per-case metadata the harnesses consume — suggested integration length and
CFL number, whether the case needs the advection-only configuration,
whether it carries bottom topography or a discontinuous initial condition,
whether ``tests/golden/`` pins its invariant trajectory, and loose
reference drift bounds for a short run.

Beyond the Williamson trio + Galewsky the catalogue adds the scenarios the
multi-GPU SWE literature validates on (Delmas & Soulaïmani): a
dam-break-on-sphere discontinuous-IC case, a flow-over-ridge
variable-topography case, the balanced Galewsky jet as a drift probe, and
a *parametric* family of seeded perturbed-IC cases
(``"perturbed:<base>:<member>:<seed>[:<amplitude>]"``) whose initial
conditions are bitwise identical to the corresponding
:mod:`repro.ensemble` member — so single-member reference runs and
ensemble batches resolve their ICs through one mechanism.

Resolution entry points::

    >>> from repro.swm.scenarios import resolve, scenario
    >>> resolve("mountain").name            # alias -> TestCase
    'isolated_mountain'
    >>> scenario("tc5").golden              # alias -> catalogue metadata
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .galewsky import galewsky_jet
from .testcases import (
    TEST_CASES,
    TestCase,
    cosine_bell,
    dam_break,
    flow_over_ridge,
    isolated_mountain,
    rossby_haurwitz,
    steady_zonal_flow,
)

__all__ = [
    "Scenario",
    "SCENARIOS",
    "PERTURBED_PREFIX",
    "scenario",
    "scenario_for",
    "default_config",
    "known_names",
    "resolve",
    "canonical_name",
    "perturbed_case",
]

#: Default relative amplitude of the perturbed-IC family (matches
#: :attr:`repro.swm.config.SWConfig.ensemble_amplitude`).
DEFAULT_PERTURB_AMPLITUDE = 1e-6

#: Token prefix of the parametric perturbed-IC cases.
PERTURBED_PREFIX = "perturbed"


@dataclass(frozen=True)
class Scenario:
    """One catalogue entry: identity, factory, and harness metadata.

    Attributes
    ----------
    name : str
        Canonical registry name (also the ``TestCase.name`` the factory
        produces — the round-trip the registry tests assert).
    factory : callable () -> TestCase
        Builds the fully-specified initial-value problem.
    description : str
        One line for the catalogue table (``python -m repro cases``).
    aliases : tuple[str, ...]
        Additional accepted names (lowercase); ``"tc<N>"`` aliases double
        as the Williamson-number spelling.
    number : int | None
        Williamson catalogue number, when the case has one.
    suggested_days : float
        Standard integration length (mirrors the factory's TestCase).
    suggested_cfl : float
        CFL number the golden harness and CLI default to for this case.
    advection_only : bool
        The case must run under ``SWConfig(advection_only=True)`` (the
        TC1 frozen-wind configuration).
    topographic : bool
        Nonzero bottom topography (exercises the ``grad(h + b)`` terms).
    discontinuous : bool
        Discontinuous initial condition (shock-adjacent robustness).
    golden : bool
        ``tests/golden/`` pins this case's invariant trajectories across
        the backend x parallel-mode matrix.
    mass_drift_tol, energy_drift_tol : float
        Reference invariant-drift ceilings for a short (~10-step) level-3
        run; the golden harness asserts them as sanity bounds.
    reference : str
        Where the case comes from.
    """

    name: str
    factory: Callable[[], TestCase]
    description: str
    aliases: tuple[str, ...] = ()
    number: int | None = None
    suggested_days: float = 1.0
    suggested_cfl: float = 0.5
    advection_only: bool = False
    topographic: bool = False
    discontinuous: bool = False
    golden: bool = False
    mass_drift_tol: float = 1e-12
    energy_drift_tol: float = 1e-4
    reference: str = ""

    def build(self) -> TestCase:
        """The fully-specified initial-value problem this entry names."""
        return self.factory()

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)


#: The catalogue, in presentation order.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="cosine_bell",
        factory=cosine_bell,
        description="TC1: cosine bell advected by solid-body rotation",
        aliases=("tc1", "advection"),
        number=1,
        suggested_days=12.0,
        advection_only=True,
        reference="Williamson et al. (1992), case 1",
    ),
    Scenario(
        name="steady_zonal_flow",
        factory=steady_zonal_flow,
        description="TC2: steady nonlinear zonal geostrophic flow (exact)",
        aliases=("tc2",),
        number=2,
        suggested_days=5.0,
        suggested_cfl=0.6,
        reference="Williamson et al. (1992), case 2",
    ),
    Scenario(
        name="isolated_mountain",
        factory=isolated_mountain,
        description="TC5: zonal flow over an isolated mountain (Figure 5)",
        aliases=("tc5", "mountain"),
        number=5,
        suggested_days=15.0,
        topographic=True,
        golden=True,
        reference="Williamson et al. (1992), case 5",
    ),
    Scenario(
        name="rossby_haurwitz",
        factory=rossby_haurwitz,
        description="TC6: Rossby-Haurwitz wave, zonal wavenumber 4",
        aliases=("tc6",),
        number=6,
        suggested_days=14.0,
        golden=True,
        reference="Williamson et al. (1992), case 6",
    ),
    Scenario(
        name="galewsky_jet",
        factory=galewsky_jet,
        description="barotropic instability of a perturbed zonal jet",
        aliases=("galewsky",),
        number=8,
        suggested_days=6.0,
        golden=True,
        reference="Galewsky, Scott & Polvani (2004)",
    ),
    Scenario(
        name="galewsky_jet_balanced",
        factory=lambda: galewsky_jet(perturbed=False),
        description="unperturbed balanced jet: a steady-state drift probe",
        aliases=("galewsky_balanced",),
        number=8,
        suggested_days=6.0,
        reference="Galewsky, Scott & Polvani (2004), unperturbed",
    ),
    Scenario(
        name="dam_break",
        factory=dam_break,
        description="dam break on the sphere: discontinuous cap released at rest",
        aliases=("dambreak",),
        number=9,
        suggested_days=0.25,
        discontinuous=True,
        golden=True,
        energy_drift_tol=1e-2,  # the collapsing jump converts PE fast
        reference="Delmas & Soulaimani (2022)-style validation battery",
    ),
    Scenario(
        name="flow_over_ridge",
        factory=flow_over_ridge,
        description="zonal flow over a mid-latitude cos^2 ridge (bathymetry)",
        aliases=("ridge",),
        number=10,
        suggested_days=10.0,
        topographic=True,
        golden=True,
        reference="Delmas & Soulaimani (2022)-style validation battery",
    ),
)

_BY_NAME: dict[str, Scenario] = {
    alias: sc for sc in SCENARIOS for alias in sc.all_names
}
# Only genuine Williamson numbers resolve numerically (8/9/10 are catalogue
# labels, not Williamson identities — matching the historic TEST_CASES
# behaviour resolve_case always had).
_BY_NUMBER: dict[int, Scenario] = {
    sc.number: sc
    for sc in SCENARIOS
    if sc.number is not None and sc.number in TEST_CASES
}


def known_names() -> list[str]:
    """Every accepted case name (canonical + aliases), sorted."""
    return sorted(_BY_NAME)


def scenario(token: str | int) -> Scenario:
    """The catalogue entry for a name, alias, or Williamson number."""
    if isinstance(token, str):
        name = token.strip().lower()
        if name in _BY_NAME:
            return _BY_NAME[name]
        raise ValueError(
            f"unknown test case {token!r}; known names: {known_names()} "
            f"(plus '{PERTURBED_PREFIX}:<base>:<member>:<seed>' tokens)"
        )
    if token in _BY_NUMBER:
        return _BY_NUMBER[token]
    raise ValueError(
        f"unknown Williamson test case number {token!r}; "
        f"known numbers: {sorted(_BY_NUMBER)}"
    )


def scenario_for(case: TestCase | str | int) -> Scenario | None:
    """Best-effort catalogue lookup: token, number, or built TestCase.

    A built case matches by ``TestCase.name`` (perturbed variants match
    their base scenario); returns ``None`` for cases the catalogue does
    not know, so callers can fall back rather than fail.
    """
    if isinstance(case, TestCase):
        name = case.name.split("+", 1)[0]
        return _BY_NAME.get(name)
    if isinstance(case, str):
        name = case.strip().lower()
        if name.startswith(f"{PERTURBED_PREFIX}:"):
            base = name.split(":")[1] if ":" in name else name
            return _BY_NAME.get(base)
        return _BY_NAME.get(name)
    return _BY_NUMBER.get(case)


def default_config(mesh, case: TestCase, cfl: float = 0.5, **fields):
    """The :class:`~repro.swm.config.SWConfig` a case runs under unless told
    otherwise: the CFL-safe ``suggested_dt`` at ``cfl`` and the catalogue's
    ``advection_only``; ``fields`` set the rest."""
    from ..constants import GRAVITY
    from .config import SWConfig
    from .model import suggested_dt

    sc = scenario_for(case)
    return SWConfig(
        dt=suggested_dt(mesh, case, GRAVITY, cfl=cfl),
        advection_only=bool(sc is not None and sc.advection_only),
        **fields,
    )


# ------------------------------------------------------- perturbed-IC family
def perturbed_case(
    base: TestCase | str | int,
    member: int = 0,
    seed: int = 0,
    amplitude: float = DEFAULT_PERTURB_AMPLITUDE,
) -> TestCase:
    """Member ``member`` of a seeded perturbed-IC family over ``base``.

    The thickness field is ``h * (1 + amplitude * xi)`` with ``xi`` drawn
    from the member's rng stream (:func:`repro.ensemble.member_rng`), so
    initializing this case on a mesh is **bitwise identical** to
    :func:`repro.ensemble.member_initial_state` for the same
    ``(base, member, seed, amplitude)`` — single-member reference runs and
    ensemble batches share one IC mechanism.  The case name encodes every
    parameter (``galewsky_jet+m2s7a1e-06``), so
    :meth:`repro.api.RunRequest.key` never deduplicates distinct members.
    """
    from ..ensemble.members import member_rng, perturbed_thickness

    if int(member) != member or member < 0:
        raise ValueError(f"member must be a non-negative integer, got {member!r}")
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude!r}")
    base_case = resolve(base)
    member, seed = int(member), int(seed)

    def thickness(points):
        h = base_case.thickness(points)
        if amplitude == 0.0:
            return h
        return perturbed_thickness(h, member_rng(seed, member), amplitude)

    import dataclasses

    return dataclasses.replace(
        base_case,
        name=f"{base_case.name}+m{member}s{seed}a{amplitude:g}",
        thickness=thickness,
        exact_thickness=None,  # the perturbation breaks any exact solution
    )


def _parse_perturbed(token: str) -> TestCase:
    parts = token.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(
            f"malformed perturbed-case token {token!r}; expected "
            f"'{PERTURBED_PREFIX}:<base>:<member>:<seed>[:<amplitude>]'"
        )
    _, base, member, seed, *rest = parts
    try:
        member_i, seed_i = int(member), int(seed)
        amplitude = float(rest[0]) if rest else DEFAULT_PERTURB_AMPLITUDE
    except ValueError:
        raise ValueError(
            f"malformed perturbed-case token {token!r}: member/seed must be "
            f"integers and amplitude a float"
        ) from None
    return perturbed_case(base, member_i, seed_i, amplitude)


# ---------------------------------------------------------------- resolution
def resolve(case: TestCase | str | int) -> TestCase:
    """A :class:`TestCase` from a name, alias, number, token, or itself.

    The resolution surface of the whole repository — :func:`repro.api.
    resolve_case`, the CLI case arguments and the obs report all route
    here.  Accepts catalogue names and aliases (:func:`known_names`),
    Williamson numbers, parametric ``"perturbed:..."`` tokens, and built
    :class:`TestCase` objects (returned unchanged).
    """
    if isinstance(case, TestCase):
        return case
    if isinstance(case, str):
        name = case.strip().lower()
        if name.startswith(f"{PERTURBED_PREFIX}:"):
            return _parse_perturbed(name)
        return scenario(name).build()
    return scenario(case).build()


def canonical_name(case: TestCase | str | int) -> str:
    """The stable identity a case token resolves to (the job-dedup name).

    Catalogue aliases collapse to the canonical scenario name; perturbed
    tokens resolve to their parameter-encoding case name; built cases
    report their own name.
    """
    if isinstance(case, TestCase):
        return case.name
    if isinstance(case, str) and case.strip().lower().startswith(
        f"{PERTURBED_PREFIX}:"
    ):
        return _parse_perturbed(case.strip().lower()).name
    return scenario(case).name
