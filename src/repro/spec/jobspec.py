"""The declarative job description every submission surface accepts.

:class:`JobSpec` is the one submission payload: one frozen dataclass
carries the program, the shot request, the tenant identity, the
placement constraints (``pin`` / ``affinity_key`` / ``sites``), the
elasticity declaration (``iterations`` / ``min_units`` /
``max_units`` / ``malleable``), a budget hint, and the priority class.
``Session.submit``, ``FederationBroker.submit_spec``,
``FederatedClient.submit_spec``, ``DaemonClient.submit``,
``CloudGateway.submit`` and cluster batch scripts all take it, and each
rejects anything else up front through :func:`require_spec`.

Two invariants the rest of the stack relies on:

* :meth:`validate` is the **single** place shot counts are resolved
  (explicit request > the program's own shot count > the federation
  default) and programs are normalized to IR — callers never re-derive
  either, so the "silently defaults to 100" class of bug cannot recur,
* ``JobSpec.from_dict(spec.to_dict()) == spec`` holds for every
  validated spec, so specs travel losslessly through REST bodies,
  batch-script comments, and accounting archives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..errors import SpecError

if TYPE_CHECKING:
    from ..sdk.ir import DecodedParts

__all__ = ["DEFAULT_SHOTS", "JobSpec", "require_spec"]

#: the federation-wide fallback when neither the spec nor the program
#: carries a shot request (kept equal to the historic intake default)
DEFAULT_SHOTS = 100


def require_spec(value: Any, surface: str) -> "JobSpec":
    """Return ``value`` if it is a :class:`JobSpec`, else raise
    :class:`~repro.errors.SpecError` naming ``surface`` and the type
    received — every intake checks this before touching a field."""
    if not isinstance(value, JobSpec):
        raise SpecError(
            f"{surface} takes a JobSpec, got {type(value).__name__} "
            "(wrap programs with JobSpec(program=...))"
        )
    return value


def parse_site_leg(leg: str) -> tuple[str, str | None]:
    """``'site'`` or ``'site/resource'`` -> ``(site, resource-or-None)``."""
    site, _, resource = leg.partition("/")
    if not site:
        raise SpecError(f"bad site leg {leg!r}: empty site name")
    return site, (resource or None)


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One declarative description of a hybrid job.

    Field groups (everything beyond ``program`` is optional):

    * **payload** — ``program`` (any SDK object, IR, or IR dict) and
      ``shots``,
    * **identity** — ``tenant`` (accounting principal + daemon user;
      ``None`` lets the submitting client fill in its own identity)
      and ``priority_class``,
    * **placement** — ``resource`` (explicit target, local name or
      qualified ``site/resource``), ``pin`` (hard ``site/resource``
      placement: honored or failed, never rerouted), ``affinity_key``
      (sticky-routing hint), ``sites`` (restrict a multi-unit job to
      these sites; legs may pin resources as ``site/resource``),
    * **elasticity** — ``iterations`` (``None`` = fixed-size single
      job; an int makes the job a sequence of burst units the broker
      spreads across sites), ``malleable`` (resize the unit split
      mid-flight vs. a rigid round-robin split), ``min_units`` /
      ``max_units`` (bounds on concurrently in-flight units),
    * **cost** — ``budget_hint`` (the declared cost of the whole job;
      admission rejects early when it exceeds the tenant's remaining
      federation budget),
    * **scheduling** — ``algorithm`` (a registered scheduling-algorithm
      name, read by the federation broker only: it picks this job's
      placement discipline and, for a multi-unit job, how its sites'
      contended slots are divided — see
      :mod:`repro.scheduling.algorithms`.  A daemon records it in the
      task metadata but queues every task under its daemon-wide
      discipline).

    On a fixed-size spec, ``min_units`` (with ``malleable=True``, the
    default) declares **convertibility**: a saturated federation may
    convert the job into at least that many malleable units instead of
    queueing it whole (the fixed→malleable knob).
    """

    program: Any
    shots: int | None = None
    tenant: str | None = None
    resource: str | None = None
    pin: str | None = None
    affinity_key: str | None = None
    sites: tuple[str, ...] | None = None
    iterations: int | None = None
    malleable: bool = True
    min_units: int | None = None
    max_units: int | None = None
    priority_class: str = "development"
    budget_hint: float | None = None
    algorithm: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    #: set on a spec :meth:`validate` produced; it short-circuits
    #: re-validation and is never compared, printed, copied by
    #: ``replace`` or serialized
    _validated: bool = field(default=False, init=False, compare=False, repr=False)

    # -- derived views --------------------------------------------------------

    @property
    def is_multi(self) -> bool:
        """Does this spec describe a multi-unit (malleable-path) job?"""
        return self.iterations is not None or self.sites is not None

    def resolved_shots(self) -> int:
        """The shot count this spec executes at (see :meth:`validate`)."""
        return self.validate().shots  # type: ignore[return-value]

    # -- validation -----------------------------------------------------------

    def validate(self, default_tenant: str = "fed-user") -> "JobSpec":
        """Check every field and return the normalized spec.

        Normalization: the program is lowered to IR, ``shots`` becomes
        the resolved integer (explicit request > program's own count >
        :data:`DEFAULT_SHOTS`), ``tenant`` is filled from
        ``default_tenant`` when unset, ``sites`` becomes a tuple, and a
        ``sites``-restricted spec without ``iterations`` defaults to
        two units per leg.  Idempotent — and O(1) on a spec this method
        already produced, so the submit path can re-validate defensively
        at every layer without re-lowering the program.  A spec that
        crosses the daemon's REST boundary is validated there, once:
        ``Session.submit`` leaves a daemon-bound spec to ``POST /jobs``.
        """
        if self._validated:
            return self
        from ..sdk.translate import to_ir

        ir = to_ir(self.program, shots=self.shots or DEFAULT_SHOTS)
        shots = self.shots if self.shots is not None else ir.shots
        if shots < 1:
            raise SpecError(f"shots must be >= 1, got {shots}")
        if ir.shots != shots:
            ir = ir.with_shots(shots)
        tenant = self.tenant if self.tenant is not None else default_tenant
        if not tenant:
            raise SpecError("tenant must be a non-empty string")
        if self.pin is not None and "/" not in self.pin:
            raise SpecError(
                f"pin must be a qualified 'site/resource' name, got {self.pin!r}"
            )
        if self.pin is not None and self.resource is not None and self.pin != self.resource:
            raise SpecError(
                f"conflicting targets: pin={self.pin!r} vs resource={self.resource!r}"
            )
        sites = self.sites
        if sites is not None:
            sites = tuple(sites)
            if not sites:
                raise SpecError("sites restriction cannot be empty")
            names = [parse_site_leg(leg)[0] for leg in sites]
            if len(set(names)) != len(names):
                raise SpecError(f"duplicate site in placement: {sorted(names)}")
        iterations = self.iterations
        if iterations is None and sites is not None:
            iterations = 2 * len(sites)
        if iterations is not None and iterations < 1:
            raise SpecError(f"iterations must be >= 1, got {iterations}")
        if self.pin is not None and iterations is not None:
            # the malleable path places per-unit through site legs, so a
            # pin would be silently ignored — the --qpu contract says
            # honored or failed, never dropped
            raise SpecError(
                "pin applies to fixed-size jobs only; restrict a "
                "multi-unit job with sites=('site/resource', ...) legs"
            )
        if (
            (self.min_units is not None or self.max_units is not None)
            and iterations is None
            and not self.malleable
        ):
            # on a malleable fixed spec the bounds declare fixed→malleable
            # convertibility; a rigid spec has no use for them
            raise SpecError(
                "min_units/max_units apply to multi-unit jobs or "
                "convertible (malleable) fixed jobs"
            )
        if self.min_units is not None and self.min_units < 1:
            raise SpecError(f"min_units must be >= 1, got {self.min_units}")
        if self.max_units is not None and self.max_units < 1:
            raise SpecError(f"max_units must be >= 1, got {self.max_units}")
        if (
            self.min_units is not None
            and self.max_units is not None
            and self.min_units > self.max_units
        ):
            raise SpecError(
                f"min_units ({self.min_units}) exceeds max_units ({self.max_units})"
            )
        if self.budget_hint is not None and self.budget_hint < 0:
            raise SpecError(f"budget_hint must be >= 0, got {self.budget_hint}")
        # priority classes are owned by the daemon queue; parse to validate
        from ..daemon.queue import PriorityClass

        PriorityClass.parse(self.priority_class)
        if self.algorithm is not None:
            from ..scheduling.algorithms import available

            if self.algorithm not in available():
                raise SpecError(
                    f"unknown scheduling algorithm {self.algorithm!r}; "
                    f"available: {available()}"
                )
        validated = replace(
            self,
            program=ir,
            shots=shots,
            tenant=tenant,
            sites=sites,
            iterations=iterations,
        )
        object.__setattr__(validated, "_validated", True)  # frozen
        return validated

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; the program travels as its IR dict, the one
        :meth:`~repro.sdk.ir.AnalogProgram.wire` encodes once per program
        and every payload of that program shares."""
        from ..sdk.translate import to_ir

        return {
            "program": to_ir(self.program, shots=self.shots or DEFAULT_SHOTS).wire(),
            "shots": self.shots,
            "tenant": self.tenant,
            "resource": self.resource,
            "pin": self.pin,
            "affinity_key": self.affinity_key,
            "sites": list(self.sites) if self.sites is not None else None,
            "iterations": self.iterations,
            "malleable": self.malleable,
            "min_units": self.min_units,
            "max_units": self.max_units,
            "priority_class": self.priority_class,
            "budget_hint": self.budget_hint,
            "algorithm": self.algorithm,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], parts: DecodedParts | None = None) -> "JobSpec":
        """The spec of a ``to_dict`` payload; ``parts`` is the
        :class:`~repro.sdk.ir.DecodedParts` table its program decodes
        through, if any."""
        from ..sdk.ir import AnalogProgram

        try:
            program = data["program"]
        except KeyError as exc:
            raise SpecError("spec dict is missing 'program'") from exc
        if isinstance(program, dict):
            program = AnalogProgram.from_dict(program, parts)
        sites = data.get("sites")
        return cls(
            program=program,
            shots=data.get("shots"),
            tenant=data.get("tenant"),
            resource=data.get("resource"),
            pin=data.get("pin"),
            affinity_key=data.get("affinity_key"),
            sites=tuple(sites) if sites is not None else None,
            iterations=data.get("iterations"),
            malleable=bool(data.get("malleable", True)),
            min_units=data.get("min_units"),
            max_units=data.get("max_units"),
            priority_class=str(data.get("priority_class", "development")),
            budget_hint=data.get("budget_hint"),
            algorithm=data.get("algorithm"),
            metadata=dict(data.get("metadata", {})),
        )
