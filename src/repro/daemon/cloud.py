"""Cloud job intake gateway (paper §3.3 extension).

"Although not part of this work, the system could be extended to also
accept jobs via a cloud interface, similar to how it is handled in the
JHPC-Quantum project."  This module is that extension: an external
intake in front of the daemon for users who are *not* on the HPC system.

Differences from the internal surface:

* authentication by **API key** (provisioned by the site) instead of a
  Slurm-derived session,
* cloud jobs enter at a configurable priority class (default TEST —
  external users never outrank the site's production runs),
* per-key **rate limiting** (a token bucket on submissions) and a
  per-key quota of total shots, since cloud users don't consume their
  own cluster allocation,
* a simplified job model: submit -> poll -> fetch, no sessions exposed.

When a :class:`~repro.accounting.FederationAccounting` is wired in,
each cloud tenant doubles as a federation principal: gateway shots land
on the federation-wide ledger (priced by this gateway's rate card) and
an exhausted cross-site budget refuses intake here, so a tenant cannot
route around its federation cap by entering through the cloud door.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any

from ..errors import AuthError, DaemonError, SessionError
from ..spec import JobSpec, require_spec
from .queue import PriorityClass
from .service import MiddlewareDaemon

__all__ = ["CloudGateway", "CloudTenant", "ensure_session"]


def ensure_session(
    daemon: MiddlewareDaemon,
    cache: dict[str, str],
    owner: str,
    priority_class: PriorityClass,
) -> str:
    """Return a live session token for ``owner``, reopening on expiry.

    Shared by every external intake in front of a daemon (cloud gateway,
    federation broker): the caller keeps a ``{owner: token}`` cache and
    this helper revalidates/refreshes it against the daemon.
    """
    token = cache.get(owner)
    if token is not None:
        try:
            daemon.resolve_session(token)
            return token
        except SessionError:
            pass  # expired: open a fresh one
    session = daemon.create_session(owner, priority_class)
    cache[owner] = session.token
    return session.token


@dataclass
class CloudTenant:
    """One external organization's access grant."""

    name: str
    api_key: str
    priority_class: PriorityClass = PriorityClass.TEST
    max_submissions_per_hour: float = 30.0
    shot_quota: int = 100_000
    shots_used: int = 0
    bucket_tokens: float = field(default=0.0)
    bucket_updated_at: float = 0.0

    def refill(self, now: float) -> None:
        rate = self.max_submissions_per_hour / 3600.0
        elapsed = max(0.0, now - self.bucket_updated_at)
        cap = max(1.0, self.max_submissions_per_hour / 6.0)  # 10-min burst
        self.bucket_tokens = min(cap, self.bucket_tokens + elapsed * rate)
        self.bucket_updated_at = now


class CloudGateway:
    """External intake in front of a MiddlewareDaemon."""

    def __init__(
        self,
        daemon: MiddlewareDaemon,
        seed: int = 0,
        accounting=None,
        site_name: str = "cloud",
    ) -> None:
        self.daemon = daemon
        self._seed = seed
        #: optional :class:`~repro.accounting.FederationAccounting`:
        #: when set, every cloud tenant is also a federation principal —
        #: shots metered here land on the same cross-site ledger the
        #: broker bills, and an exhausted federation budget refuses
        #: intake at this gateway too (``site_name`` keys the rate card)
        self.accounting = accounting
        self.site_name = site_name
        self._key_counter = itertools.count(1)
        self._tenants: dict[str, CloudTenant] = {}      # api_key -> tenant
        self._by_name: dict[str, CloudTenant] = {}      # name -> tenant (O(1) admin ops)
        self._sessions: dict[str, str] = {}             # session owner -> token
        self._task_owner: dict[str, str] = {}           # task_id -> tenant

    # -- provisioning (site admin) ------------------------------------------

    def provision_tenant(
        self,
        name: str,
        priority_class: PriorityClass = PriorityClass.TEST,
        max_submissions_per_hour: float = 30.0,
        shot_quota: int = 100_000,
    ) -> str:
        """Create a tenant; returns its API key."""
        if name in self._by_name:
            raise DaemonError(f"tenant {name!r} already provisioned")
        if priority_class is PriorityClass.PRODUCTION:
            raise DaemonError("cloud tenants cannot be granted production priority")
        raw = f"cloud:{self._seed}:{next(self._key_counter)}:{name}"
        api_key = "ck_" + hashlib.sha256(raw.encode()).hexdigest()[:28]
        tenant = CloudTenant(
            name=name,
            api_key=api_key,
            priority_class=priority_class,
            max_submissions_per_hour=max_submissions_per_hour,
            shot_quota=shot_quota,
            bucket_tokens=max(1.0, max_submissions_per_hour / 6.0),
            bucket_updated_at=self.daemon.now,
        )
        self._tenants[api_key] = tenant
        self._by_name[name] = tenant
        return api_key

    def revoke_tenant(self, name: str) -> None:
        tenant = self._by_name.pop(name, None)
        if tenant is None:
            raise DaemonError(f"unknown tenant {name!r}")
        del self._tenants[tenant.api_key]
        self._sessions.pop(f"cloud:{name}", None)

    def tenants(self) -> list[str]:
        return sorted(self._by_name)

    # -- intake ------------------------------------------------------------

    def _authenticate(self, api_key: str) -> CloudTenant:
        if api_key not in self._tenants:
            raise AuthError("invalid API key")
        return self._tenants[api_key]

    def _session_token(self, tenant: CloudTenant) -> str:
        return ensure_session(
            self.daemon, self._sessions, f"cloud:{tenant.name}", tenant.priority_class
        )

    def submit(self, api_key: str, spec: JobSpec) -> str:
        """Submit one fixed-size cloud job described by a
        :class:`~repro.spec.JobSpec`; its resolved IR, shots and
        ``resource`` are used, and anything but a spec raises
        :class:`~repro.errors.SpecError`.  Identity stays with the API
        key — a spec cannot impersonate another tenant through the
        cloud door."""
        spec = require_spec(spec, "CloudGateway.submit").validate()
        if spec.is_multi:
            raise DaemonError(
                "the cloud gateway runs fixed-size tasks; a multi-unit "
                "spec (iterations/sites) needs the federation broker"
            )
        if spec.resource is None:
            raise DaemonError("cloud submission needs a target: set spec.resource")
        tenant = self._authenticate(api_key)
        now = self.daemon.now
        tenant.refill(now)
        if tenant.bucket_tokens < 1.0:
            raise DaemonError(
                f"rate limit: tenant {tenant.name!r} exceeded "
                f"{tenant.max_submissions_per_hour}/hour"
            )
        if tenant.shots_used + spec.shots > tenant.shot_quota:
            raise DaemonError(
                f"quota: tenant {tenant.name!r} has "
                f"{tenant.shot_quota - tenant.shots_used} shots left, "
                f"requested {spec.shots}"
            )
        if self.accounting is not None:
            from ..accounting import AdmissionDecision

            if self.accounting.admission(tenant.name) is not AdmissionDecision.ADMIT:
                # the gateway has no hold queue: an exhausted federation
                # budget refuses intake here whatever the hold action
                raise DaemonError(
                    f"federation budget: tenant {tenant.name!r} has "
                    f"{self.accounting.remaining(tenant.name):.3f} credits left"
                )
        token = self._session_token(tenant)
        task = self.daemon.submit_task(token, spec.program, spec.resource, shots=spec.shots)
        tenant.bucket_tokens -= 1.0
        tenant.shots_used += task.program.shots
        self._task_owner[task.task_id] = tenant.name
        if self.accounting is not None:
            # metered at intake (the gateway's prepaid-shots model), on
            # the same ledger the federation broker bills at completion
            self.accounting.meter_completion(
                tenant.name,
                self.site_name,
                shots=task.program.shots,
                now=self.daemon.now,
                job_id=task.task_id,
            )
        return task.task_id

    def status(self, api_key: str, task_id: str) -> dict[str, Any]:
        tenant = self._authenticate(api_key)
        self._check_owner(tenant, task_id)
        token = self._session_token(tenant)
        return self.daemon.task_status(token, task_id)

    def result(self, api_key: str, task_id: str) -> Any:
        tenant = self._authenticate(api_key)
        self._check_owner(tenant, task_id)
        token = self._session_token(tenant)
        return self.daemon.task_result(token, task_id)

    def usage(self, api_key: str) -> dict[str, Any]:
        tenant = self._authenticate(api_key)
        out = {
            "tenant": tenant.name,
            "priority_class": tenant.priority_class.label,
            "shots_used": tenant.shots_used,
            "shot_quota": tenant.shot_quota,
            "submissions_available": int(tenant.bucket_tokens),
        }
        if self.accounting is not None:
            out["federation_spend"] = self.accounting.spend(tenant.name)
            out["federation_budget_remaining"] = self.accounting.remaining(
                tenant.name
            )
        return out

    def _check_owner(self, tenant: CloudTenant, task_id: str) -> None:
        owner = self._task_owner.get(task_id)
        if owner != tenant.name:
            raise AuthError(f"task {task_id!r} does not belong to tenant {tenant.name!r}")
