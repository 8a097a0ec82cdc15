"""FederatedClient: the typed view of a federation broker.

Mirrors the call conventions of :class:`~repro.runtime.client.DaemonClient`
(submit / status / result) but speaks to the :class:`FederationBroker`
instead of one site's REST router.  Every job enters as a
:class:`~repro.spec.JobSpec` through :meth:`FederatedClient.submit_spec`,
and one ``status`` / ``result`` answers for any federated id:
fixed-size, converted, or multi-unit.  Results come back as the same
:class:`~repro.runtime.results.RunResult` the single-site path
produces, with the executing site(s) recorded in metadata.  This is
the federation backend of :class:`~repro.session.Session`; to wait for
a job on the simulated clock, submit it through a session and yield
``handle.wait()``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..runtime.results import RunResult
from ..sdk.translate import to_ir
from ..spec import JobSpec, require_spec
from .broker import FederatedJob, FederationBroker

__all__ = ["FederatedClient"]


class FederatedClient:
    """Typed client over a federation broker."""

    def __init__(self, broker: FederationBroker, user: str = "fed-user") -> None:
        self.broker = broker
        self.user = user

    # -- discovery ----------------------------------------------------------

    def resources(self) -> dict[str, str]:
        """``site/resource`` -> type across all healthy sites."""
        return self.broker.available_resources()

    # -- submission ----------------------------------------------------------

    def submit_spec(self, spec: JobSpec) -> str:
        """Hand a spec — fixed-size or multi-unit — to the broker under
        this client's identity (an explicit ``spec.tenant`` wins over
        the client user).  Anything but a spec raises
        :class:`~repro.errors.SpecError`."""
        spec = require_spec(spec, "FederatedClient.submit_spec")
        if spec.tenant is None:
            spec = replace(spec, tenant=self.user)
        return self.broker.submit_spec(spec)

    def status(self, job_id: str) -> dict[str, Any]:
        return self.broker.status(job_id)

    def result(self, job_id: str) -> RunResult:
        """Fetch the result from whichever site ran the job, wrapped in
        the uniform single-site result type.  A multi-unit job — or a
        fixed submission the saturated broker converted to malleable
        units — comes back merged into one result, so the caller never
        needs to know which kind of job it holds."""
        job = self.broker.job(job_id)
        emulation = self.broker.result(job_id)
        if job.resize is not None:
            return self._merge_units(job, emulation)
        placement = job.current
        assert placement is not None  # completed jobs have a live placement
        result = RunResult.from_emulation(
            emulation,
            f"{placement.site}/{job_id}",
            to_ir(job.program).content_hash(),
        )
        result.metadata["federation_site"] = placement.site
        result.metadata["federation_attempts"] = job.attempts
        return result

    @staticmethod
    def _merge_units(job: FederatedJob, unit_results: dict[int, Any]) -> RunResult:
        """Merge every unit's counts into one uniform result — the
        multi-site job reads exactly like a single large burst."""
        counts: dict[str, int] = {}
        shots = 0
        execution_s = 0.0
        backends = set()
        for unit in sorted(unit_results):
            emulation = unit_results[unit]
            for bitstring, n in emulation.counts.items():
                counts[bitstring] = counts.get(bitstring, 0) + n
            shots += emulation.shots
            execution_s += float(
                emulation.metadata.get("execution_seconds", 0.0)
            )
            backends.add(emulation.backend)
        ledger = job.resize.ledger
        return RunResult(
            counts=counts,
            shots=shots,
            backend="+".join(sorted(backends)),
            resource=f"malleable/{job.job_id}",
            program_hash=to_ir(job.program).content_hash(),
            execution_s=execution_s,
            metadata={
                "federation_sites": ledger.completions_by_site(),
                "federation_units": job.units,
                "federation_resize_events": len(job.resize.events),
                "federation_malleable": job.spec.malleable,
            },
        )
