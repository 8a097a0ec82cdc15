"""Agreement-based elastic scheduling: jobs negotiate unit steals.

The default slot division — :meth:`SchedulingAlgorithm.divide
<repro.scheduling.algorithms.base.SchedulingAlgorithm.divide>`, weighted
max-min progressive filling — recomputes the whole allocation from zero
every pass, and jobs are simply told their width.  Here, in the style
of Wagomu's ``average_steal_agreement``, :meth:`AgreementElastic.divide`
starts contending malleable jobs from what they *currently hold* and
lets them trade units pairwise: each round the most over-served job (by
``allocation / weight``) and the most under-served one settle on the
integer average of what the taker asks and what the donor offers at
their weighted-parity point.  Rounds repeat until no ≥1-unit steal
remains, so allocations converge toward the same weighted fair-share
target while every step is a local two-party agreement — the shape a
sharded broker can run without a global allocator.

The negotiation is work-conserving (idle capacity is granted from the
pool by the same progressive fill before any stealing) and
demand-capped, matching the base division's guarantees; what differs
is the *start*: from empty holdings both divisions agree, and from
live holdings incumbents shed units gradually instead of being
reassigned wholesale.  The federation's resize loop divides a site's
slots this way whenever one contender's spec names this algorithm.
"""

from __future__ import annotations

from collections.abc import Mapping

from .base import Decision, PendingJob, ResourceView, SchedulingAlgorithm, SystemView, fill, register, share_weights

__all__ = ["AgreementElastic"]

_POOL = "<pool>"


@register
class AgreementElastic(SchedulingAlgorithm):

    name = "agreement-elastic"
    handles_placement = False

    def __init__(self, max_rounds: int = 10_000) -> None:
        self.max_rounds = max_rounds
        #: transfer log of the most recent pass: dicts with
        #: ``from``/``to``/``units`` (+ ``resource`` when scheduling)
        self.last_agreements: list[dict] = []

    # -- the negotiation core ------------------------------------------------

    def divide(
        self,
        capacity: int,
        demands: Mapping[str, int],
        weights: Mapping[str, float] | None = None,
        holdings: Mapping[str, int] | None = None,
    ) -> tuple[dict[str, int], list[dict]]:
        """Divide ``capacity`` units by pairwise steal agreements.

        Starts from ``holdings`` (clipped to demand), grants idle
        capacity from the pool by the base progressive fill, then lets
        the most over-served donor and most under-served taker trade
        the integer average of ask and offer at their weighted-parity
        split, until no whole unit moves.  Returns ``(allocation,
        transfers)``.
        """
        w = share_weights(capacity, demands, weights)
        alloc = {
            k: min(max(0, (holdings or {}).get(k, 0)), demands[k]) for k in demands
        }
        # shed overflow (capacity shrank under the incumbents)
        while sum(alloc.values()) > capacity:
            donor = max(
                (k for k in alloc if alloc[k] > 0),
                key=lambda k: (alloc[k] / w[k], w[k], k),
            )
            alloc[donor] -= 1
        # work conservation: idle capacity is free — granted from the
        # pool by the same fill the base division runs from zero
        transfers = [
            {"from": _POOL, "to": taker, "units": 1}
            for taker in fill(alloc, capacity, demands, w)
        ]
        # pairwise agreements toward weighted parity
        for _ in range(self.max_rounds):
            rich = [k for k in alloc if alloc[k] > 0]
            poor = [k for k in alloc if alloc[k] < demands[k]]
            if not rich or not poor:
                break
            donor = max(rich, key=lambda k: (alloc[k] / w[k], w[k], k))
            taker = min(poor, key=lambda k: (alloc[k] / w[k], -w[k], k))
            if donor == taker:
                break
            # parity point: the split of their combined holdings where
            # both sit at equal allocation/weight
            parity = (alloc[donor] + alloc[taker]) / (w[donor] + w[taker])
            ask = min(parity * w[taker] - alloc[taker], demands[taker] - alloc[taker])
            offer = alloc[donor] - parity * w[donor]
            steal = int(min((ask + offer) / 2.0, alloc[donor], demands[taker] - alloc[taker]))
            if steal < 1:
                break
            alloc[donor] -= steal
            alloc[taker] += steal
            transfers.append({"from": donor, "to": taker, "units": steal})
        return alloc, transfers

    # -- the generic pass (sweep simulator) ----------------------------------

    def schedule(
        self,
        pending: tuple[PendingJob, ...],
        resources: tuple[ResourceView, ...],
        system: SystemView,
    ) -> list[Decision]:
        """FCFS starts (malleable jobs enter at minimum width), then one
        negotiation per resource over its running malleable jobs —
        resize decisions grow/shrink widths toward the fair target."""
        self.last_agreements = []
        free = {r.name: r.free_units for r in resources}
        decisions: list[Decision] = []
        for job in sorted(pending, key=lambda j: (j.priority, j.submit_seq)):
            width = max(1, job.min_units or 1) if job.malleable else job.units
            placed = False
            for resource in resources:
                if free[resource.name] >= width:
                    free[resource.name] -= width
                    decisions.append(
                        Decision(kind="start", job_id=job.job_id, resource=resource.name, units=width)
                    )
                    placed = True
                    break
            if not placed and not job.malleable:
                break  # rigid head blocks rigid FCFS; elastic resizes continue
        elastic = system.options.get("elastic", ())
        weigh = system.fair_weight or (lambda tenant: 1.0)
        by_resource: dict[str, list[dict]] = {}
        for entry in elastic:
            by_resource.setdefault(entry["resource"], []).append(entry)
        for rname, entries in by_resource.items():
            capacity = free[rname] + sum(e["width"] for e in entries)
            demands = {
                e["job_id"]: min(capacity, e.get("max_units") or capacity)
                for e in entries
            }
            weights = {e["job_id"]: float(weigh(e.get("tenant", ""))) for e in entries}
            current = {e["job_id"]: e["width"] for e in entries}
            floors = {
                e["job_id"]: max(1, e.get("min_units") or 1) for e in entries
            }
            alloc, transfers = self.divide(capacity, demands, weights, current)
            for entry in entries:
                new = max(alloc[entry["job_id"]], floors[entry["job_id"]])
                if new != entry["width"]:
                    decisions.append(
                        Decision(
                            kind="resize",
                            job_id=entry["job_id"],
                            resource=rname,
                            units=new,
                            reason="agreement",
                        )
                    )
            for t in transfers:
                self.last_agreements.append({**t, "resource": rname})
        return decisions
