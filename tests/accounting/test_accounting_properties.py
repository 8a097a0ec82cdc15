"""Hypothesis properties for the accounting subsystem.

Two invariants the whole enforcement stack leans on:

* **conservation** — metering an arbitrary event stream and then
  invoicing must conserve cost: every tenant's invoice total equals the
  sum of their metered event costs, and the per-(site, kind) lines
  aggregate exactly the underlying quantities,
* **fair-share sanity** — the slot fill's grants always sum to exactly
  what is allocatable (no slot invented, none wasted while demand
  remains) and never exceed any claimant's demand.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import (
    RateBook,
    SiteRateCard,
    UsageKind,
    UsageLedger,
)
from repro.scheduling.algorithms import SchedulingAlgorithm

TENANTS = ("alpha", "beta", "gamma")
SITES = ("site-a", "site-b", "site-c")

event_strategy = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(SITES),
    st.sampled_from(list(UsageKind)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)

price_strategy = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def rate_books(draw):
    book = RateBook(
        default=SiteRateCard(
            site="*",
            cpu_second_price=draw(price_strategy),
            qpu_shot_price=draw(price_strategy),
            retry_surcharge=draw(price_strategy),
        )
    )
    for site in draw(st.sets(st.sampled_from(SITES))):
        book.publish(
            SiteRateCard(
                site=site,
                cpu_second_price=draw(price_strategy),
                qpu_shot_price=draw(price_strategy),
                retry_surcharge=draw(price_strategy),
            )
        )
    return book


class TestLedgerConservation:
    @settings(max_examples=60, deadline=None)
    @given(book=rate_books(), events=st.lists(event_strategy, max_size=60))
    def test_meter_then_invoice_conserves_cost(self, book, events):
        ledger = UsageLedger(book)
        for tenant, site, kind, quantity, time in events:
            ledger.meter(tenant, site, kind, quantity, time)
        for tenant in TENANTS:
            invoice = ledger.invoice(tenant)
            spend = ledger.spend(tenant)
            assert math.isclose(invoice.total, spend, rel_tol=1e-9, abs_tol=1e-9)
            # per-line quantities aggregate the raw events exactly
            for line in invoice.lines:
                raw = sum(
                    e.quantity
                    for e in ledger.events(tenant)
                    if e.site == line.site and e.kind is line.kind
                )
                assert math.isclose(line.quantity, raw, rel_tol=1e-9, abs_tol=1e-9)
            # and every event is priced at its site's card
            for event in ledger.events(tenant):
                expected = book.card_for(event.site).unit_price(event.kind)
                assert event.unit_price == expected

    @settings(max_examples=60, deadline=None)
    @given(book=rate_books(), events=st.lists(event_strategy, max_size=60))
    def test_invoices_partition_the_ledger(self, book, events):
        """All tenants' invoices together bill the whole ledger once."""
        ledger = UsageLedger(book)
        for tenant, site, kind, quantity, time in events:
            ledger.meter(tenant, site, kind, quantity, time)
        whole = sum(e.cost for e in ledger.events())
        billed = sum(ledger.invoice(t).total for t in ledger.tenants())
        assert math.isclose(whole, billed, rel_tol=1e-9, abs_tol=1e-9)


class TestArbiterProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(min_value=0, max_value=64),
        jobs=st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=3),
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            max_size=8,
        ),
    )
    def test_allocations_sum_to_total_shares(self, capacity, jobs):
        """The grants sum to min(capacity, total demand) — the fill
        neither invents nor strands shares — and stay demand-capped."""
        demands = {k: d for k, (d, _) in jobs.items()}
        weights = {k: w for k, (_, w) in jobs.items()}
        alloc, _ = SchedulingAlgorithm().divide(capacity, demands, weights)
        assert sum(alloc.values()) == min(capacity, sum(demands.values()))
        for k, granted in alloc.items():
            assert 0 <= granted <= demands[k]

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        demand=st.integers(min_value=64, max_value=200),
        heavy=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    )
    def test_heavier_weight_never_gets_less(self, capacity, demand, heavy):
        alloc, _ = SchedulingAlgorithm().divide(
            capacity,
            {"heavy": demand, "light": demand},
            {"heavy": heavy, "light": 1.0},
        )
        assert alloc["heavy"] >= alloc["light"]
