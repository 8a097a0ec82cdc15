"""Half-life usage decay in the fair-share arbiter (Slurm-style)."""

import pytest

from acctutil import make_accounting
from repro.accounting import FairShareArbiter, FederationAccounting
from repro.errors import AccountingError
from repro.scheduling.algorithms import SchedulingAlgorithm


class TestInertByDefault:
    def test_no_half_life_means_effective_equals_configured(self):
        arb = FairShareArbiter()
        arb.set_weight("alpha", 3.0)
        arb.observe_usage("alpha", 1000.0, now=0.0)  # must be a no-op
        assert arb.effective_weight("alpha", now=0.0) == 3.0
        assert arb.decayed_usage("alpha", now=50.0) == 0.0

    def test_no_op_observe_does_not_bump_version(self):
        arb = FairShareArbiter()
        before = arb.version
        arb.observe_usage("alpha", 500.0, now=0.0)
        assert arb.version == before


class TestDecayCurve:
    def test_usage_halves_per_half_life(self):
        arb = FairShareArbiter(half_life_s=100.0)
        arb.observe_usage("t", 80.0, now=0.0)
        assert arb.decayed_usage("t", now=0.0) == pytest.approx(80.0)
        assert arb.decayed_usage("t", now=100.0) == pytest.approx(40.0)
        assert arb.decayed_usage("t", now=300.0) == pytest.approx(10.0)

    def test_usage_accumulates_with_decay(self):
        arb = FairShareArbiter(half_life_s=100.0)
        arb.observe_usage("t", 80.0, now=0.0)
        arb.observe_usage("t", 10.0, now=100.0)  # 40 remain + 10 fresh
        assert arb.decayed_usage("t", now=100.0) == pytest.approx(50.0)

    def test_effective_weight_halves_at_usage_scale(self):
        arb = FairShareArbiter(half_life_s=100.0, usage_scale=50.0)
        arb.set_weight("t", 4.0)
        arb.observe_usage("t", 50.0, now=0.0)  # exactly one knee
        assert arb.effective_weight("t", now=0.0) == pytest.approx(2.0)
        # one half-life later, usage 25 -> discount 0.5**0.5
        assert arb.effective_weight("t", now=100.0) == pytest.approx(
            4.0 * 0.5**0.5
        )

    def test_observe_bumps_version_for_dirty_flag_callers(self):
        arb = FairShareArbiter(half_life_s=100.0)
        before = arb.version
        arb.observe_usage("t", 1.0, now=0.0)
        assert arb.version == before + 1

    def test_validation(self):
        with pytest.raises(AccountingError, match="half-life"):
            FairShareArbiter(half_life_s=0.0)
        with pytest.raises(AccountingError, match="usage_scale"):
            FairShareArbiter(usage_scale=-1.0)


class TestMeteringFeedsDecay:
    def test_meter_completion_charges_decayed_usage(self):
        accounting = make_accounting(
            shot_prices={"site-0": 0.5},
        )
        accounting.arbiter.half_life_s = 100.0
        accounting.meter_completion("alpha", "site-0", shots=100, now=0.0)
        # 100 shots * 0.5 = 50 usage units
        assert accounting.arbiter.decayed_usage("alpha", now=0.0) == pytest.approx(50.0)
        assert accounting.arbiter.decayed_usage("alpha", now=100.0) == pytest.approx(25.0)

    def test_meter_retry_charges_decayed_usage(self):
        accounting = make_accounting(shot_prices={"site-0": 0.5})
        accounting.arbiter.half_life_s = 100.0
        accounting.meter_retry("alpha", "site-0", now=0.0)
        assert accounting.arbiter.decayed_usage("alpha", now=0.0) > 0.0

    def test_default_accounting_stays_bit_identical(self):
        # no half-life: metering must not touch weights at all
        accounting = FederationAccounting()
        accounting.set_share_weight("alpha", 3.0)
        version = accounting.arbiter.version
        accounting.meter_completion("alpha", "site-0", shots=500, now=0.0)
        assert accounting.arbiter.version == version
        assert accounting.arbiter.effective_weight("alpha", now=0.0) == 3.0


class TestDecayedAllocation:
    def test_heavy_spender_temporarily_loses_share(self):
        """Equal configured weights; alpha burns usage, so the next
        weighted allocation skews toward beta — and recovers as the
        usage decays away."""
        arb = FairShareArbiter(half_life_s=100.0, usage_scale=50.0)
        demands = {"a": 8, "b": 8}

        def split(now):
            weights = {
                "a": arb.effective_weight("alpha", now),
                "b": arb.effective_weight("beta", now),
            }
            return SchedulingAlgorithm().divide(8, demands, weights)[0]

        assert split(0.0) == {"a": 4, "b": 4}
        arb.observe_usage("alpha", 100.0, now=0.0)  # two knees: weight / 4
        skewed = split(0.0)
        assert skewed["b"] > skewed["a"]
        assert skewed == {"a": 2, "b": 6}  # 1:4 weight ratio over 8 slots
        # ~7 half-lives later alpha's usage is negligible again
        recovered = split(700.0)
        assert recovered == {"a": 4, "b": 4}
