"""Unit tests for transaction admission policies."""

import pytest

from repro.core.parameters import SimulationParameters
from repro.core.transaction import Transaction
from repro.policies.admission import (
    AdaptiveAdmission,
    FCFSAdmission,
    SmallestFirstAdmission,
    make_admission_policy,
)


def txns(*sizes):
    return [Transaction(i, nu=size, lock_count=1) for i, size in enumerate(sizes)]


class TestFCFS:
    def test_admits_head_when_unlimited(self):
        policy = FCFSAdmission()
        assert policy.select(txns(5, 1, 9), in_flight=100) == 0

    def test_empty_pending_returns_none(self):
        assert FCFSAdmission().select([], in_flight=0) is None

    def test_mpl_limit_holds_admission(self):
        policy = FCFSAdmission(mpl_limit=2)
        pending = txns(5)
        assert policy.select(pending, in_flight=2) is None
        assert policy.select(pending, in_flight=1) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            FCFSAdmission(mpl_limit=-1)

    def test_feedback_hooks_are_noops(self):
        policy = FCFSAdmission()
        policy.on_grant()
        policy.on_deny()


class TestSmallestFirst:
    def test_picks_smallest(self):
        policy = SmallestFirstAdmission()
        assert policy.select(txns(5, 1, 9), in_flight=0) == 1

    def test_ties_resolve_to_earliest(self):
        policy = SmallestFirstAdmission()
        assert policy.select(txns(3, 3, 3), in_flight=0) == 0

    def test_respects_mpl(self):
        policy = SmallestFirstAdmission(mpl_limit=1)
        assert policy.select(txns(5, 1), in_flight=1) is None


class TestAdaptive:
    def test_initial_limit_enforced(self):
        policy = AdaptiveAdmission(initial_mpl=4)
        assert policy.select(txns(1), in_flight=4) is None
        assert policy.select(txns(1), in_flight=3) == 0

    def test_high_denial_rate_halves_limit(self):
        policy = AdaptiveAdmission(initial_mpl=8, window=10, low=0.1, high=0.4)
        for _ in range(5):
            policy.on_grant()
        for _ in range(5):
            policy.on_deny()
        assert policy.mpl_limit == 4

    def test_low_denial_rate_grows_limit(self):
        policy = AdaptiveAdmission(initial_mpl=8, window=10, low=0.2, high=0.5)
        for _ in range(10):
            policy.on_grant()
        assert policy.mpl_limit == 9

    def test_mid_rate_leaves_limit(self):
        policy = AdaptiveAdmission(initial_mpl=8, window=10, low=0.1, high=0.6)
        for _ in range(7):
            policy.on_grant()
        for _ in range(3):
            policy.on_deny()
        assert policy.mpl_limit == 8

    def test_limit_never_below_one(self):
        policy = AdaptiveAdmission(initial_mpl=1, window=2, low=0.1, high=0.4)
        policy.on_deny()
        policy.on_deny()
        assert policy.mpl_limit == 1

    def test_limit_capped_at_max(self):
        policy = AdaptiveAdmission(initial_mpl=4, max_mpl=4, window=2, low=0.4, high=0.9)
        policy.on_grant()
        policy.on_grant()
        assert policy.mpl_limit == 4

    def test_window_resets_after_adaptation(self):
        policy = AdaptiveAdmission(initial_mpl=8, window=4, low=0.1, high=0.4)
        for _ in range(4):
            policy.on_deny()
        assert policy.mpl_limit == 4
        assert policy._grants == 0 and policy._denials == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveAdmission(initial_mpl=0)
        with pytest.raises(ValueError):
            AdaptiveAdmission(low=0.5, high=0.5)


class TestFactory:
    def test_fcfs(self):
        policy = make_admission_policy(SimulationParameters(txn_policy="fcfs"))
        assert isinstance(policy, FCFSAdmission)
        assert policy.mpl_limit == 0

    def test_smallest_with_limit(self):
        policy = make_admission_policy(
            SimulationParameters(txn_policy="smallest", mpl_limit=3)
        )
        assert isinstance(policy, SmallestFirstAdmission)
        assert policy.mpl_limit == 3

    def test_adaptive_default_initial_scales_with_npros(self):
        policy = make_admission_policy(
            SimulationParameters(txn_policy="adaptive", npros=10, ntrans=200)
        )
        assert isinstance(policy, AdaptiveAdmission)
        assert policy.mpl_limit == 20

    def test_adaptive_initial_capped_by_population(self):
        policy = make_admission_policy(
            SimulationParameters(txn_policy="adaptive", npros=10, ntrans=5)
        )
        assert policy.mpl_limit == 5

    def test_adaptive_explicit_limit_wins(self):
        policy = make_admission_policy(
            SimulationParameters(txn_policy="adaptive", mpl_limit=7)
        )
        assert policy.mpl_limit == 7
