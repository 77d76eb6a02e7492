"""Unit tests for the metrics collector."""

import math
import random

import pytest

from repro.core.conflict import make_conflict_engine
from repro.core.metrics import MetricsCollector, _percentiles
from repro.core.parameters import SimulationParameters
from repro.core.transaction import Transaction
from repro.des import Environment
from repro.engine.machine import Machine


@pytest.fixture
def setup():
    params = SimulationParameters(
        dbsize=200, ltot=10, ntrans=2, maxtransize=20, npros=2, tmax=100.0
    )
    env = Environment()
    machine = Machine(env, params.npros)
    conflicts = make_conflict_engine(params, random.Random(1))
    collector = MetricsCollector(env, params, machine, conflicts)
    return env, params, machine, collector


class TestPercentiles:
    """Pin the nearest-rank formula: rank = ceil(f * n), 1-based.

    The old ``int(round(f * (n - 1)))`` implementation used banker's
    rounding, so the median of an even-count sample drifted one rank
    high (e.g. median of four samples picked ``ordered[2]``).  These
    cases fail under that implementation and pass under nearest-rank.
    """

    def test_empty_is_nan(self):
        assert all(math.isnan(v) for v in _percentiles([], (0.5, 0.95)))

    def test_single_sample(self):
        assert _percentiles([42.0], (0.5, 0.95)) == [42.0, 42.0]

    def test_median_of_four_is_second_sample(self):
        # ceil(0.5 * 4) = 2 -> ordered[1]; the banker's-rounding bug
        # returned ordered[2] (30.0) here.
        assert _percentiles([40.0, 20.0, 10.0, 30.0], (0.5,)) == [20.0]

    def test_median_of_odd_count_is_middle(self):
        assert _percentiles([5.0, 1.0, 3.0], (0.5,)) == [3.0]

    def test_p95_of_twenty_is_nineteenth(self):
        samples = [float(i) for i in range(1, 21)]
        # ceil(0.95 * 20) = 19 -> ordered[18] = 19.0
        assert _percentiles(samples, (0.95,)) == [19.0]

    def test_extreme_fractions_clamped(self):
        samples = [3.0, 1.0, 2.0]
        assert _percentiles(samples, (0.0,)) == [1.0]
        assert _percentiles(samples, (1.0,)) == [3.0]

    def test_unsorted_input_is_ordered_first(self):
        assert _percentiles([9.0, 0.0, 5.0, 7.0, 2.0], (0.5,)) == [5.0]


class TestCounting:
    def test_requests_and_denials(self, setup):
        _, _, _, collector = setup
        txn = Transaction(1, nu=5, lock_count=1)
        collector.note_request(txn, 1)
        collector.note_request(txn, 1)
        collector.note_denial(txn, Transaction(2, nu=5, lock_count=1))
        assert collector.lock_requests == 2
        assert collector.lock_denials == 1

    def test_completion_records_response(self, setup):
        env, _, _, collector = setup
        txn = Transaction(1, nu=5, lock_count=1)
        txn.arrival = 0.0
        txn.attempts = 2

        def advance(env):
            yield env.timeout(7)
            collector.note_completion(txn)

        env.process(advance(env))
        env.run()
        assert collector.completions == 1
        assert collector.response.mean == pytest.approx(7.0)
        assert collector.attempts.mean == pytest.approx(2.0)

    def test_abort_counting(self, setup):
        _, _, _, collector = setup
        collector.note_abort(Transaction(1, nu=5, lock_count=1), "deadlock")
        assert collector.deadlock_aborts == 1
        assert collector.lock_denials == 1


class TestFinalize:
    def test_result_fields_consistent(self, setup):
        env, params, machine, collector = setup
        machine[0].io(10.0)
        machine[1].compute(4.0)

        def locker(env):
            yield machine.lock_overhead(2.0, 2.0)

        env.process(locker(env))
        env.run(until=params.tmax)
        result = collector.finalize()
        assert result.totios == pytest.approx(10.0 + 2.0)
        assert result.totcpus == pytest.approx(4.0 + 2.0)
        assert result.lockios == pytest.approx(2.0)
        assert result.lockcpus == pytest.approx(2.0)
        assert result.usefulios == pytest.approx(10.0 / 2)
        assert result.usefulcpus == pytest.approx(4.0 / 2)
        assert result.throughput == 0.0
        assert math.isnan(result.response_time)

    def test_denial_rate_zero_without_requests(self, setup):
        env, params, _, collector = setup
        env.run(until=params.tmax)
        assert collector.finalize().denial_rate == 0.0


class TestWarmup:
    def test_pre_warmup_activity_discarded(self):
        params = SimulationParameters(
            dbsize=200, ltot=10, ntrans=2, maxtransize=20, npros=2,
            tmax=100.0, warmup=50.0,
        )
        env = Environment()
        machine = Machine(env, params.npros)
        conflicts = make_conflict_engine(params, random.Random(1))
        collector = MetricsCollector(env, params, machine, conflicts)

        def early_and_late(env):
            machine[0].io(10.0)  # entirely before warmup
            txn = Transaction(1, nu=5, lock_count=1)
            txn.arrival = 0.0
            collector.note_request(txn, 1)
            yield env.timeout(20)
            collector.note_completion(txn)
            yield env.timeout(40)  # now at t=60, inside the window
            machine[0].io(5.0)
            late = Transaction(2, nu=5, lock_count=1)
            late.arrival = 60.0
            collector.note_request(late, 1)
            yield env.timeout(10)
            collector.note_completion(late)

        env.process(early_and_late(env))
        env.run(until=params.tmax)
        result = collector.finalize()
        assert result.totcom == 1  # only the post-warmup completion
        assert result.lock_requests == 1
        assert result.totios == pytest.approx(5.0)
        assert result.throughput == pytest.approx(1 / 50.0)
        assert result.response_time == pytest.approx(10.0)
