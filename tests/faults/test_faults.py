"""Model-level fault injection tests.

Two families of guarantees:

* **Bit-identity when disabled** — no plan, an empty plan, or the
  explicit default backoff must all reproduce the untouched model's
  golden outputs exactly, and the cache address of the golden run must
  not move (faults live outside :class:`SimulationParameters`).
* **Determinism when enabled** — the same (plan, seed) pair yields
  identical faulted results on every run, and the fault machinery
  actually does what it says (crashes lower availability, abort/retry
  events appear in the trace, node targeting is honoured).
"""

import dataclasses

import pytest

from repro.core.model import LockingGranularityModel, simulate
from repro.core.parameters import SimulationParameters
from repro.des.trace import Trace
from repro.experiments.cache import cache_key
from repro.faults import (
    CrashSpec,
    ExponentialBackoff,
    FaultInjector,
    FaultPlan,
    FixedUniformBackoff,
    LinkDelaySpec,
    PartitionSpec,
    SlowdownSpec,
    StallSpec,
)

#: Content address of the golden run, pinned before fault injection
#: existed and re-pinned at each deliberate ``MODEL_VERSION`` bump
#: (last at 3).  If it moves otherwise, every previously cached result
#: is silently orphaned — treat a failure here as a release blocker.
GOLDEN_CACHE_KEY = (
    "26440634f6a840f6287638ced0a7edb19a37d2c43457978673469ba680d577e8"
)

CRASHY = FaultPlan(crashes=(CrashSpec(mttf=30.0, mttr=10.0),))


def _dict(result):
    return result.as_dict(include_params=False)


class TestDisabledPlanBitIdentity:
    def test_golden_cache_key_is_unchanged(self, fast_params):
        assert cache_key(fast_params) == GOLDEN_CACHE_KEY

    def test_no_plan_equals_baseline(self, fast_params):
        baseline = simulate(fast_params)
        assert baseline.totcom == 129  # the pre-fault golden value
        assert _dict(simulate(fast_params, fault_plan=None)) == _dict(baseline)

    def test_empty_plan_equals_baseline(self, fast_params):
        baseline = simulate(fast_params)
        faultless = simulate(fast_params, fault_plan=FaultPlan())
        assert _dict(faultless) == _dict(baseline)

    def test_explicit_default_backoff_equals_baseline(self, fast_params):
        baseline = simulate(fast_params)
        explicit = simulate(fast_params, backoff=FixedUniformBackoff())
        assert _dict(explicit) == _dict(baseline)

    def test_unfaulted_fault_metrics_are_inert(self, fast_params):
        result = simulate(fast_params)
        assert result.failure_aborts == 0
        assert result.availability == 1.0
        assert result.degraded_throughput == 0.0

    @pytest.mark.parametrize(
        "changes",
        [
            {"conflict_engine": "explicit"},
            {"conflict_engine": "explicit", "protocol": "incremental"},
            {"conflict_engine": "hierarchical"},
        ],
    )
    def test_variants_unaffected_by_seam(self, fast_params, changes):
        params = fast_params.replace(**changes)
        baseline = simulate(params)
        explicit = simulate(params, backoff=FixedUniformBackoff())
        assert _dict(explicit) == _dict(baseline)


class TestFaultedRuns:
    def test_crashes_are_observable(self, fast_params):
        result = simulate(fast_params, fault_plan=CRASHY)
        assert result.availability < 1.0
        assert result.availability > 0.0
        assert result.failure_aborts > 0
        assert result.totcom > 0  # degraded, not dead

    def test_same_plan_and_seed_is_bit_identical(self, fast_params):
        first = simulate(fast_params, fault_plan=CRASHY)
        second = simulate(fast_params, fault_plan=CRASHY)
        assert _dict(first) == _dict(second)

    def test_plan_seed_changes_fault_schedule(self, fast_params):
        base = simulate(fast_params, fault_plan=CRASHY)
        reseeded = simulate(
            fast_params,
            fault_plan=FaultPlan(crashes=CRASHY.crashes, seed=99),
        )
        assert _dict(base) != _dict(reseeded)

    def test_faults_alter_results(self, fast_params):
        baseline = simulate(fast_params)
        faulted = simulate(fast_params, fault_plan=CRASHY)
        assert _dict(faulted) != _dict(baseline)

    def test_backoff_policy_changes_faulted_run(self, fast_params):
        default = simulate(fast_params, fault_plan=CRASHY)
        exponential = simulate(
            fast_params, fault_plan=CRASHY, backoff=ExponentialBackoff()
        )
        assert _dict(exponential) != _dict(default)
        # ... deterministically.
        again = simulate(
            fast_params, fault_plan=CRASHY, backoff=ExponentialBackoff()
        )
        assert _dict(again) == _dict(exponential)

    @pytest.mark.parametrize(
        "changes",
        [
            {"conflict_engine": "explicit"},
            {"conflict_engine": "explicit", "protocol": "incremental"},
            {"conflict_engine": "hierarchical"},
        ],
    )
    def test_faulted_variants_reproducible(self, fast_params, changes):
        params = fast_params.replace(**changes)
        first = simulate(params, fault_plan=CRASHY)
        second = simulate(params, fault_plan=CRASHY)
        assert _dict(first) == _dict(second)

    def test_disk_slowdown_plan_runs_and_reproduces(self, fast_params):
        plan = FaultPlan(
            disk_slowdowns=(SlowdownSpec(mtbf=20.0, duration=10.0, factor=3.0),)
        )
        first = simulate(fast_params, fault_plan=plan)
        second = simulate(fast_params, fault_plan=plan)
        assert _dict(first) == _dict(second)
        assert first.availability == 1.0  # slow disks are not crashes
        assert _dict(first) != _dict(simulate(fast_params))

    def test_lock_stall_plan_runs_and_reproduces(self, fast_params):
        plan = FaultPlan(
            lock_stalls=(StallSpec(mtbf=20.0, duration=10.0, factor=4.0),)
        )
        first = simulate(fast_params, fault_plan=plan)
        second = simulate(fast_params, fault_plan=plan)
        assert _dict(first) == _dict(second)
        assert _dict(first) != _dict(simulate(fast_params))


class TestTraceEvents:
    def _run_traced(self, params, plan):
        trace = Trace()
        LockingGranularityModel(params, trace=trace, fault_plan=plan).run()
        return trace

    def test_crash_cycle_events(self, fast_params):
        trace = self._run_traced(fast_params, CRASHY)
        kinds = {record.kind for record in trace}
        assert "proc_crash" in kinds
        assert "proc_recover" in kinds
        assert "sub_fail" in kinds
        assert "retry" in kinds

    def test_crash_events_carry_node_and_kill_count(self, fast_params):
        trace = self._run_traced(fast_params, CRASHY)
        crashes = list(trace.records(kind="proc_crash"))
        assert crashes
        for record in crashes:
            assert 0 <= record.details["node"] < fast_params.npros
            assert record.details["jobs_killed"] >= 0

    def test_node_targeting_is_honoured(self, fast_params):
        plan = FaultPlan(
            crashes=(CrashSpec(mttf=30.0, mttr=10.0, processors=(1,)),)
        )
        trace = self._run_traced(fast_params, plan)
        crashes = list(trace.records(kind="proc_crash"))
        assert crashes
        assert {record.details["node"] for record in crashes} == {1}

    def test_slowdown_and_stall_events(self, fast_params):
        plan = FaultPlan(
            disk_slowdowns=(SlowdownSpec(mtbf=20.0, duration=10.0),),
            lock_stalls=(StallSpec(mtbf=20.0, duration=10.0),),
        )
        trace = self._run_traced(fast_params, plan)
        kinds = {record.kind for record in trace}
        assert "disk_slow" in kinds
        assert "disk_recover" in kinds
        assert "lockmgr_stall" in kinds
        assert "lockmgr_resume" in kinds


class TestInjectorAccounting:
    def test_counters_track_trace(self, fast_params):
        trace = Trace()
        model = LockingGranularityModel(
            fast_params, trace=trace, fault_plan=CRASHY
        )
        model.run()
        injector = model._injector
        assert isinstance(injector, FaultInjector)
        assert injector.crashes_injected == len(
            list(trace.records(kind="proc_crash"))
        )
        assert injector.jobs_killed >= 0

    def test_out_of_range_targets_are_ignored(self, fast_params):
        plan = FaultPlan(
            crashes=(CrashSpec(mttf=30.0, mttr=10.0, processors=(97,)),)
        )
        result = simulate(fast_params, fault_plan=plan)
        assert result.availability == 1.0
        assert result.failure_aborts == 0


class TestLockLanesUnderFaults:
    @pytest.mark.parametrize(
        "plan, lanes",
        [
            (CRASHY, False),
            (FaultPlan(disk_slowdowns=(SlowdownSpec(mtbf=20.0, duration=10.0),)), False),
            (FaultPlan(lock_stalls=(StallSpec(mtbf=20.0, duration=10.0),)), True),
        ],
        ids=["crash", "disk-slowdown", "lock-stall"],
    )
    def test_node_faults_take_the_per_node_path(self, fast_params, plan, lanes):
        # Crashes and slow disks make the nodes differ; a lock stall
        # slows every node alike and stays on the lanes.
        model = LockingGranularityModel(fast_params, fault_plan=plan)
        model.run()
        assert model.machine.lock_lanes is lanes

    def test_slowdown_scales_through_the_machine(self, env):
        # The slowdown process goes through Machine.set_disk_scale, so
        # even without install() it splits the lanes before scaling.
        from repro.engine.machine import Machine

        machine = Machine(env, 2)
        spec = SlowdownSpec(mtbf=1.0, duration=1e9, factor=3.0)
        plan = FaultPlan(disk_slowdowns=(spec,), seed=5)
        injector = FaultInjector(env, machine, plan, seed=1)
        env.process(injector._slowdown_loop(spec, 1, injector._streams.stream("s")))
        env.run(until=100.0)
        assert not machine.lock_lanes
        assert machine[1].disk.scale == 3.0
        assert machine[0].disk.scale == 1.0


class TestPartitionFaultTimes:
    """Distributed fault sources obey the same determinism contract."""

    CUT = FaultPlan(
        partitions=(PartitionSpec(mtbf=30.0, duration=10.0),),
        link_delays=(LinkDelaySpec(mtbf=50.0, duration=5.0, extra=0.4),),
    )

    def _fault_times(self, plan, seed=7):
        trace = Trace()
        params = SimulationParameters(
            dbsize=500, ltot=20, ntrans=5, maxtransize=50, npros=4,
            tmax=200.0, seed=seed, nnodes=3, net_latency=0.05,
            commit_protocol="primary-copy",
        )
        LockingGranularityModel(params, trace=trace, fault_plan=plan).run()
        return [
            (record.time, record.kind)
            for record in trace
            if record.kind in ("partition", "heal", "link_delay")
        ]

    def test_same_plan_and_seed_gives_identical_fault_times(self):
        times = self._fault_times(self.CUT)
        assert times  # the plan actually fired within the horizon
        assert times == self._fault_times(self.CUT)

    def test_plan_seed_moves_the_schedule(self):
        reseeded = dataclasses.replace(self.CUT, seed=99)
        assert self._fault_times(self.CUT) != self._fault_times(reseeded)

    def test_single_node_skips_partition_specs(self, fast_params):
        result = simulate(fast_params, fault_plan=self.CUT)
        baseline = simulate(fast_params)
        assert result.as_dict() == baseline.as_dict()
