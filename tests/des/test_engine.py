"""Unit tests for the environment / run loop."""

import os
import sys

import pytest

from repro import LockingGranularityModel
from repro.des import Environment, Server
from repro.des import engine
from repro.des.errors import EmptySchedule, SimulationError
from tests.core.test_subtransactions import PINS


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=10).now == 10.0

    def test_run_until_time_advances_clock_exactly(self, env):
        env.timeout(3)
        env.run(until=7)
        assert env.now == 7

    def test_run_until_past_raises(self, env):
        env.timeout(5)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_none_drains_heap(self, env):
        env.timeout(1)
        env.timeout(9)
        env.run()
        assert env.now == 9

    def test_run_until_event_returns_value(self, env):
        timeout = env.timeout(2, value="done")
        assert env.run(until=timeout) == "done"
        assert env.now == 2

    def test_run_until_processed_event_returns_immediately(self, env):
        timeout = env.timeout(1, value="x")
        env.run()
        assert env.run(until=timeout) == "x"

    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        env.timeout(1)
        with pytest.raises(EmptySchedule):
            env.run(until=never)

    def test_same_time_events_fifo_within_priority(self, env):
        order = []
        for name in "abc":
            event = env.event()
            event.callbacks.append(lambda _e, n=name: order.append(n))
            event.succeed()
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_priority_processed_first(self, env):
        order = []
        normal = env.event()
        normal.callbacks.append(lambda _e: order.append("normal"))
        normal.succeed()  # NORMAL priority
        urgent = env.event()
        urgent.callbacks.append(lambda _e: order.append("urgent"))
        urgent.succeed(priority=0)  # URGENT
        env.run()
        assert order == ["urgent", "normal"]

    def test_events_scheduled_during_run_are_processed(self, env):
        seen = []

        def chain(env):
            yield env.timeout(1)
            seen.append(env.now)
            yield env.timeout(1)
            seen.append(env.now)

        env.process(chain(env))
        env.run(until=5)
        assert seen == [1, 2]

    def test_run_until_boundary_includes_events_at_that_time(self, env):
        fired = []
        event = env.timeout(5)
        event.callbacks.append(lambda _e: fired.append(env.now))
        env.run(until=5)
        assert fired == [5]


class TestNegativeDelays:
    def test_negative_delays_rejected(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule_callback(lambda: None, -0.5)
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule(env.event(), delay=-2.0)

    @pytest.mark.parametrize("delays", [(-1.0,), (1.0, -1.0)])
    def test_negative_tick_rejected(self, env, delays):
        # The first bare yield is scheduled by the process itself; later
        # ones by the dispatcher's tick requeue.  Both must refuse.
        def sleeper():
            for delay in delays:
                yield delay

        env.process(sleeper())
        with pytest.raises(ValueError, match="negative delay"):
            env.run()


class TestKernelStats:
    def test_dispatch_counter_counts_processed_events(self, env):
        for _ in range(5):
            env.timeout(1.0)
        env.run()
        assert env.events_dispatched == 5
        assert env.heap_depth == 0

    def test_dispatch_counter_accumulates_across_runs(self, env):
        env.timeout(1.0)
        env.run(until=1.0)
        env.timeout(1.0)
        env.run()
        assert env.events_dispatched == 2

    def test_unprocessed_events_remain_in_heap_length(self, env):
        env.timeout(1.0)
        env.timeout(10.0)
        env.run(until=5.0)
        assert env.events_dispatched == 1
        assert env.heap_depth == 1


class TestStepMatchesRun:
    def test_step_and_run_dispatch_identically(self):
        """Repeated step() and one run() share the dispatch order, and
        both count every entry they pop, stale server completions
        included."""

        def workload(env):
            log = []
            server = Server(env)

            def note(label):
                return lambda event: log.append((label, env.now, event.ok))

            def sleeper():
                for _ in range(2):
                    yield 1.5  # bare-delay tick
                    log.append(("tick", env.now))
                yield 0.25  # the last yield is a tick too
                log.append(("slept", env.now))

            def timed():
                for _ in range(3):
                    yield env.timeout(1.0)
                    log.append(("timeout", env.now))
                failed = env.event()
                failed.callbacks.append(note("failed"))
                failed.fail(RuntimeError("defused"))
                failed.defuse()

            def burst():
                # Each arrival preempts the job in service, leaving its
                # completion behind on the heap as a stale entry.
                for priority in (8, 5, 2):
                    server.submit(0.5, priority=priority).callbacks.append(
                        note("job{}".format(priority))
                    )

            env.process(sleeper())
            env.process(timed())
            server.submit(10.0, priority=9).callbacks.append(note("long"))
            env.schedule_callback(burst, 1.0)
            env.schedule_callback(lambda: log.append(("callback", env.now)), 2.5)
            return log

        stepped = Environment()
        stepped_log = workload(stepped)
        steps = 0
        while stepped.peek() != float("inf"):
            stepped.step()
            steps += 1

        ran = Environment()
        ran_log = workload(ran)
        ran.run()

        assert stepped_log == ran_log
        assert ("slept", 3.25) in ran_log
        assert ("failed", 3.0, False) in ran_log
        assert stepped.now == ran.now
        assert stepped.events_dispatched == steps
        assert ran.events_dispatched == steps


class TestClassDispatch:
    def test_no_attribute_error_per_dispatch(self):
        """Entries are told apart by class: a Fig. 2 cell dispatches
        thousands of bare callbacks without a single AttributeError
        raised in the kernel, and its pinned dispatch count holds."""
        params, plan, dispatched = PINS["fig2"]
        des_dir = os.path.dirname(engine.__file__)
        raised = []

        def local(frame, event, arg):
            if event == "exception" and issubclass(arg[0], AttributeError):
                raised.append(frame.f_code.co_name)
            return local

        def calls(frame, event, arg):
            if os.path.dirname(frame.f_code.co_filename) == des_dir:
                frame.f_trace_lines = False
                return local
            return None

        model = LockingGranularityModel(params, fault_plan=plan)
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            model.run()
        finally:
            sys.settrace(previous)
        assert raised == []
        assert model.env.events_dispatched == dispatched


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace():
            env = Environment()
            log = []

            def proc(env, name):
                for _ in range(3):
                    yield env.timeout(1.5)
                    log.append((name, env.now))

            env.process(proc(env, "a"))
            env.process(proc(env, "b"))
            env.run()
            return log

        assert trace() == trace()
