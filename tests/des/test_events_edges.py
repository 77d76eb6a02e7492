"""Additional edge-case tests for events and conditions."""

import pytest

from repro.des import AnyOf, Environment
from repro.des.errors import SimulationError


class TestConditionEdges:
    def test_any_of_with_one_already_failed_child(self, env):
        bad = env.event()
        bad.fail(RuntimeError("x"))
        bad.defuse()
        env.run()
        race = AnyOf(env, [bad, env.timeout(5)])
        race.defuse()
        env.run()
        # The already-failed child fails the race at construction.
        assert race.triggered
        assert not race.ok

    def test_any_of_mixed_processed_and_pending(self, env):
        done = env.timeout(0, value="early")
        env.run()
        late = env.timeout(3, value="late")
        race = AnyOf(env, [done, late])
        values = env.run(until=race)
        assert values == ["early"]
        assert env.now == 0

    def test_nested_conditions(self, env):
        inner = env.any_of([env.timeout(2), env.timeout(3)])
        outer = env.any_of([inner, env.timeout(10)])
        env.run(until=outer)
        assert env.now == 2

    def test_condition_value_only_includes_succeeded(self, env):
        fast = env.timeout(1, value="fast")
        slow = env.timeout(9, value="slow")
        race = env.any_of([fast, slow])
        values = env.run(until=race)
        assert values == ["fast"]

    def test_any_of_empty_succeeds_immediately(self, env):
        race = env.any_of([])
        assert race.triggered


class TestEventEdges:
    def test_callbacks_none_after_processing(self, env):
        event = env.timeout(0)
        env.run()
        assert event.callbacks is None

    def test_appending_callback_after_processing_fails(self, env):
        event = env.timeout(0)
        env.run()
        with pytest.raises(AttributeError):
            event.callbacks.append(lambda e: None)

    def test_succeed_with_priority_urgent_runs_first(self, env):
        order = []
        normal = env.event()
        normal.callbacks.append(lambda _e: order.append("n"))
        urgent = env.event()
        urgent.callbacks.append(lambda _e: order.append("u"))
        normal.succeed()
        urgent.succeed(priority=0)
        env.run()
        assert order == ["u", "n"]

    def test_environment_isolated_clocks(self):
        env_a = Environment()
        env_b = Environment(initial_time=100)
        env_a.timeout(5)
        env_a.run()
        assert env_a.now == 5
        assert env_b.now == 100

    def test_run_until_negative_event_error_message(self, env):
        never = env.event()
        with pytest.raises(Exception):
            env.run(until=never)

    def test_timeout_value_none_by_default(self, env):
        timeout = env.timeout(1)
        env.run()
        assert timeout.value is None

    def test_event_repr(self, env):
        assert "Event" in repr(env.event())

    def test_value_access_on_pending_condition(self, env):
        race = env.any_of([env.timeout(5)])
        with pytest.raises(SimulationError):
            _ = race.value
