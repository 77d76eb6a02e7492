"""Unit tests for the event primitives."""

import pytest

from repro.des import AnyOf, Environment, Event, Join, Server, Timeout
from repro.des.errors import SimulationError


class TestEvent:
    def test_fresh_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_default_value_is_none(self, env):
        event = env.event()
        event.succeed()
        assert event.value is None

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_after_fail_raises(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defuse()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_propagates_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defuse()
        env.run()  # must not raise

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed
        # A process that yielded a Timeout resumes before a callback
        # appended to it afterwards.
        timeout = env.timeout(1, value="resumed")

        def waiter(env):
            seen.append((yield timeout))

        env.process(waiter(env))
        env.step()  # start the process: it yields the timeout
        timeout.callbacks.append(lambda e: seen.append("appended"))
        env.run()
        assert seen == ["payload", "resumed", "appended"]


class TestTimeout:
    def test_fires_at_delay(self, env):
        timeout = env.timeout(5)
        env.run()
        assert env.now == 5
        assert timeout.processed

    def test_carries_value(self, env):
        timeout = env.timeout(1, value="tick")
        env.run(until=timeout)
        assert timeout.value == "tick"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_fires_now(self, env):
        env.timeout(0)
        env.run()
        assert env.now == 0

    def test_repr_mentions_delay(self, env):
        assert "3" in repr(Timeout(env, 3))


class TestConditions:
    def test_any_of_fires_at_first(self, env):
        slow, fast = env.timeout(10), env.timeout(2, value="fast")
        race = env.any_of([slow, fast])
        env.run(until=race)
        assert env.now == 2
        assert "fast" in race.value

    def test_any_of_fails_if_child_fails(self, env):
        good = env.timeout(1)
        bad = env.event()
        race = env.any_of([good, bad])
        bad.fail(ValueError("child"))
        race.defuse()
        # The race defuses the failed child, so the run does not raise.
        env.run()
        assert race.triggered
        assert not race.ok

    def test_condition_accepts_already_processed_children(self, env):
        done = env.timeout(0)
        env.run()
        race = env.any_of([done])
        assert race.triggered

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [Event(other)])


class _Boom(Exception):
    pass


class TestJoin:
    def test_succeeds_with_value_after_last_report(self, env):
        join = Join(env, 2, "all")
        join.succeed()
        assert not join.event.triggered
        join.succeed()
        assert env.run(until=join.event) == "all"
        assert env.now == 0

    def test_zero_pending_succeeds_immediately(self, env):
        join = Join(env, 0)
        assert join.event.triggered
        assert env.run(until=join.event) is None

    def test_first_failure_fails_once_and_later_reports_are_ignored(self, env):
        join = Join(env, 3)
        join.fail(_Boom("first"))
        join.fail(_Boom("second"))
        join.succeed()
        join.succeed()
        join.event.defuse()
        env.run()
        assert not join.event.ok
        assert str(join.event.value) == "first"

    def test_reports_after_success_are_ignored(self, env):
        join = Join(env, 1)
        join.succeed()
        join.succeed()
        join.fail(_Boom("late"))
        env.run()
        assert join.event.ok

    def test_serves_as_server_completion_target(self, env):
        servers = [Server(env, "a"), Server(env, "b")]
        join = Join(env, 2)
        servers[0].submit(1.0, done=join)
        servers[1].submit(3.0, done=join)
        env.run(until=join.event)
        assert env.now == 3.0
