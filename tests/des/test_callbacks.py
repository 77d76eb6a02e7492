"""Bare-callback scheduling and schedule() delay validation."""

import functools

import pytest

from repro.des.events import URGENT, Event


class TestScheduleCallback:
    def test_fires_at_the_scheduled_time(self, env):
        seen = []
        env.schedule_callback(lambda: seen.append(env.now), 3.5)
        env.run()
        assert seen == [3.5]

    def test_zero_delay_fires_immediately(self, env):
        seen = []
        env.schedule_callback(lambda: seen.append(env.now))
        env.run()
        assert seen == [0.0]

    def test_insertion_order_ties_with_events(self, env):
        """Same time, same priority: callbacks and events interleave in
        strict insertion order, exactly like two events would."""
        seen = []
        first = Event(env)
        first.callbacks.append(lambda _ev: seen.append("event"))
        first.succeed()
        env.schedule_callback(lambda: seen.append("callback"), 0.0)
        env.run()
        assert seen == ["event", "callback"]

    def test_urgent_priority_runs_first(self, env):
        seen = []
        env.schedule_callback(lambda: seen.append("normal"), 1.0)
        env.schedule_callback(
            lambda: seen.append("urgent"), 1.0, priority=URGENT
        )
        env.run()
        assert seen == ["urgent", "normal"]

    def test_counts_as_dispatched(self, env):
        for _ in range(5):
            env.schedule_callback(lambda: None, 1.0)
        env.run()
        assert env.events_dispatched == 5

    def test_interleaves_with_processes(self, env):
        seen = []

        def ticker(env):
            for _ in range(3):
                yield env.timeout(1.0)
                seen.append(("process", env.now))

        env.process(ticker(env))
        env.schedule_callback(lambda: seen.append(("callback", env.now)), 1.5)
        env.run()
        assert seen == [
            ("process", 1.0),
            ("callback", 1.5),
            ("process", 2.0),
            ("process", 3.0),
        ]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule_callback(lambda: None, -0.5)


class _Callable:
    def __init__(self, seen):
        self.seen = seen

    def __call__(self):
        self.seen.append("instance")

    def method(self):
        self.seen.append("method")


def _function(seen):
    seen.append("function")


class TestCallbackContract:
    """Only functions, lambdas and bound methods may be scheduled: the
    run loop recognises a bare callback by exactly those classes."""

    def test_functions_lambdas_and_bound_methods_accepted(self, env):
        seen = []
        env.schedule_callback(lambda: _function(seen), 1.0)
        env.schedule_callback(_Callable(seen).method, 2.0)
        event = Event(env)
        event.callbacks.append(lambda _ev: seen.append("event"))
        env.schedule_callback(event.succeed, 3.0)
        env.run()
        assert seen == ["function", "method", "event"]
        assert env.events_dispatched == 4

    @pytest.mark.parametrize(
        "make",
        [
            lambda env, seen: Event(env),
            lambda env, seen: _Callable(seen),
            lambda env, seen: functools.partial(_function, seen),
        ],
        ids=["event", "callable-instance", "partial"],
    )
    def test_other_callables_rejected_at_schedule_time(self, env, make):
        seen = []
        with pytest.raises(TypeError, match="function or bound method"):
            env.schedule_callback(make(env, seen), 1.0)
        assert env.heap_depth == 0
        env.run()
        assert seen == []


class TestScheduleValidation:
    def test_schedule_rejects_negative_delay(self, env):
        """A direct schedule() must not time-travel the heap."""
        event = Event(env)
        event._ok = True
        event._value = None
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule(event, delay=-1.0)

    def test_timeout_rejects_negative_delay(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)


class TestProfiledCallbacks:
    def test_profiled_kernel_counts_callbacks(self, env):
        """The kernel's own dispatch counter counts bare callbacks and
        events alike."""
        for _ in range(3):
            env.schedule_callback(lambda: None, 1.0)
        env.timeout(2.0)
        env.run()
        assert env.events_dispatched == 4
        assert env.heap_depth == 0
