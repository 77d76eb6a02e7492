"""Unit tests for generator processes."""

import pytest

from repro.des import Environment, Process
from repro.des.errors import SimulationError


class TestBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_runs_at_creation_instant(self, env):
        seen = []

        def proc(env):
            seen.append(env.now)
            yield env.timeout(1)

        env.schedule_callback(lambda: seen.append("callback"), 0)
        env.process(proc(env))
        env.run()
        # The process starts ahead of an ordinary entry due at the
        # same instant, even one scheduled before it was created.
        assert seen == [0, "callback"]

    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        process = env.process(proc(env))
        assert env.run(until=process) == "result"

    def test_is_alive_lifecycle(self, env):
        def proc(env):
            yield env.timeout(1)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_processes_can_wait_on_processes(self):
        # The second input wakes from a bare-delay tick first, then
        # yields the (pending) inner process.
        for lead in (None, 1.0):
            env = Environment()

            def inner(env):
                yield env.timeout(3)
                return "inner-done"

            def outer(env):
                if lead is not None:
                    yield lead
                value = yield env.process(inner(env))
                return (value, env.now)

            outer_proc = env.process(outer(env))
            assert env.run(until=outer_proc) == ("inner-done", 3 + (lead or 0))

    def test_yielding_non_event_raises(self, env):
        # Bare ints/floats are valid delay yields, so a string is the
        # simplest thing that is neither an event nor a delay.
        def proc(env):
            yield "not-an-event"

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()
        assert env.live_process_count == 0

    def test_yielding_non_event_fails_the_process(self):
        # A joiner receives the error, so the run settles instead of
        # waiting forever on a process that never ends.  The second
        # input yields the bad value after a bare-delay tick.
        for lead in (None, 1.0):
            env = Environment()

            def bad(env):
                if lead is not None:
                    yield lead
                yield "not-an-event"

            process = env.process(bad(env))
            caught = []

            def joiner(env):
                try:
                    yield process
                except SimulationError as error:
                    caught.append((str(error), env.now))

            env.process(joiner(env))
            env.run(timeout=10.0)
            assert caught == [
                ("process yielded a non-event: 'not-an-event'", lead or 0)
            ]
            assert not process.is_alive
            assert env.live_process_count == 0

    def test_exception_in_process_propagates(self):
        # After a Timeout and after a bare-delay tick: each leaves run()
        # and ends the process's life.
        for wait in (lambda env: env.timeout(1), lambda env: 1):
            env = Environment()

            def proc(env):
                yield wait(env)
                raise ValueError("inside")

            env.process(proc(env))
            with pytest.raises(ValueError, match="inside"):
                env.run()
            assert env.live_process_count == 0

    def test_bare_delay_as_last_yield_completes_once(self, env):
        """A process whose last yield is a tick finishes once: its
        completion entry is an Event entry, not a second tick."""

        def sleeper(env):
            yield 2.0
            return "slept"

        process = env.process(sleeper(env))
        joined = []

        def joiner(env):
            joined.append(((yield process), env.now))

        env.process(joiner(env))
        # A completion resumed as a tick would loop at t=2 forever.
        env.run(timeout=10.0)
        assert joined == [("slept", 2.0)]
        assert env.live_process_count == 0
        # Two starts, the tick, and one completion per process.
        assert env.events_dispatched == 5

    def test_waiting_on_already_processed_event(self):
        # The second input yields the processed event right after a
        # bare-delay tick resumed it.
        for lead in (None, 0.5):
            env = Environment()
            done = env.timeout(0, value="early")
            env.run()

            def proc(env):
                if lead is not None:
                    yield lead
                value = yield done
                return value

            process = env.process(proc(env))
            assert env.run(until=process) == "early"

    def test_failed_event_raises_at_yield(self, env):
        trigger = env.event()

        def proc(env):
            try:
                yield trigger
            except RuntimeError as error:
                return "caught: {}".format(error)

        process = env.process(proc(env))
        trigger.fail(RuntimeError("bad"))
        assert env.run(until=process) == "caught: bad"


class TestForkJoin:
    def test_any_of_over_processes(self, env):
        def worker(env, duration):
            yield env.timeout(duration)
            return duration

        def parent(env):
            children = [env.process(worker(env, d)) for d in (5, 2)]
            yield env.any_of(children)
            return env.now

        parent_proc = env.process(parent(env))
        assert env.run(until=parent_proc) == 2

    def test_deterministic_fork_join_ordering(self):
        def build():
            env = Environment()
            order = []

            def worker(env, name):
                yield env.timeout(1)
                order.append(name)

            def parent(env):
                for child in [env.process(worker(env, n)) for n in "abcd"]:
                    yield child

            env.process(parent(env))
            env.run()
            return order

        assert build() == list("abcd")
        assert build() == build()
