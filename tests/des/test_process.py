"""Unit tests for generator processes."""

import pytest

from repro.des import Environment, Process
from repro.des.errors import Interrupt, SimulationError


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

    def test_exception_in_process_propagates(self):
        # After a Timeout, after a bare-delay tick, and an Interrupt the
        # process lets escape after a tick: each leaves run() and ends
        # the process's life.
        cases = [
            (lambda env: env.timeout(1), ValueError("inside")),
            (lambda env: 1, ValueError("inside")),
            (lambda env: 1, Interrupt("escaped")),
        ]
        for wait, error in cases:
            env = Environment()

            def proc(env):
                yield wait(env)
                raise error

            env.process(proc(env))
            with pytest.raises(type(error), match=str(error)):
                env.run()
            assert env.live_process_count == 0

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


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        process = env.process(victim(env))

        def killer(env):
            yield env.timeout(5)
            process.interrupt(cause="deadlock")

        env.process(killer(env))
        assert env.run(until=process) == ("interrupted", "deadlock", 5)

    def test_interrupted_process_can_continue(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            return env.now

        process = env.process(victim(env))

        def killer(env):
            yield env.timeout(2)
            process.interrupt()

        env.process(killer(env))
        assert env.run(until=process) == 3

    def test_interrupt_finished_process_raises(self, env):
        def quick(env):
            yield env.timeout(0)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupt_detaches_from_old_target(self, env):
        # After an interrupt, the original timeout must not resume the
        # process a second time.
        resumed = []

        def victim(env):
            try:
                yield env.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield env.timeout(20)
            resumed.append("second-wait")

        process = env.process(victim(env))

        def killer(env):
            yield env.timeout(1)
            process.interrupt()

        env.process(killer(env))
        env.run()
        assert resumed == ["interrupt", "second-wait"]

    @pytest.mark.parametrize("then", ["return", "wait", "sleep"])
    def test_stale_tick_after_the_process_moved_on(self, env, then):
        """A bare-delay sleep cut short by an interrupt leaves its tick
        on the heap.  When that tick comes due after the process has
        finished, while it waits on an event, or while it sleeps on a
        newer tick, it is dropped: the process neither resumes nor
        completes a second time."""

        def victim(env):
            try:
                yield 10.0
            except Interrupt:
                pass
            if then == "wait":
                yield env.timeout(20.0)
            elif then == "sleep":
                yield 20.0
            return env.now

        process = env.process(victim(env))
        env.schedule_callback(process.interrupt, 1.0)

        def joiner(env):
            value = yield process
            return (value, env.now)

        joined = env.process(joiner(env))
        expected = 1.0 if then == "return" else 21.0
        assert env.run(until=joined) == (expected, expected)
        env.run()
        assert env.now == (10.0 if then == "return" else 21.0)


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
