"""Stall detection in the run loop: wall-clock watchdog + dry heap."""

import pytest

from repro.des.errors import SimulationStalled


def _spinner(env):
    """A process that schedules events forever."""
    while True:
        yield env.timeout(1.0)


def _waiter(env, event):
    yield event


class TestWallClockTimeout:
    def test_timeout_raises_stalled(self, env):
        env.process(_spinner(env))
        with pytest.raises(SimulationStalled, match="wall-clock timeout"):
            env.run(timeout=0.01)

    def test_stalled_carries_kernel_stats(self, env):
        env.process(_spinner(env))
        with pytest.raises(SimulationStalled) as excinfo:
            env.run(until=1e12, timeout=0.01)
        stats = excinfo.value.stats
        assert stats is not None
        assert stats["events_dispatched"] > 0
        assert str(excinfo.value).endswith(
            "[kernel: {{'events_dispatched': {}, 'heap_length': {}}}]".format(
                stats["events_dispatched"], stats["heap_length"]
            )
        )

    def test_generous_timeout_does_not_fire(self, env):
        done = []

        def worker(env):
            yield env.timeout(5.0)
            done.append(env.now)

        env.process(worker(env))
        env.run(until=10.0, timeout=60.0)
        assert done == [5.0]
        assert env.now == 10.0

    def test_no_timeout_keeps_guard_free_path(self, env):
        env.process(_spinner(env))
        env.run(until=100.0)  # must terminate by simulation time alone
        assert env.now == 100.0


class TestDryHeapDetection:
    def test_live_waiter_on_dead_event_stalls(self, env):
        env.process(_waiter(env, env.event()))  # never triggered
        with pytest.raises(SimulationStalled, match="heap ran dry"):
            env.run(until=100.0)

    def test_no_live_processes_is_not_a_stall(self, env):
        env.timeout(1.0)
        env.run(until=100.0)
        assert env.now == 100.0

    def test_finished_process_is_not_live(self, env):
        def worker(env, wait):
            yield wait

        env.process(worker(env, env.timeout(2.0)))
        env.process(worker(env, 2.0))  # returns straight from a tick
        env.run(until=100.0)
        assert env.live_process_count == 0
        assert env.now == 100.0

    def test_live_process_count_tracks(self, env):
        event = env.event()
        env.process(_waiter(env, event))
        env.process(_waiter(env, event))
        assert env.live_process_count == 2
        event.succeed()
        env.run()
        assert env.live_process_count == 0

    def test_until_none_still_returns_on_dry_heap(self, env):
        """Open-ended runs keep the historical contract: running out
        of events is the normal way to finish, never a stall."""
        env.process(_waiter(env, env.event()))
        env.run()  # no `until`: drains and returns
        assert env.live_process_count == 1
