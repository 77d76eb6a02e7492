"""Unit tests for the processor node."""

import pytest

from repro.des import Join
from repro.engine.processor import LOCK_TAG, TXN_TAG, Processor, ProcessorDown


class _Target:
    """Records the calls a completion target receives, with the time."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def succeed(self):
        self.calls.append(("succeed", self.env.now))

    def fail(self, exception):
        self.calls.append(("fail", exception, self.env.now))


class TestProcessor:
    def test_has_private_cpu_and_disk(self, env):
        node = Processor(env, 3)
        assert node.cpu is not node.disk
        assert "3" in node.cpu.name
        assert "3" in node.disk.name

    def test_io_then_compute_sequential(self, env):
        node = Processor(env, 0)

        def subtxn(env):
            yield node.io(4.0)
            io_done_at = env.now
            yield node.compute(1.0)
            return (io_done_at, env.now)

        process = env.process(subtxn(env))
        assert env.run(until=process) == (4.0, 5.0)

    def test_lock_work_uses_both_devices_concurrently(self, env):
        node = Processor(env, 0)

        def requester(env):
            done = node.lock_work(cpu_demand=1.0, io_demand=4.0, done=Join(env, 2))
            yield done.event
            return env.now

        process = env.process(requester(env))
        # Concurrent: max(1, 4) = 4, not 5.
        assert env.run(until=process) == 4.0

    def test_lock_work_zero_demand_completes_instantly(self, env):
        node = Processor(env, 0)

        def requester(env):
            # Nothing is submitted, so a join over no shares is done.
            yield node.lock_work(0.0, 0.0, Join(env, 0)).event
            return env.now

        process = env.process(requester(env))
        assert env.run(until=process) == 0.0
        assert node.disk.demand_submitted() == node.cpu.demand_submitted() == 0

    def test_lock_work_single_device(self, env):
        node = Processor(env, 0)

        def requester(env):
            done = node.lock_work(cpu_demand=2.0, io_demand=0.0, done=Join(env, 1))
            yield done.event
            return env.now

        process = env.process(requester(env))
        assert env.run(until=process) == 2.0

    def test_lock_work_preempts_transaction_work(self, env):
        node = Processor(env, 0)
        txn_done = node.io(10.0)

        def lock_request(env):
            yield env.timeout(2)
            yield node.lock_work(0.0, 3.0, Join(env, 1)).event
            return env.now

        lock_proc = env.process(lock_request(env))
        env.run(until=lock_proc)
        assert env.now == 5.0  # lock work ran immediately on arrival
        env.run(until=txn_done)
        assert env.now == 13.0  # transaction resumed afterwards

    def test_busy_split_by_tag(self, env):
        node = Processor(env, 0)
        node.io(5.0)
        node.compute(2.0)

        def locker(env):
            yield env.timeout(1)
            yield node.lock_work(1.0, 1.0, Join(env, 2)).event

        env.process(locker(env))
        env.run()
        assert node.io_busy(TXN_TAG) == pytest.approx(5.0)
        assert node.io_busy(LOCK_TAG) == pytest.approx(1.0)
        assert node.cpu_busy(TXN_TAG) == pytest.approx(2.0)
        assert node.cpu_busy(LOCK_TAG) == pytest.approx(1.0)
        assert node.cpu_busy() == pytest.approx(3.0)


class TestCompletionTargets:
    @pytest.mark.parametrize("work", ["io", "compute"])
    def test_down_node_fails_the_target_at_once(self, env, work):
        node = Processor(env, 2)
        env.run(until=5.0)
        node.crash()
        target = _Target(env)
        assert getattr(node, work)(1.0, done=target) is target
        # Failed synchronously, at the current instant, before any
        # event is dispatched.
        [(call, down, when)] = target.calls
        assert (call, when) == ("fail", 5.0)
        assert isinstance(down, ProcessorDown)
        assert down.index == 2
        assert node.disk.jobs_served() == node.cpu.jobs_served() == 0

    @pytest.mark.parametrize("work, server", [("io", "disk"), ("compute", "cpu")])
    def test_up_node_hands_the_target_to_its_server(self, env, work, server):
        node = Processor(env, 0)
        target = _Target(env)
        getattr(node, work)(2.0, done=target)
        env.run()
        assert target.calls == [("succeed", 2.0)]
        assert getattr(node, server).busy_time(TXN_TAG) == pytest.approx(2.0)
