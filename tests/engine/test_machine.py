"""Unit tests for the multiprocessor machine."""

import pytest

from repro.des import Environment, SimulationError
from repro.engine.machine import BusySnapshot, Machine


class TestMachine:
    def test_validates_npros(self, env):
        with pytest.raises(ValueError):
            Machine(env, 0)

    def test_len_and_indexing(self, env):
        machine = Machine(env, 4)
        assert len(machine) == 4
        assert machine[2].index == 2

    def test_lock_overhead_splits_evenly(self, env):
        machine = Machine(env, 4)

        def requester(env):
            yield machine.lock_overhead(cpu_total=4.0, io_total=8.0)
            return env.now

        process = env.process(requester(env))
        # Each node gets cpu 1.0 and io 2.0 concurrently: done at 2.0.
        assert env.run(until=process) == 2.0
        for node in machine.processors:
            assert node.cpu_busy("lock") == pytest.approx(1.0)
            assert node.io_busy("lock") == pytest.approx(2.0)

    def test_lock_overhead_zero_total(self, env):
        machine = Machine(env, 2)

        def requester(env):
            yield machine.lock_overhead(0.0, 0.0)
            return env.now

        process = env.process(requester(env))
        assert env.run(until=process) == 0.0

    def test_single_processor_machine(self, env):
        machine = Machine(env, 1)

        def requester(env):
            yield machine.lock_overhead(1.0, 1.0)
            return env.now

        process = env.process(requester(env))
        assert env.run(until=process) == 1.0

    def test_busy_snapshot_totals(self, env):
        machine = Machine(env, 2)
        machine[0].io(3.0)
        machine[1].io(5.0)
        machine[0].compute(1.0)
        env.run()
        snapshot = machine.busy_snapshot()
        assert snapshot.totios == pytest.approx(8.0)
        assert snapshot.totcpus == pytest.approx(1.0)
        assert snapshot.lockios == 0.0
        assert snapshot.lockcpus == 0.0

    def test_txn_busy_totals(self, env):
        machine = Machine(env, 2)
        machine[0].io(3.0)
        machine[1].compute(2.0)
        env.run()
        cpu, io = machine.txn_busy_totals()
        assert cpu == pytest.approx(2.0)
        assert io == pytest.approx(3.0)


def _drive(machine, split):
    """A fixed mix of transaction and lock work on a 3-node machine."""
    env = machine.env
    if split:
        machine.split_lock_work()
    machine[0].io(0.7)
    machine[1].compute(0.3)
    machine[2].io(0.25)

    def requester(delay, cpu, io):
        yield env.timeout(delay)
        yield machine.lock_overhead(cpu, io)

    for delay, cpu, io in ((0.1, 0.3, 0.6), (0.2, 0.03, 0.9), (0.5, 0.0, 0.3)):
        env.process(requester(delay, cpu, io))


class TestLockLanes:
    def test_mid_service_snapshot_matches_the_per_node_path(self):
        machines = [Machine(Environment(), 3, "sjf") for _ in range(2)]
        for machine, split in zip(machines, (False, True)):
            _drive(machine, split)
        for until in (0.15, 0.45, 0.61, 1.0, 3.0):
            snapshots = []
            for machine in machines:
                machine.env.run(until=until)
                snapshots.append(machine.busy_snapshot())
            lanes, nodes = snapshots
            for field in ("totcpus", "totios", "lockcpus", "lockios"):
                assert getattr(lanes, field) == getattr(nodes, field), (until, field)
            for a, b in zip(*(m.processors for m in machines)):
                assert a.cpu.busy_time("txn") == b.cpu.busy_time("txn")
                assert a.disk.busy_time("txn") == b.disk.busy_time("txn")
                assert a.disk.queue_length == b.disk.queue_length
        assert machines[0].lock_lanes and not machines[1].lock_lanes

    def test_queue_length_counts_queued_lane_jobs(self, env):
        machine = Machine(env, 3)
        machine[0].io(5.0)
        machine.lock_overhead(3.0, 3.0)
        machine.lock_overhead(3.0, 3.0)
        # Node 0's disk: its preempted transaction plus the second
        # request's share; the first share is in service.
        assert machine[0].disk.queue_length == 2
        assert machine[1].disk.queue_length == 1
        assert machine[2].cpu.queue_length == 1
        assert machine[1].disk.busy

    def test_lane_counts_as_each_nodes_lock_work(self, env):
        machine = Machine(env, 2)
        machine.lock_overhead(2.0, 4.0)
        env.run()
        for node in machine.processors:
            assert node.disk.jobs_served("lock") == 1
            assert node.disk.demand_submitted("lock") == 2.0
            assert node.cpu.busy_time() == 1.0
            assert not node.cpu.busy

    def test_split_on_a_busy_lane_raises(self, env):
        machine = Machine(env, 2)
        machine.lock_overhead(1.0, 0.0)
        with pytest.raises(SimulationError):
            machine.split_lock_work()
        with pytest.raises(SimulationError):
            machine.crash(0)
        with pytest.raises(SimulationError):
            machine.set_disk_scale(0, 2.0)
        assert machine.lock_lanes

    def test_split_when_idle_keeps_accounting_going(self, env):
        machine = Machine(env, 2)
        machine.lock_overhead(0.2, 0.6)
        env.run()
        machine.split_lock_work()
        machine.split_lock_work()  # idempotent
        assert not machine.lock_lanes
        machine.lock_overhead(0.2, 0.6)
        env.run()
        twin = Machine(Environment(), 2)
        twin.split_lock_work()
        for _ in range(2):
            twin.lock_overhead(0.2, 0.6)
            twin.env.run()
        for a, b in zip(machine.processors, twin.processors):
            assert a.cpu.busy_time("lock") == b.cpu.busy_time("lock")
            assert a.disk.busy_time("lock") == b.disk.busy_time("lock")
            assert a.disk.jobs_served("lock") == b.disk.jobs_served("lock") == 2

    def test_scaling_a_lane_server_raises(self, env):
        machine = Machine(env, 2)
        with pytest.raises(SimulationError):
            machine[0].disk.set_scale(2.0)
        with pytest.raises(SimulationError):
            machine[0].crash()

    def test_set_disk_scale_splits_first(self, env):
        machine = Machine(env, 2)
        machine.set_disk_scale(1, 2.0)
        assert not machine.lock_lanes
        assert machine[1].disk.scale == 2.0

        def requester(env):
            yield machine.lock_overhead(0.0, 2.0)
            return env.now

        process = env.process(requester(env))
        # Node 1's 1.0 share takes 2.0 on the slow disk.
        assert env.run(until=process) == 2.0
        assert machine[0].disk.busy_time("lock") == 1.0
        assert machine[1].disk.busy_time("lock") == 2.0


class TestBusySnapshot:
    def test_minus(self):
        after = BusySnapshot(10.0, 20.0, 2.0, 4.0)
        before = BusySnapshot(4.0, 8.0, 1.0, 2.0)
        window = after.minus(before)
        assert window.totcpus == 6.0
        assert window.totios == 12.0
        assert window.lockcpus == 1.0
        assert window.lockios == 2.0
