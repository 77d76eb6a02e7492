"""Forked sub-transactions as completion targets.

Each sub of a granted transaction submits its disk job as it is
forked, submits its CPU job when the disk reports, and reports to the
fork's countdown :class:`~repro.des.events.Join` when the CPU does.
No stage is a kernel event or a process of its own, so the dispatch
counts pinned here hold only the servers' segment completions and the
join's one event per fork.
"""

from collections import Counter

import pytest

import repro.core.model as model_module
from repro import LockingGranularityModel, SimulationParameters
from repro.des import Environment, Join
from repro.des.trace import Trace
from repro.engine.processor import TXN_TAG
from repro.faults import CrashSpec, FaultPlan

#: One point of the Fig. 2 curve.
FIG2 = SimulationParameters(npros=10, ltot=100, tmax=500.0, seed=1)

#: Crashes on every node of a small cell: subs die in flight.
CRASHY = SimulationParameters(
    dbsize=500, ntrans=10, maxtransize=40, npros=4, ltot=20, tmax=300.0, seed=1
)
CRASHES = FaultPlan(crashes=(CrashSpec(mttf=20.0, mttr=3.0),))

#: (cell, plan, events dispatched).
PINS = {
    "fig2": (FIG2, None, 3709),
    "crashes": (CRASHY, CRASHES, 6850),
}


def _run_counting_spawns(params, plan, monkeypatch, trace=None):
    """Run one cell; returns the model and the spawned generators' names."""
    spawned = []
    spawn = Environment.process

    def counting(env, generator):
        spawned.append(generator.__name__)
        return spawn(env, generator)

    monkeypatch.setattr(Environment, "process", counting)
    model = LockingGranularityModel(params, trace=trace, fault_plan=plan)
    model.run()
    return model, Counter(spawned)


@pytest.mark.parametrize("case", sorted(PINS))
def test_dispatch_count_matches_one_process_per_sub(case, monkeypatch):
    params, plan, dispatched = PINS[case]
    model, _ = _run_counting_spawns(params, plan, monkeypatch)
    assert model.env.events_dispatched == dispatched


@pytest.mark.parametrize("case", sorted(PINS))
def test_only_lifecycles_and_fault_loops_spawn_processes(case, monkeypatch):
    params, plan, _ = PINS[case]
    trace = Trace()
    model, spawned = _run_counting_spawns(params, plan, monkeypatch, trace)
    kinds = Counter(record.kind for record in trace)
    # A closed system starts ntrans staggered lifecycles and replaces
    # each commit with a fresh one.
    lifecycles = params.ntrans + kinds["commit"]
    assert spawned["_staggered"] + spawned["lifecycle"] == lifecycles
    assert kinds["arrive"] == lifecycles
    crash_loops = params.npros if plan is not None else 0
    assert spawned["_crash_loop"] == crash_loops
    assert sum(spawned.values()) == lifecycles + crash_loops
    # The subs themselves did run (and, under crashes, some failed).
    assert kinds["fork"] == kinds["io_start"] > sum(spawned.values())
    assert kinds["join"] > 0
    assert model.env.live_process_count <= lifecycles + crash_loops
    if plan is not None:
        assert kinds["sub_fail"] > 0


class _Boom(Exception):
    """An error that is not a crash."""


def test_an_error_other_than_a_crash_propagates():
    # Free lock work, so every disk job is a sub's I/O.
    params = FIG2.replace(lcputime=0.0, liotime=0.0, tmax=200.0)
    trace = Trace()
    model = LockingGranularityModel(params, trace=trace)
    model.machine.split_lock_work()
    disk = model.machine[0].disk
    env = model.env

    def poke():
        if disk.busy:
            disk.fail_all(_Boom("disk fault"))
        else:
            env.schedule_callback(poke, 1.0)

    env.schedule_callback(poke, 1.0)
    with pytest.raises(_Boom):
        model.run()
    kinds = {record.kind for record in trace}
    assert "io_start" in kinds
    assert "sub_fail" not in kinds


def test_fork_onto_a_down_node_waits_for_the_up_nodes_sub(monkeypatch):
    """Node 0 is down when the fork starts and fails its sub at once;
    the parent resumes, with ``False``, only when node 1's sub is done."""
    joins = []

    def recording(*args):
        join = Join(*args)
        joins.append(join)
        return join

    monkeypatch.setattr(model_module, "Join", recording)
    params = SimulationParameters(npros=2, ntrans=1, maxtransize=10, seed=1)
    model = LockingGranularityModel(params)
    model.machine.crash(0)
    txn = model.new_transaction()
    outcome = []

    def parent():
        ok = yield from model._execute(txn)
        outcome.append((model.env.now, ok))

    model.env.process(parent())
    model.env.run()
    node = model.machine[1]
    up_share = node.disk.busy_time(TXN_TAG) + node.cpu.busy_time(TXN_TAG)
    assert up_share > 0
    assert node.cpu.jobs_served(TXN_TAG) == 1
    assert outcome == [(pytest.approx(up_share), False)]
    # A report after the join has fired is ignored, not raised.
    [join] = joins
    join.succeed()
    join.fail(RuntimeError("late"))
    model.env.run()
