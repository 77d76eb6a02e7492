"""The sub-transaction relay: forked subs as kernel callbacks.

Each sub of a granted transaction runs start, disk, CPU and report as
bare kernel callbacks and reports to a countdown join, instead of
running as a generator process joined by ``env.all_of``.  Every stage
takes the heap slot its process event took, so the dispatch counts
pinned here are the ones the process-per-sub model produced.
"""

from collections import Counter

import pytest

from repro import LockingGranularityModel, SimulationParameters
from repro.des import Environment
from repro.des.trace import Trace
from repro.faults import CrashSpec, FaultPlan

#: One point of the Fig. 2 curve.
FIG2 = SimulationParameters(npros=10, ltot=100, tmax=500.0, seed=1)

#: Crashes on every node of a small cell: subs die in flight.
CRASHY = SimulationParameters(
    dbsize=500, ntrans=10, maxtransize=40, npros=4, ltot=20, tmax=300.0, seed=1
)
CRASHES = FaultPlan(crashes=(CrashSpec(mttf=20.0, mttr=3.0),))

#: (cell, plan, events dispatched); counts recorded with one generator
#: process per sub and an ``all_of`` join.
PINS = {
    "fig2": (FIG2, None, 7624),
    "crashes": (CRASHY, CRASHES, 15326),
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
