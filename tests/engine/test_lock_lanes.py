"""Differential oracle: lock lanes against the node-by-node path.

With every node up and at nominal speed the machine simulates lock
work once per device type (its *lock lanes*).  The node-by-node path
it replaces is still there for faulted runs, reachable by calling
``machine.split_lock_work()`` before ``run()``.  Both must produce the
same run to the bit: the same result, the same trace record sequence
and the same sampled time series.
"""

import pytest

from repro import LockingGranularityModel, SimulationParameters
from repro.des.trace import Trace
from repro.faults import FaultPlan, StallSpec
from repro.obs.telemetry import Telemetry

BASE = dict(dbsize=500, ntrans=8, maxtransize=40, npros=8, ltot=20, tmax=100.0)

INTEGER_COSTS = dict(lcputime=1.0, liotime=1.0, cputime=1.0, iotime=1.0)

CASES = {
    "fcfs": {},
    "sjf": dict(discipline="sjf"),
    "single-node": dict(npros=1),
    "equal-lock-costs": dict(lcputime=0.2, liotime=0.2),
    "equal-lock-costs-sjf": dict(lcputime=0.2, liotime=0.2, discipline="sjf"),
    "integer-costs": INTEGER_COSTS,
    "integer-costs-sjf": dict(INTEGER_COSTS, discipline="sjf"),
    "unequal-costs": dict(lcputime=1.0, liotime=2.0, cputime=2.0, iotime=1.0),
    "no-lock-io": dict(liotime=0.0),
    # Free transaction I/O restarts at the instant a lane releases the
    # disks, next to the requester's wake-up.
    "free-txn-io": dict(iotime=0.0),
    "random-partitioning": dict(partitioning="random"),
    "no-waiting": dict(protocol="no-waiting"),
    "incremental": dict(protocol="incremental", conflict_engine="explicit"),
    "wound-wait": dict(protocol="wound-wait", conflict_engine="explicit"),
    "cluster-2pc": dict(nnodes=3, commit_protocol="2pc", net_latency=0.1),
    "class-mix": dict(
        workload="classes",
        txn_classes="oltp:0.8:20,batch:0.2:40:prio=1",
        txn_policy="priority",
    ),
    "hierarchical": dict(conflict_engine="hierarchical", escalation_threshold=5),
    "lock-stalls": dict(lcputime=0.2, liotime=0.2),
}

STALLS = FaultPlan(lock_stalls=(StallSpec(mtbf=20.0, duration=5.0, factor=3.0),))


def _run(params, split, fault_plan):
    trace = Trace()
    telemetry = Telemetry(sample_interval=7.0)
    model = LockingGranularityModel(
        params, trace=trace, telemetry=telemetry, fault_plan=fault_plan
    )
    if split:
        model.machine.split_lock_work()
    result = model.run()
    assert model.machine.lock_lanes is not split
    return result.as_dict(), list(trace), telemetry.timeseries.rows


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_lanes_match_the_per_node_path(case, seed):
    params = SimulationParameters(**dict(BASE, **CASES[case], seed=seed))
    plan = STALLS if case == "lock-stalls" else None
    lanes = _run(params, False, plan)
    nodes = _run(params, True, plan)
    assert lanes[0] == nodes[0]
    assert len(lanes[1]) == len(nodes[1])
    assert lanes[1] == nodes[1]
    assert lanes[2] == nodes[2]
