"""Pinned observer output: results, full traces and live metrics.

Every lifecycle site reports to the run"s probe, which updates the
results and feeds the trace and the live-metrics registry.  These pins
hold all three outputs to the bit across configurations that reach
every reporting site: the four concurrency-control protocols on their
conflict engines, the hierarchical engine, a priority class mix,
adaptive admission, two-phase and primary-copy commit on a three-node
cluster, and a fault plan with crashes, lock-manager stalls and
partitions.

Each case pins three sha256 digests (16-hex prefixes): the result"s
``as_dict()``, the full trace record list (time, kind, subject and
details in emission order) and the registry snapshot.  Run this module as a script to
print the digest table for the current code; only re-record it when a
change is meant to alter what the observers see.
"""

import hashlib
import json

import pytest

from repro import LockingGranularityModel, SimulationParameters
from repro.des.trace import Trace
from repro.faults import CrashSpec, FaultPlan, PartitionSpec, StallSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

BASE = dict(dbsize=500, ntrans=10, maxtransize=40, npros=4, ltot=20, tmax=150.0)

CLUSTER = dict(nnodes=3, net_latency=0.1, commit_timeout=1.0)

FAULTS = FaultPlan(
    crashes=(CrashSpec(mttf=40.0, mttr=5.0, processors=(1,)),),
    lock_stalls=(StallSpec(mtbf=30.0, duration=5.0, factor=3.0),),
    partitions=(PartitionSpec(mtbf=30.0, duration=10.0, groups=((0,), (1, 2))),),
)

#: Scattered writes on an explicit table: waits, promotions,
#: cancellations and deadlock or wound aborts all happen.
EXPLICIT = dict(conflict_engine="explicit", placement="worst", ltot=500)

CASES = {
    "preclaim-probabilistic": (dict(protocol="preclaim"), None),
    "no-waiting-probabilistic": (dict(protocol="no-waiting"), None),
    "incremental-explicit": (dict(EXPLICIT, protocol="incremental"), None),
    "wound-wait-explicit": (dict(EXPLICIT, protocol="wound-wait"), None),
    "preclaim-hierarchical": (
        dict(conflict_engine="hierarchical", escalation_threshold=5),
        None,
    ),
    "class-mix": (
        dict(
            dbsize=5000,
            npros=10,
            ltot=50,
            workload="classes",
            txn_classes="oltp:0.8:50,batch:0.2:1000:prio=1",
            txn_policy="priority",
        ),
        None,
    ),
    "adaptive-admission": (dict(txn_policy="adaptive", ntrans=20, ltot=5), None),
    "cluster-2pc": (dict(CLUSTER, commit_protocol="2pc"), None),
    "cluster-faults": (dict(CLUSTER, commit_protocol="2pc"), FAULTS),
    "primary-copy-faults": (dict(CLUSTER, commit_protocol="primary-copy"), FAULTS),
}


def _sha(document):
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()[:16]


def _records(trace):
    return [[r.time, r.kind, r.subject, list(r.details.items())] for r in trace]


def _observe(case, seed):
    """Run *case* at *seed* with every observer attached.

    Returns the parameters, fault plan, result and (result, trace,
    metrics) digests.  The trace document is the record list plus the
    sampled time series, which reads the populations the probe
    maintains.
    """
    overrides, plan = CASES[case]
    params = SimulationParameters(**dict(BASE, **overrides, seed=seed))
    trace = Trace()
    telemetry = Telemetry(sink=Trace(), sample_interval=10.0)
    registry = MetricsRegistry()
    model = LockingGranularityModel(
        params,
        trace=trace,
        telemetry=telemetry,
        fault_plan=plan,
        metrics_registry=registry,
    )
    result = model.run()
    assert _records(telemetry.sink) == _records(trace)
    document = [_records(trace), telemetry.timeseries.rows]
    digests = (
        _sha(result.as_dict()), _sha(document), _sha(registry.snapshot())
    )
    return params, plan, result, digests


#: (case, seed) -> (result, trace, metrics) digests.
PINS = {
    ("adaptive-admission", 1): ("70a50ba8aaf87978", "d8a1a5acaffdb34e", "f93b047fc602024d"),
    ("adaptive-admission", 2): ("8325a5a9bd6c01fc", "d342412a9d11d228", "facbae6470d5598a"),
    ("class-mix", 1): ("30795f5be015230e", "840f6616a5248266", "0ece64018e567f49"),
    ("class-mix", 2): ("a1b0184bda3dea5d", "63d7455d906f5a94", "595046d97f7c3a18"),
    ("cluster-2pc", 1): ("c107406a5bb41efe", "2c3f2ddaaf08753e", "067607cd944833aa"),
    ("cluster-2pc", 2): ("c0a690a2e97ec8fa", "3a63bdce4db50722", "452271320c72dafb"),
    ("cluster-faults", 1): ("c95a5d6b4d47d63b", "a49a369fa8fe9a0c", "c92e3eda75ef150f"),
    ("cluster-faults", 2): ("79de5affaf3fd632", "a22689d5ddb4942e", "dd23ed3b83906743"),
    ("incremental-explicit", 1): ("2104d4028b2aedc2", "149a0a92667fe6f5", "5ffa03dc78f5be51"),
    ("incremental-explicit", 2): ("8980b9fa943b8a46", "060e7fd82814cb27", "97c7f03208b692b9"),
    ("no-waiting-probabilistic", 1): ("f2fedf5960454664", "ee4f768149903ba8", "20b58aeb004887ec"),
    ("no-waiting-probabilistic", 2): ("9fccc2713b9b1a9b", "0155a38d0427d883", "bc1f58356c360367"),
    ("preclaim-hierarchical", 1): ("a769cb5fe6ee8472", "5736050c9d5a96b7", "cc05f4f0b861a72d"),
    ("preclaim-hierarchical", 2): ("40163fecc6c2df40", "007427cae97a44f8", "00f43e5ba382af7c"),
    ("preclaim-probabilistic", 1): ("2c6fe80571cd366c", "431ec6d11ea372cb", "e1f733bb597d284b"),
    ("preclaim-probabilistic", 2): ("01fda2f3313b46d0", "d2c0afc7ebccb955", "584c8c26f37a670f"),
    ("primary-copy-faults", 1): ("3a85ee408df04ee8", "8f0b7352fcd76288", "ea23d017ee056150"),
    ("primary-copy-faults", 2): ("c9e2e44e2b269e2e", "c455cebf147e4a04", "a2d30fd0439fa6d5"),
    ("wound-wait-explicit", 1): ("9b481c7a763e6ff0", "c09eebd989e3d8a6", "6e070a8c5a7483d8"),
    ("wound-wait-explicit", 2): ("4b7e31c079af2e02", "931353074e9c4fe9", "53f02249412a0b69"),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_observers_match_their_pins(case, seed):
    params, plan, result, digests = _observe(case, seed)
    assert digests == PINS[case, seed]
    # Observers never change what the run computes.
    bare = LockingGranularityModel(params, fault_plan=plan).run()
    assert bare.as_dict() == result.as_dict()


if __name__ == "__main__":
    for case in sorted(CASES):
        for seed in (1, 2):
            print('    ("{}", {}): ("{}", "{}", "{}"),'.format(
                case, seed, *_observe(case, seed)[3]
            ))
