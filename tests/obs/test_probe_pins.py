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
    ("adaptive-admission", 1): ("70a50ba8aaf87978", "05371563be104cab", "db34e2ca67adda82"),
    ("adaptive-admission", 2): ("8325a5a9bd6c01fc", "5b7b121afcd6189e", "7de928840a20bc6a"),
    ("class-mix", 1): ("30795f5be015230e", "a6158b52ba4401cd", "aa9c4aab7dd46888"),
    ("class-mix", 2): ("a1b0184bda3dea5d", "550d1863065c1be8", "1e27ee8269e100dd"),
    ("cluster-2pc", 1): ("c107406a5bb41efe", "28b1fa86666058f7", "9916c8fd19977dc9"),
    ("cluster-2pc", 2): ("e17f4006e05893c9", "2d8a117852a328f7", "aa11ac9f198f9e17"),
    ("cluster-faults", 1): ("a2714f7bb9bb3d82", "b0528e3c41266029", "d8331be0b49d746a"),
    ("cluster-faults", 2): ("79de5affaf3fd632", "2a42571959423a02", "13b0f61d17344fdc"),
    ("incremental-explicit", 1): ("2104d4028b2aedc2", "149a0a92667fe6f5", "9b4908ceda29c399"),
    ("incremental-explicit", 2): ("8980b9fa943b8a46", "6f6f5a00e6a09e4f", "4a87b14b6e460ba6"),
    ("no-waiting-probabilistic", 1): ("f2fedf5960454664", "005adf2104e41d85", "83498bdaf61ebbb7"),
    ("no-waiting-probabilistic", 2): ("9fccc2713b9b1a9b", "84c0f18a18bab5ec", "977ef87b675324fc"),
    ("preclaim-hierarchical", 1): ("a769cb5fe6ee8472", "3a07ec34fea2deb8", "b10a58539c1b8a6d"),
    ("preclaim-hierarchical", 2): ("40163fecc6c2df40", "9333eb5d64312ab2", "a8edda0da95cb455"),
    ("preclaim-probabilistic", 1): ("2c6fe80571cd366c", "be65c13f1b913b73", "3ee6df8e628c2766"),
    ("preclaim-probabilistic", 2): ("01fda2f3313b46d0", "61b02fd19771337c", "22fad3e512d03561"),
    ("primary-copy-faults", 1): ("b94b4785df0ac30e", "033d270b7ff73f0c", "f5bb015af8f271ef"),
    ("primary-copy-faults", 2): ("c9e2e44e2b269e2e", "38a13755b5a84d6a", "00fb60a152301e0b"),
    ("wound-wait-explicit", 1): ("9b481c7a763e6ff0", "c09eebd989e3d8a6", "c071433b3997efae"),
    ("wound-wait-explicit", 2): ("4b7e31c079af2e02", "08f67672fda53dd4", "63deaab3b54ddc03"),
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
