"""Pluggable policy layers behind one string-keyed registry.

The transaction model is a thin orchestrator over eight policy
layers, each resolved by name through :data:`registry`:

========== =============================== ==========================
layer      selects                         ``SimulationParameters``
========== =============================== ==========================
cc         concurrency-control protocol    ``protocol``
admission  transaction-level scheduling    ``txn_policy``
workload   transaction-size distribution   ``workload``
arrival    arrival process / population    ``arrival_process``
placement  granule placement strategy      ``placement``
partitioning data partitioning method      ``partitioning``
conflict   conflict-decision engine        ``conflict_engine``
commit     distributed commit/replication  ``commit_protocol``
========== =============================== ==========================

Built-ins register lazily (as ``"module:attr"`` references) so that
importing :mod:`repro.policies` stays cheap and cycle-free; the
implementing module loads the first time its policy is resolved.
Third parties extend any layer via ``registry.register(...)`` or a
``repro.policies`` entry point (see :mod:`repro.policies.registry`).

:func:`active_policies` names the policies a parameter set selects —
surfaced in provenance manifests and the ``repro-locking policies``
CLI verb.  :func:`policy_versions` feeds the result cache: a policy
whose ``version`` attribute moved past 1 forks the cache address of
runs using it, without touching any other policy's entries (default
policies are all version 1, keeping historical digests bit-stable).
"""

from repro.policies.registry import PolicyRegistry, UnknownPolicyError

#: The process-wide registry every layer resolves through.
registry = PolicyRegistry()

#: Built-in policies, registered lazily: (layer, name, target, doc).
_BUILTINS = (
    ("cc", "preclaim", "repro.policies.cc:PreclaimCC",
     "the paper's conservative all-at-once scheme; blocks on the blocker"),
    ("cc", "incremental", "repro.policies.cc:IncrementalCC",
     "claim-as-needed 2PL; deadlock cycles abort the youngest waiter"),
    ("cc", "no-waiting", "repro.policies.cc:NoWaitingCC",
     "immediate restart: a denied request aborts, backs off and retries"),
    ("cc", "wound-wait", "repro.policies.cc:WoundWaitCC",
     "older requesters wound younger holders; younger requesters wait"),
    ("admission", "fcfs", "repro.policies.admission:_fcfs",
     "first-come-first-served, optional fixed multiprogramming limit"),
    ("admission", "smallest", "repro.policies.admission:_smallest",
     "admit the smallest pending transaction first"),
    ("admission", "adaptive", "repro.policies.admission:_adaptive",
     "multiprogramming limit adapted from the lock denial rate"),
    ("admission", "priority", "repro.policies.admission:_priority",
     "highest txn-class priority first (FCFS within a priority)"),
    ("workload", "uniform", "repro.policies.workload:uniform",
     "NU ~ U{1..maxtransize} (the paper's Table 1 workload)"),
    ("workload", "mixed", "repro.policies.workload:mixed",
     "the §3.6 small/large transaction mix"),
    ("workload", "fixed", "repro.policies.workload:fixed",
     "every transaction exactly maxtransize entities"),
    ("workload", "classes", "repro.policies.workload:classes",
     "multi-class mix from txn_classes (per-class sizes/priorities)"),
    ("arrival", "closed", "repro.policies.arrival:ClosedArrivals",
     "fixed population of ntrans; completions replaced immediately"),
    ("arrival", "open", "repro.policies.arrival:OpenArrivals",
     "Poisson arrivals at arrival_rate; no replacement"),
    ("arrival", "bursty", "repro.policies.arrival:BurstyArrivals",
     "Markov-modulated Poisson: quiet phases alternating with bursts"),
    ("placement", "best", "repro.policies.placement:best",
     "sequential access; locks proportional to the fraction touched"),
    ("placement", "worst", "repro.policies.placement:worst",
     "fully scattered access; every entity in a different granule"),
    ("placement", "random", "repro.policies.placement:random_placement",
     "uniform random access (Yao's mean-value formula)"),
    ("placement", "skewed", "repro.policies.placement:skewed",
     "hot-spot access: Zipf(access_skew) over granules"),
    ("partitioning", "horizontal", "repro.policies.placement:horizontal",
     "round-robin over all disks; every transaction uses all nodes"),
    ("partitioning", "random", "repro.policies.placement:random_partitioning",
     "relations on a random subset of disks; PU ~ U{1..npros}"),
    ("conflict", "probabilistic", "repro.policies.conflict:probabilistic",
     "the paper's Ries-Stonebraker interval conflict model"),
    ("conflict", "explicit", "repro.policies.conflict:explicit",
     "a real flat lock table over materialised granule sets"),
    ("conflict", "hierarchical", "repro.policies.conflict:hierarchical",
     "file/granule multi-granularity locking with optional escalation"),
    ("commit", "local", "repro.policies.commit:LocalCommit",
     "single-site commit: free, instantaneous, no messages (the paper)"),
    ("commit", "2pc", "repro.policies.commit:TwoPhaseCommit",
     "presumed-abort two-phase commit with coordinator timeouts"),
    ("commit", "primary-copy", "repro.policies.commit:PrimaryCopyCommit",
     "primary-copy replication with majority failover election"),
)

for _layer, _name, _target, _doc in _BUILTINS:
    registry.register(_layer, _name, _target, doc=_doc)
del _layer, _name, _target, _doc

#: Which parameter field selects each layer's policy.
PARAM_FIELDS = {
    "cc": "protocol",
    "admission": "txn_policy",
    "workload": "workload",
    "arrival": "arrival_process",
    "placement": "placement",
    "partitioning": "partitioning",
    "conflict": "conflict_engine",
    "commit": "commit_protocol",
}


def resolve(layer, name):
    """Shorthand for ``registry.resolve(layer, name)``."""
    return registry.resolve(layer, name)


def policy_names(layer):
    """Shorthand for ``registry.names(layer)``."""
    return registry.names(layer)


def active_policies(params):
    """Mapping ``layer -> policy name`` selected by *params*."""
    return {
        layer: getattr(params, field)
        for layer, field in sorted(PARAM_FIELDS.items())
    }


def policy_versions(params):
    """Non-default policy versions selected by *params*, or ``None``.

    Returns ``{layer: {"name": ..., "version": ...}}`` for every
    active policy whose ``version`` attribute exists and is not 1 —
    the token :func:`repro.experiments.cache.cache_key` folds into the
    content address.  ``None`` (the common case: every built-in is
    version 1) keeps the address byte-identical to the pre-registry
    format, so historical cache entries and golden digests survive.
    """
    versions = {}
    for layer, name in active_policies(params).items():
        try:
            target = registry.resolve(layer, name)
        except UnknownPolicyError:
            continue  # validation reports unknown names, not the cache
        version = getattr(target, "version", 1)
        if version != 1:
            versions[layer] = {"name": name, "version": version}
    return versions or None


__all__ = [
    "PARAM_FIELDS",
    "PolicyRegistry",
    "UnknownPolicyError",
    "active_policies",
    "policy_names",
    "policy_versions",
    "registry",
    "resolve",
]
