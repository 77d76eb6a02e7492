"""Committed cache-address goldens.

The content address of a run is part of the repo's public contract:
sweep caches, journals and manifests all key off it.  These digests
were computed before the policy refactor and must never drift while
every active policy is at version 1 — the registry, the
``policy_versions`` cache token and any amount of policy registration
must leave default addresses byte-identical.  ``MODEL_VERSION`` is part
of every address, so a deliberate bump re-pins them (last at 3).
"""

from repro.core import SimulationParameters
from repro.experiments.cache import cache_key

#: SHA-256 address of the all-defaults configuration, pinned from the
#: pre-refactor implementation.
DEFAULTS_DIGEST = (
    "72375d7991186c9d81cb2f48c4445f99224afb85299c0811364eb15b93fb9fa6"
)

#: Address of the golden-regression configuration
#: (tests/test_regression_golden.py), pinned the same way.
GOLDEN_DIGEST = (
    "26440634f6a840f6287638ced0a7edb19a37d2c43457978673469ba680d577e8"
)


def test_default_params_digest_is_stable():
    assert cache_key(SimulationParameters()) == DEFAULTS_DIGEST


def test_golden_params_digest_is_stable():
    params = SimulationParameters(
        dbsize=500,
        ltot=20,
        ntrans=5,
        maxtransize=50,
        npros=4,
        tmax=200.0,
        seed=7,
    )
    assert cache_key(params) == GOLDEN_DIGEST


def test_registering_a_policy_does_not_move_addresses():
    from repro.policies import registry

    registry.register("cc", "digest-test-dummy", object)
    try:
        assert cache_key(SimulationParameters()) == DEFAULTS_DIGEST
    finally:
        registry._layers["cc"].pop("digest-test-dummy")


def test_empty_txn_classes_do_not_move_addresses():
    # The txn_classes field (PR 10) is omitted from the canonical
    # params document when empty — every historical address, including
    # the two pinned above, must survive the field's existence.
    assert "txn_classes" not in SimulationParameters().as_dict()
    assert cache_key(SimulationParameters()) == DEFAULTS_DIGEST


def test_multi_class_configurations_fork_addresses():
    base = SimulationParameters(
        dbsize=500, ltot=20, ntrans=5, maxtransize=50, npros=4,
        tmax=200.0, seed=7,
    )
    multi = base.replace(
        workload="classes", txn_classes="oltp:0.8:20,batch:0.2:200"
    )
    assert cache_key(multi) != GOLDEN_DIGEST
    # The spec string is canonical, so equivalent spellings of the
    # same mix share one address.
    respelled = base.replace(
        workload="classes",
        txn_classes=(
            "oltp:0.8:20",
            "batch:0.2:200",
        ),
    )
    assert cache_key(respelled) == cache_key(multi)
