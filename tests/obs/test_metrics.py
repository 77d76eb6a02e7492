"""The live metrics registry: semantics, overhead posture, neutrality.

Three contracts matter more than any individual counter:

* registry semantics — counters only go up, histograms bucket on the
  committed edges, label cardinality is capped;
* no subscriber, no instrument — a model built without a registry
  hands its probe no instruments, so every ``is not None`` guard skips;
* eid-stream neutrality — attaching a registry to a model changes
  *nothing* about the simulation: results are field-for-field
  identical and the content address (cache digest) does not move.
"""

import pytest

from repro.core import SimulationParameters
from repro.core.model import LockingGranularityModel
from repro.experiments.cache import cache_key
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    OVERFLOW_LABEL,
    MetricsRegistry,
    RunInstruments,
    log_buckets,
    summarize_snapshot,
)
from tests.policies.test_cache_digests import GOLDEN_DIGEST

GOLDEN_PARAMS = dict(
    dbsize=500, ltot=20, ntrans=5, maxtransize=50, npros=4,
    tmax=200.0, seed=7,
)


# -- bucket layout -------------------------------------------------------


def test_log_buckets_double_from_start():
    assert log_buckets(start=0.01, factor=2.0, count=4) == (
        0.01, 0.02, 0.04, 0.08,
    )


def test_log_buckets_reject_degenerate_layouts():
    with pytest.raises(ValueError):
        log_buckets(start=0.0)
    with pytest.raises(ValueError):
        log_buckets(factor=1.0)


def test_default_time_buckets_cover_simulation_scales():
    assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(0.01)
    assert len(DEFAULT_TIME_BUCKETS) == 16
    # Strictly increasing — required for bisect-based observation.
    assert all(
        a < b for a, b in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
    )


def test_histogram_observations_land_in_the_right_buckets():
    registry = MetricsRegistry()
    series = registry.histogram("h", "help", buckets=(1.0, 2.0, 4.0)).labels()
    for value in (0.5, 1.0, 1.5, 3.0, 100.0):
        series.observe(value)
    # le=1 takes 0.5 and the boundary value 1.0; le=2 takes 1.5;
    # le=4 takes 3.0; 100 lands in the implicit +Inf slot.
    assert list(series.counts) == [2, 1, 1, 1]
    assert series.count == 5
    assert series.sum == pytest.approx(106.0)


def test_histogram_quantile_returns_bucket_upper_edges():
    registry = MetricsRegistry()
    series = registry.histogram("h", "help", buckets=(1.0, 2.0, 4.0)).labels()
    for value in (0.5, 0.6, 0.7, 3.0):
        series.observe(value)
    assert series.quantile(0.5) == 1.0
    assert series.quantile(0.99) == 4.0


# -- counter / gauge semantics -------------------------------------------


def test_counter_inc_and_monotonic_set():
    series = MetricsRegistry().counter("c", "help").labels()
    series.inc()
    series.inc(4)
    assert series.value == 5
    # set() syncs to an external monotonic count: it never goes back.
    series.set(100)
    series.set(40)
    assert series.value == 100


def test_gauge_moves_both_ways():
    series = MetricsRegistry().gauge("g", "help").labels()
    series.set(3.5)
    series.inc(-1.5)
    assert series.value == pytest.approx(2.0)


def test_labelled_series_are_distinct_and_sorted():
    family = MetricsRegistry().counter("c", "help", labels=("mode",))
    family.labels("X").inc(2)
    family.labels("S").inc(3)
    assert [
        (labels, series.value) for labels, series in family.items()
    ] == [(("S",), 3), (("X",), 2)]


def test_label_values_are_coerced_to_strings():
    family = MetricsRegistry().counter("c", "help", labels=("granule",))
    family.labels(7).inc()
    family.labels("7").inc()
    assert [labels for labels, _ in family.items()] == [("7",)]


def test_cardinality_guard_collapses_overflow_series():
    family = MetricsRegistry().counter(
        "c", "help", labels=("granule",), max_series=3
    )
    for granule in range(10):
        family.labels(granule).inc()
    labels = [key for key, _series in family.items()]
    assert (OVERFLOW_LABEL,) in labels
    assert len(labels) == 4  # 3 real series + the overflow bucket
    assert dict(family.items())[(OVERFLOW_LABEL,)].value == 7
    assert family.dropped == 7
    assert family.snapshot()["dropped"] == 7


def test_registering_same_name_with_different_kind_raises():
    registry = MetricsRegistry()
    registry.counter("c", "help")
    with pytest.raises(ValueError):
        registry.gauge("c", "help")


# -- merge + summary -----------------------------------------------------


def test_merge_snapshot_sums_counters_and_histograms():
    worker = MetricsRegistry()
    worker.counter("c", "help").labels().inc(3)
    worker.gauge("g", "help").labels().set(7.0)
    worker.histogram("h", "help", buckets=(1.0, 2.0)).labels().observe(1.5)

    parent = MetricsRegistry()
    parent.merge_snapshot(worker.snapshot())
    parent.merge_snapshot(worker.snapshot())
    snap = parent.snapshot()
    assert snap["c"]["series"][0]["value"] == 6
    assert snap["g"]["series"][0]["value"] == 7.0  # gauges: last wins
    assert snap["h"]["series"][0]["count"] == 2
    assert snap["h"]["series"][0]["counts"] == [0, 2, 0]


def test_summarize_snapshot_flattens_names_and_quantiles():
    registry = MetricsRegistry()
    registry.counter("c", "help", labels=("kind",)).labels("x").inc(2)
    series = registry.histogram("h", "help", buckets=(1.0, 2.0, 4.0)).labels()
    series.observe(0.5)
    series.observe(3.0)
    flat = summarize_snapshot(registry.snapshot())
    assert flat["counters"] == {"c{kind=x}": 2}
    assert flat["histograms"]["h"]["count"] == 2
    assert flat["histograms"]["h"]["p50"] == 1.0
    assert flat["histograms"]["h"]["mean"] == pytest.approx(1.75)


# -- neutrality: metrics never change the simulation ---------------------


def test_golden_run_is_bit_identical_with_metrics_attached():
    params = SimulationParameters(**GOLDEN_PARAMS)
    bare = LockingGranularityModel(params)
    # No subscriber: the probe holds no instruments, so every
    # ``is not None`` guard skips them.
    assert bare.metrics.instruments is None
    plain = bare.run()
    registry = MetricsRegistry()
    instrumented = LockingGranularityModel(
        params, metrics_registry=registry
    ).run()
    assert plain.as_dict() == instrumented.as_dict()
    # The golden totals of tests/test_regression_golden.py, re-pinned
    # here so this test fails loudly on its own if the physics move.
    assert instrumented.totcom == 129
    # And the instrumentation agrees with the result it watched.
    flat = summarize_snapshot(registry.snapshot())
    assert flat["counters"]["repro_txn_commits_total"] == 129
    assert flat["counters"]["repro_lock_requests_total"] == (
        plain.lock_requests
    )
    assert flat["counters"]["repro_lock_denials_total"] == plain.lock_denials


def test_cache_digest_does_not_move_with_metrics_enabled():
    # Instrumentation is harness state, not physics: the content
    # address that cache, journal and manifests key off must not see
    # it.
    params = SimulationParameters(**GOLDEN_PARAMS)
    assert cache_key(params) == GOLDEN_DIGEST
    LockingGranularityModel(
        params, metrics_registry=MetricsRegistry()
    ).run()
    assert cache_key(params) == GOLDEN_DIGEST


def test_explicit_engine_populates_lockmgr_and_wait_series():
    params = SimulationParameters(
        **dict(GOLDEN_PARAMS, tmax=100.0)
    ).replace(protocol="incremental", conflict_engine="explicit")
    registry = MetricsRegistry()
    LockingGranularityModel(params, metrics_registry=registry).run()
    flat = summarize_snapshot(registry.snapshot())
    grants = [
        value for name, value in flat["counters"].items()
        if name.startswith("repro_lockmgr_events_total{event=grant")
    ]
    assert sum(grants) > 0
    waits = [
        entry for name, entry in flat["histograms"].items()
        if name.startswith("repro_lock_wait_time")
    ]
    assert waits and sum(entry["count"] for entry in waits) > 0
    # Explicit-engine waits carry granule identity.
    assert any(
        name.startswith("repro_granule_waits_total")
        for name in flat["counters"]
    )


def test_run_instruments_abort_causes_are_labelled():
    registry = MetricsRegistry()
    instruments = RunInstruments(registry)
    instruments.note_abort("deadlock")
    instruments.note_abort("deadlock")
    instruments.note_abort("wounded")
    flat = summarize_snapshot(registry.snapshot())
    assert flat["counters"]["repro_txn_aborts_total{cause=deadlock}"] == 2
    assert flat["counters"]["repro_txn_aborts_total{cause=wounded}"] == 1


def test_multi_class_runs_populate_class_families():
    params = SimulationParameters(**GOLDEN_PARAMS).replace(
        workload="classes",
        txn_classes="oltp:0.8:20,batch:0.2:200",
    )
    registry = MetricsRegistry()
    result = LockingGranularityModel(
        params, metrics_registry=registry
    ).run()
    flat = summarize_snapshot(registry.snapshot())
    for name in result.value("totcom__oltp"), result.value("totcom__batch"):
        assert name > 0
    # Commit counters match the per-class result breakdown (the
    # instruments count every commit; the result only the measured
    # window, so the counters dominate).
    for entry in result.per_class:
        commits = flat["counters"][
            "repro_class_commits_total{{txn_class={}}}".format(
                entry["txn_class"]
            )
        ]
        assert commits >= entry["totcom"]
    # Response-time histograms exist per class.
    assert any(
        name.startswith("repro_class_response_time{txn_class=oltp}")
        for name in flat["histograms"]
    )


def test_single_class_runs_emit_no_class_series():
    registry = MetricsRegistry()
    LockingGranularityModel(
        SimulationParameters(**GOLDEN_PARAMS), metrics_registry=registry
    ).run()
    flat = summarize_snapshot(registry.snapshot())
    class_series = [
        name
        for group in ("counters", "histograms")
        for name in flat[group]
        if name.startswith("repro_class_")
    ]
    assert class_series == []
