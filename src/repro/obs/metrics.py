"""Low-overhead live metrics: registry, instruments, and layer wiring.

This is the always-on observability backend the offline trace/report
pipeline cannot provide: counters, gauges and fixed-bucket histograms
that a running sweep exports *while it runs* (Prometheus text or JSON
snapshots, see :mod:`repro.obs.exporters`) instead of after the fact.

Design rules, in priority order:

1. **Results are untouched.**  No instrument ever schedules an event,
   draws from a random stream or consumes a kernel event id, so runs
   are bit-identical with metrics on or off (pinned by
   ``tests/obs/test_metrics.py``).
2. **No subscriber means free.**  The model's one probe
   (:class:`repro.core.metrics.MetricsCollector`) holds its
   instruments only when a registry is attached, and every
   instrumentation site guards them with a single ``is not None``
   branch, so an uninstrumented run touches no instrument at all; the
   cost of a subscribed run is gated by
   ``benchmarks/metrics_overhead.py``.
3. **The kernel inner loop is never instrumented.**  Kernel quantities
   (events dispatched, heap depth) are *polled* by
   registered collectors at snapshot/scrape time, costing zero inside
   :meth:`repro.des.engine.Environment.run`.

Quick tour::

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cells = registry.counter("sweep_cells_total", "Cells done.",
                             labels=("source",))
    cells.labels("cache").inc()
    wait = registry.histogram("lock_wait_time", "Lock waits.")
    wait.labels().observe(0.7)
    snapshot = registry.snapshot()   # JSON-able, deterministic order

Snapshots from worker processes merge back into a parent registry with
:meth:`MetricsRegistry.merge_snapshot` — counters and histogram
buckets add, gauges take the latest value — which is how a sweep's
per-cell lock-wait histograms (labelled by granularity) aggregate
parent-side.
"""

import math
from bisect import bisect_left

#: Default cap on distinct label sets per metric family.  Beyond it,
#: new label sets collapse into one shared ``_other`` series and the
#: family counts the drop — an unbounded-cardinality workload (e.g.
#: per-granule counters with ``ltot=5000``) cannot exhaust memory.
DEFAULT_MAX_SERIES = 64

#: Label value used by the cardinality-overflow series.
OVERFLOW_LABEL = "_other"


def log_buckets(start=0.01, factor=2.0, count=16):
    """Fixed log-scaled histogram bucket edges.

    ``count`` finite edges at ``start * factor**i``; observations above
    the last edge land in the implicit ``+Inf`` bucket.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default edges for simulated-time quantities (lock waits, response
#: times): 0.01 .. ~327 time units, factor-2 log scale.
DEFAULT_TIME_BUCKETS = log_buckets(0.01, 2.0, 16)

#: Default edges for small counts (attempts, chain lengths).
DEFAULT_COUNT_BUCKETS = log_buckets(1.0, 2.0, 12)


class CounterSeries:
    """One monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        """Add *amount* (must not be negative for true counters)."""
        self.value += amount

    def set(self, value):
        """Sync to an externally tracked monotonic count (collectors)."""
        if value > self.value:
            self.value = value


class GaugeSeries:
    """One sample that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        """Replace the sample."""
        self.value = value

    def inc(self, amount=1):
        """Adjust the sample by ``amount`` (may be negative)."""
        self.value += amount


class HistogramSeries:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``counts`` has ``len(edges) + 1`` slots; the last is the implicit
    ``+Inf`` bucket.  Counts are stored per-bucket (not cumulative);
    the Prometheus exporter accumulates on the way out.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges):
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        """Record ``value`` in its bucket and the running sum/count."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, counts, total, count):
        """Fold another series' (counts, sum, count) into this one."""
        mine = self.counts
        for i, c in enumerate(counts[: len(mine)]):
            mine[i] += c
        self.sum += total
        self.count += count

    def quantile(self, q):
        """Approximate *q*-quantile from the bucket counts.

        Returns the upper edge of the bucket holding the ``q``-th
        observation (the last finite edge for the ``+Inf`` bucket),
        ``nan`` when empty — the same estimate a Prometheus
        ``histogram_quantile`` would bound.
        """
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i < len(self.edges):
                    return self.edges[i]
                return self.edges[-1] if self.edges else math.inf
        return self.edges[-1] if self.edges else math.inf


_SERIES_TYPES = {
    "counter": CounterSeries,
    "gauge": GaugeSeries,
    "histogram": HistogramSeries,
}


class MetricFamily:
    """All series of one named metric (a Prometheus metric family).

    Obtained from the registry factories; call :meth:`labels` with the
    family's label values (positionally or by name) to get the series
    to update.  An unlabelled family's single series is
    ``family.labels()``, which the registry hands out for hot sites to
    hold directly.
    """

    __slots__ = (
        "name", "help", "kind", "label_names", "buckets",
        "max_series", "dropped", "_series", "_overflow",
    )

    def __init__(self, name, help_text, kind, label_names=(),
                 buckets=None, max_series=DEFAULT_MAX_SERIES):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self.max_series = max_series
        self.dropped = 0
        self._series = {}
        self._overflow = None

    def _new_series(self):
        if self.kind == "histogram":
            return HistogramSeries(self.buckets)
        return _SERIES_TYPES[self.kind]()

    def labels(self, *values, **by_name):
        """The series for one label-value tuple (created on first use)."""
        if by_name:
            values = values + tuple(
                by_name[name] for name in self.label_names[len(values):]
            )
        if len(values) != len(self.label_names):
            raise ValueError(
                "{} expects labels {}, got {!r}".format(
                    self.name, self.label_names, values
                )
            )
        key = tuple(str(v) for v in values)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                # Cardinality guard: collapse into one shared series.
                self.dropped += 1
                if self._overflow is None:
                    self._overflow = self._new_series()
                    self._series[
                        (OVERFLOW_LABEL,) * len(self.label_names)
                    ] = self._overflow
                return self._overflow
            series = self._new_series()
            self._series[key] = series
        return series

    def items(self):
        """(label_values, series) pairs, sorted for stable export."""
        return sorted(self._series.items())

    def snapshot(self):
        """JSON-able dict of this family's state."""
        doc = {
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
        }
        if self.kind == "histogram":
            doc["buckets"] = list(self.buckets)
            doc["series"] = [
                {
                    "labels": list(key),
                    "counts": list(series.counts),
                    "sum": series.sum,
                    "count": series.count,
                }
                for key, series in self.items()
            ]
        else:
            doc["series"] = [
                {"labels": list(key), "value": series.value}
                for key, series in self.items()
            ]
        if self.dropped:
            doc["dropped"] = self.dropped
        return doc


class MetricsRegistry:
    """Holds metric families and the collectors that refresh them."""

    def __init__(self):
        self._families = {}
        self._collectors = []

    def __contains__(self, name):
        return name in self._families

    def family(self, name):
        """The registered :class:`MetricFamily`, or ``None``."""
        return self._families.get(name)

    def _register(self, name, help_text, kind, labels, buckets, max_series):
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    "metric {!r} already registered as {}".format(
                        name, family.kind
                    )
                )
            return family
        family = MetricFamily(
            name, help_text, kind, labels, buckets, max_series
        )
        self._families[name] = family
        return family

    def counter(self, name, help_text="", labels=(),
                max_series=DEFAULT_MAX_SERIES):
        """Register (or fetch) a counter family."""
        return self._register(name, help_text, "counter", labels, None,
                              max_series)

    def gauge(self, name, help_text="", labels=(),
              max_series=DEFAULT_MAX_SERIES):
        """Register (or fetch) a gauge family."""
        return self._register(name, help_text, "gauge", labels, None,
                              max_series)

    def histogram(self, name, help_text="", labels=(),
                  buckets=DEFAULT_TIME_BUCKETS,
                  max_series=DEFAULT_MAX_SERIES):
        """Register (or fetch) a histogram family with fixed buckets."""
        return self._register(name, help_text, "histogram", labels,
                              buckets, max_series)

    # -- collectors ------------------------------------------------------

    def add_collector(self, fn):
        """Register *fn* to be called before every snapshot/scrape.

        Collectors poll state that is too hot to instrument inline
        (the kernel loop, the lock table) and push it into gauges.
        """
        self._collectors.append(fn)

    def collect(self):
        """Run every collector; a failing collector never fails a scrape."""
        for fn in self._collectors:
            try:
                fn()
            except Exception:  # noqa: BLE001 - observability must not raise
                pass

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self):
        """Deterministic JSON-able dict: family name → family snapshot.

        Families appear in registration order (the order is part of
        the snapshot-stability contract tested in
        ``tests/obs/test_exporters.py``).
        """
        self.collect()
        return {
            name: family.snapshot()
            for name, family in self._families.items()
        }

    def merge_snapshot(self, metrics):
        """Fold a :meth:`snapshot` dict (e.g. from a worker) into this.

        Counters and histogram buckets add; gauges take the incoming
        value.  Unknown families are created with the snapshot's
        declared type, labels and buckets, so a parent registry can
        start empty.  Histogram series with mismatched bucket edges
        are skipped rather than corrupted.
        """
        if not metrics:
            return
        for name, doc in metrics.items():
            kind = doc.get("type")
            if kind not in _SERIES_TYPES:
                continue
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name,
                    doc.get("help", ""),
                    kind,
                    doc.get("label_names", ()),
                    doc.get("buckets"),
                )
                self._families[name] = family
            if family.kind != kind:
                continue
            for entry in doc.get("series", ()):
                series = family.labels(*entry.get("labels", ()))
                if kind == "histogram":
                    if tuple(doc.get("buckets", ())) != family.buckets:
                        continue
                    series.merge(
                        entry.get("counts", ()),
                        entry.get("sum", 0.0),
                        entry.get("count", 0),
                    )
                elif kind == "counter":
                    series.inc(entry.get("value", 0))
                else:
                    series.set(entry.get("value", 0))
            family.dropped += doc.get("dropped", 0)

    def summary(self):
        """Compact summary (see :func:`summarize_snapshot`)."""
        return summarize_snapshot(self.snapshot())


def _flatten_label(name, label_names, values):
    if not label_names:
        return name
    return "{}{{{}}}".format(
        name,
        ",".join(
            "{}={}".format(k, v) for k, v in zip(label_names, values)
        ),
    )


def summarize_snapshot(metrics):
    """Compact manifest-friendly summary of a snapshot dict.

    Counters and gauges flatten to ``name{label=value}`` → number;
    histograms to ``{count, sum, mean, p50, p95}``.  This is the
    ``metrics`` block recorded in run manifests
    (:func:`repro.obs.manifest.build_manifest`).
    """
    summary = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, doc in (metrics or {}).items():
        kind = doc.get("type")
        label_names = doc.get("label_names", ())
        for entry in doc.get("series", ()):
            key = _flatten_label(name, label_names, entry.get("labels", ()))
            if kind == "histogram":
                series = HistogramSeries(tuple(doc.get("buckets", ())))
                series.merge(
                    entry.get("counts", ()),
                    entry.get("sum", 0.0),
                    entry.get("count", 0),
                )
                count = series.count
                summary["histograms"][key] = {
                    "count": count,
                    "sum": round(series.sum, 6),
                    "mean": round(series.sum / count, 6) if count else None,
                    "p50": _finite(series.quantile(0.5)),
                    "p95": _finite(series.quantile(0.95)),
                }
            elif kind == "counter":
                summary["counters"][key] = entry.get("value", 0)
            else:
                summary["gauges"][key] = entry.get("value", 0)
    return summary


def _finite(value):
    if value is None or isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# -- model wiring --------------------------------------------------------


class RunInstruments:
    """The per-run instrument bundle the simulation layers update.

    One instance is built per :class:`LockingGranularityModel` run when
    a registry is supplied; every layer holds pre-resolved series so a
    hot site costs one ``None`` check plus one method call.  The
    lock-wait histogram is labelled with the run's granularity
    (``ltot``), which is what makes merged sweep snapshots comparable
    *per granularity*.
    """

    def __init__(self, registry, params=None):
        self.registry = registry
        ltot = "" if params is None else str(params.ltot)
        protocol = "" if params is None else str(params.protocol)
        counter = registry.counter
        gauge = registry.gauge
        self.commits = counter(
            "repro_txn_commits_total", "Committed transactions."
        ).labels()
        self.restarts = counter(
            "repro_txn_restarts_total",
            "Lock-phase attempts beyond each transaction's first.",
        ).labels()
        self._aborts = counter(
            "repro_txn_aborts_total",
            "Aborted transaction attempts by cause "
            "(conflict, deadlock, wounded, no-waiting, fault).",
            labels=("cause",),
        )
        self.lock_requests = counter(
            "repro_lock_requests_total", "Lock requests issued."
        ).labels()
        self.lock_denials = counter(
            "repro_lock_denials_total", "Lock requests denied."
        ).labels()
        self.response = registry.histogram(
            "repro_txn_response_time",
            "Transaction response time (simulated time units).",
            labels=("ltot",),
        ).labels(ltot)
        self._lock_wait = registry.histogram(
            "repro_lock_wait_time",
            "Time spent blocked waiting for a lock, per granularity "
            "(simulated time units).",
            labels=("ltot", "protocol"),
        ).labels(ltot, protocol)
        self._granule_waits = counter(
            "repro_granule_waits_total",
            "Lock waits per granule (explicit engines only).",
            labels=("granule",),
            max_series=128,
        )
        self._granule_wait_time = counter(
            "repro_granule_wait_time_total",
            "Summed lock-wait time per granule (simulated time units).",
            labels=("granule",),
            max_series=128,
        )
        self._lock_events = counter(
            "repro_lockmgr_events_total",
            "Lock-manager transitions by event (grant, queue, promote, "
            "cancel, deny) and mode.",
            labels=("event", "mode"),
        )
        self.lock_holders = gauge(
            "repro_lock_holders", "Granted (owner, granule) pairs."
        ).labels()
        self.lock_waiters = gauge(
            "repro_lock_waiters", "Requests queued in the lock table."
        ).labels()
        self._faults = counter(
            "repro_fault_events_total",
            "Injected fault transitions by kind.",
            labels=("kind",),
        )
        self._messages = counter(
            "repro_net_messages_total",
            "Cluster messages sent, by message kind.",
            labels=("kind",),
        )
        self._messages_dropped = counter(
            "repro_net_messages_dropped_total",
            "Cluster messages dropped at a partition boundary, by kind.",
            labels=("kind",),
        )
        self._commit_events = counter(
            "repro_commit_events_total",
            "Distributed-commit outcomes by event "
            "(commit, abort, degraded, election).",
            labels=("event",),
        )
        self._commit_latency = registry.histogram(
            "repro_commit_latency",
            "Distributed commit decision latency, per protocol "
            "(simulated time units).",
            labels=("protocol",),
        ).labels("" if params is None else str(params.commit_protocol))
        # Per-transaction-class instruments (multi-class runs).  These
        # are *new* families labelled with txn_class — the pinned
        # single-class families above keep their names and labels, so
        # existing dashboards and tests are untouched; the class
        # families simply stay empty in single-class runs.
        self._class_commits = counter(
            "repro_class_commits_total",
            "Committed transactions by transaction class.",
            labels=("txn_class",),
        )
        self._class_restarts = counter(
            "repro_class_restarts_total",
            "Lock-phase attempts beyond the first, by transaction class.",
            labels=("txn_class",),
        )
        self._class_aborts = counter(
            "repro_class_aborts_total",
            "Aborted transaction attempts by transaction class and cause.",
            labels=("txn_class", "cause"),
        )
        self._class_response = registry.histogram(
            "repro_class_response_time",
            "Transaction response time by transaction class "
            "(simulated time units).",
            labels=("txn_class",),
        )
        self._class_lock_wait = registry.histogram(
            "repro_class_lock_wait_time",
            "Time spent blocked waiting for a lock, by transaction "
            "class (simulated time units).",
            labels=("txn_class",),
        )
        self._kernel_events = counter(
            "repro_kernel_events_total", "DES kernel events dispatched."
        ).labels()
        self.kernel_heap = gauge(
            "repro_kernel_heap_depth", "Scheduled events on the kernel heap."
        ).labels()

    # -- hooks called by the layers (single-branch guarded call sites) --

    def note_abort(self, cause):
        """One aborted attempt, by cause string."""
        self._aborts.labels(cause).inc()

    def note_class_abort(self, txn_class, cause):
        """One aborted attempt of a classed transaction."""
        self._class_aborts.labels(txn_class, cause).inc()

    def note_class_completion(self, txn_class, restarts, response):
        """A classed transaction committed (with its restart count)."""
        self._class_commits.labels(txn_class).inc()
        if restarts > 0:
            self._class_restarts.labels(txn_class).inc(restarts)
        self._class_response.labels(txn_class).observe(response)

    def observe_lock_wait(self, wait, granule=None, txn_class=None):
        """One completed lock wait of *wait* simulated time units."""
        self._lock_wait.observe(wait)
        if granule is not None:
            key = str(granule)
            self._granule_waits.labels(key).inc()
            self._granule_wait_time.labels(key).inc(wait)
        if txn_class is not None:
            self._class_lock_wait.labels(txn_class).observe(wait)

    def note_lock_event(self, event, mode):
        """A lock-manager transition (called by :class:`LockManager`)."""
        self._lock_events.labels(event, mode).inc()

    def note_fault(self, kind):
        """An injected fault transition (called by the injector)."""
        self._faults.labels(kind).inc()

    def note_message(self, kind):
        """One cluster message sent (called by :class:`Network`)."""
        self._messages.labels(kind).inc()

    def note_message_dropped(self, kind):
        """One message dropped at a partition boundary."""
        self._messages_dropped.labels(kind).inc()

    def note_commit_event(self, event):
        """A distributed-commit outcome (commit, abort, degraded, ...)."""
        self._commit_events.labels(event).inc()

    def observe_commit_latency(self, latency):
        """One distributed commit decided after *latency* time units."""
        self._commit_latency.observe(latency)

    # -- collectors (polled at snapshot time; never in the hot loop) ----

    def attach_kernel(self, env):
        """Poll kernel counters (dispatch count, heap depth) on scrape."""

        def collect():
            self._kernel_events.set(env.events_dispatched)
            self.kernel_heap.set(env.heap_depth)

        self.registry.add_collector(collect)

    def attach_lock_table(self, manager):
        """Poll holder/waiter populations from the lock manager on scrape."""

        def collect():
            holders, waiters = manager.population()
            self.lock_holders.set(holders)
            self.lock_waiters.set(waiters)

        self.registry.add_collector(collect)


class SweepInstruments:
    """Harness-side instruments for one ``run_experiments`` call.

    Updated from the sweep driver (parent process): queue state, cell
    completions by source, cache traffic, worker heartbeat and journal
    lag.  Per-cell simulation metrics merge in separately via
    :meth:`MetricsRegistry.merge_snapshot`.
    """

    def __init__(self, registry):
        counter = registry.counter
        gauge = registry.gauge
        self._cells = counter(
            "repro_sweep_cells_total",
            "Sweep cells resolved, by source "
            "(run, shared, cache, analytic).",
            labels=("source",),
        )
        self.cells_done = gauge(
            "repro_sweep_cells_done", "Sweep cells resolved so far."
        ).labels()
        self.cells_pending = gauge(
            "repro_sweep_cells_pending", "Sweep cells not yet resolved."
        ).labels()
        self.cells_total = gauge(
            "repro_sweep_cells", "Total cells in the sweep."
        ).labels()
        self.queue_depth = gauge(
            "repro_sweep_queue_depth",
            "Unique jobs still owed to the global work queue.",
        ).labels()
        self.workers = gauge(
            "repro_sweep_workers", "Worker processes executing the queue."
        ).labels()
        self.occupancy = gauge(
            "repro_sweep_occupancy",
            "Fraction of worker capacity kept busy so far.",
        ).labels()
        self.heartbeat = gauge(
            "repro_sweep_last_cell_unixtime",
            "Wall-clock time the latest cell resolved (worker heartbeat).",
        ).labels()
        self.journal_lag = gauge(
            "repro_sweep_journal_lag_cells",
            "Cells resolved but not yet journalled (0 when in sync).",
        ).labels()
        self.cache_hits = counter(
            "repro_sweep_cache_hits_total", "Cells answered from the cache."
        ).labels()
        self.cache_misses = counter(
            "repro_sweep_cache_misses_total",
            "Cells that had to be simulated.",
        ).labels()

    def note_cell(self, source, done, pending, heartbeat):
        """One cell resolved from *source*; refresh progress gauges."""
        self._cells.labels(source).inc()
        self.cells_done.set(done)
        self.cells_pending.set(pending)
        self.heartbeat.set(heartbeat)
