"""Experiment execution: replications, parallelism, caching, stats.

A sweep is a grid of ``(configuration, replication)`` cells; each cell
is one independent simulation run.  :func:`run_experiment` resolves as
many cells as it can from the content-addressed result cache
(:mod:`repro.experiments.cache`), fans the remaining cells out over a
process pool at *replication* granularity (not just configuration
granularity, so a single expensive configuration still parallelises),
and aggregates each configuration's replications in seed order —
which makes ``jobs=N`` bit-identical to an inline run.

:func:`run_experiments` generalises this to a *batch* of specs sharing
ONE global work queue: every (cell, replication) job of every spec is
collected up front, deduplicated by content address (figure specs that
share a parameter grid request the same cells — each unique cell is
simulated exactly once and delivered to all requesters), ordered
longest-expected-cell-first so the big cells start while small ones
backfill the stragglers, and executed on a single pool.  Journal
identity and cache keys are exactly those of the equivalent
per-spec :func:`run_experiment` calls, so resume and caching are
unaffected by batching.  :func:`run_experiment` is the one-spec
special case.

Crash-safety (all opt-in, see :func:`run_experiment`):

* a :class:`~repro.experiments.journal.SweepJournal` records every
  completed cell as it lands, so an interrupted sweep can be resumed
  (``resume=True``) and will re-read finished cells from the cache;
* a per-replication wall-clock *watchdog* raises
  :class:`~repro.des.errors.SimulationStalled` inside the worker, and
  a harness-level guard terminates pool workers that are too wedged
  even for that; stalled cells run again in the next retry round
  (inline, or on a fresh pool) after a capped exponential backoff,
  bounded by ``watchdog_retries``;
* ``drain_signals=True`` converts SIGINT/SIGTERM into a graceful
  drain: in-flight cells finish (bounded), the journal is flushed,
  and ``KeyboardInterrupt`` is raised.

Execution accounting (per-configuration wall time, cache hit/miss
counts, resumed cells, watchdog restarts, total elapsed) is reported
through :class:`SweepStats`, available as ``result.stats`` on the
returned :class:`ExperimentResult`.
"""

import concurrent.futures
import os
import signal
from dataclasses import dataclass, field
from time import perf_counter, sleep
from time import time as wall_time

from repro.core.model import LockingGranularityModel
from repro.core.results import RESULT_FIELDS, aggregate
from repro.des.errors import SimulationStalled
from repro.experiments.cache import (
    ResultCache,
    cache_enabled,
    cache_key,
    result_from_document,
)
from repro.experiments.journal import SweepJournal, sweep_id
from repro.obs.manifest import build_manifest
from repro.obs.metrics import summarize_snapshot

#: Seconds a graceful drain waits for in-flight cells before the pool
#: is terminated anyway (the journal is flushed either way).
DRAIN_GRACE_SECONDS = 10.0

#: Backoff before retrying cells whose workers were killed: doubles per
#: retry round, capped here.
_RETRY_BACKOFF_BASE = 0.5
_RETRY_BACKOFF_CAP = 5.0


class SweepStalled(RuntimeError):
    """A sweep cell kept exceeding its watchdog after every retry."""


def _run_single_timed(
    params, timeout=None, collect=False, fault_plan=None, backoff=None
):
    """Module-level worker (process pools pickle it) returning
    ``(result, compute_seconds, metrics_snapshot)``.

    *timeout* is the per-replication wall-clock watchdog, enforced
    inside the simulation kernel (see
    :meth:`repro.des.engine.Environment.run`).

    With ``collect=True`` (a metrics-enabled sweep) the cell runs
    against a fresh in-worker
    :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot the
    parent merges into its live registry; otherwise the snapshot is
    ``None``.  *fault_plan* / *backoff* (picklable) ride along to the
    model for faulted or backoff-ablation sweeps.
    """
    started = perf_counter()
    registry = None
    if collect:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    result = LockingGranularityModel(
        params,
        metrics_registry=registry,
        fault_plan=fault_plan,
        backoff=backoff,
    ).run(timeout=timeout)
    snapshot = registry.snapshot() if registry is not None else None
    return result, perf_counter() - started, snapshot


def _retry_backoff(round_index):
    """Capped exponential backoff before retry round *round_index*."""
    return min(_RETRY_BACKOFF_BASE * (2.0 ** (round_index - 1)), _RETRY_BACKOFF_CAP)


class _SignalDrain:
    """Flag-setting SIGINT/SIGTERM handler for graceful sweep draining.

    Installing it outside the main thread is a silent no-op
    (``tripped`` then simply never trips), so pooled sweeps stay
    usable from worker threads.
    """

    def __init__(self):
        self.tripped = False
        self._previous = {}

    def install(self):
        """Swap in the flag-setting handler; returns self."""
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._previous[signum] = signal.signal(signum, self._handle)
        except ValueError:
            self._previous = {}
        return self

    def restore(self):
        """Put the previous handlers back."""
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):
                pass
        self._previous = {}

    def _handle(self, signum, frame):
        self.tripped = True


def _terminate_pool(pool):
    """Hard-kill a process pool's workers (they are wedged)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class ConfigStats:
    """Execution accounting for one configuration of a sweep."""

    index: int
    label: str
    runs: int = 0
    cache_hits: int = 0
    seconds: float = 0.0


@dataclass
class SweepStats:
    """Execution accounting for one :func:`run_experiment` call.

    Attributes
    ----------
    configs / replications:
        Shape of the sweep: ``configs * replications`` total cells.
    runs:
        Cells actually simulated (= cache misses that completed).
    cache_hits / cache_misses:
        Cache lookup outcomes; the two always partition the cells
        (with caching disabled every cell counts as a miss), and
        ``cache_misses == runs`` after a successful sweep.
    elapsed_seconds:
        Wall time of the whole call, queueing and aggregation
        included.
    per_config:
        One :class:`ConfigStats` per configuration, in sweep order;
        ``seconds`` there is summed simulation compute time (across
        workers), not wall time.
    """

    configs: int = 0
    replications: int = 1
    runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    per_config: list = field(default_factory=list)
    #: Cache hits that a resumed journal had already recorded as done
    #: — the share of this sweep completed by the interrupted run.
    resumed: int = 0
    #: Cells whose worker was killed (or stalled) and re-queued.
    watchdog_restarts: int = 0
    #: Summed seconds this sweep's simulated cells spent between being
    #: submitted to the global work queue and starting to compute
    #: (includes pool hand-off overhead; 0.0 for inline runs).
    queue_wait_seconds: float = 0.0
    #: Fraction of worker capacity kept busy while the queue drained:
    #: summed compute seconds / (workers x execution wall time).
    #: Shared by every spec of a batched :func:`run_experiments` call.
    occupancy: float = 0.0
    #: Worker processes the queue ran on (1 = inline execution,
    #: 0 = every cell answered from the cache).
    workers: int = 0
    #: Cells filled from the analytic model instead of simulation
    #: (``accelerator="analytic"``); they are journalled with
    #: provenance ``"analytic"`` and never written to the cache, and
    #: count toward neither ``cache_hits`` nor ``cache_misses``.
    analytic_cells: int = 0
    #: The accelerator mode used (``None`` for a plain sweep).
    accelerator: str = None

    @property
    def cells(self):
        """Total (configuration, replication) cells in the sweep."""
        return self.configs * self.replications

    @property
    def hit_rate(self):
        """Fraction of cells answered from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def pruned_fraction(self):
        """Fraction of cells the accelerator filled analytically."""
        return self.analytic_cells / self.cells if self.cells else 0.0

    def summary(self):
        """One-line human summary for CLI/script output."""
        line = (
            "{} configs x {} replications: {} simulated, "
            "{} cache hits ({:.0%} hit rate) in {:.2f}s".format(
                self.configs,
                self.replications,
                self.runs,
                self.cache_hits,
                self.hit_rate,
                self.elapsed_seconds,
            )
        )
        if self.analytic_cells:
            line += ", {} analytic ({:.0%} pruned)".format(
                self.analytic_cells, self.pruned_fraction
            )
        return line


class ExperimentResult:
    """All rows of one executed spec.

    Attributes
    ----------
    spec:
        The :class:`~repro.experiments.config.ExperimentSpec` run.
    outcomes:
        One :class:`~repro.core.results.ReplicatedResult` per
        configuration, in sweep order.
    stats:
        The :class:`SweepStats` of the run that produced the outcomes
        (``None`` for results assembled by hand).
    """

    def __init__(self, spec, outcomes, stats=None):
        self.spec = spec
        self.outcomes = list(outcomes)
        self.stats = stats
        self._rows = None

    @classmethod
    def from_rows(cls, spec, rows):
        """A result rebuilt from persisted :meth:`rows` (no outcomes)."""
        result = cls(spec, [])
        result._rows = list(rows)
        return result

    def __len__(self):
        return len(self.outcomes)

    def rows(self):
        """Flat dicts (parameters + mean outputs) for persistence."""
        if self._rows is None:
            self._rows = [outcome.as_dict() for outcome in self.outcomes]
        return list(self._rows)

    def series(self, y_field=None):
        """Curves: mapping series label → list of (x, y) sorted by x.

        *y_field* defaults to the spec's first y field.
        """
        y_field = y_field or self.spec.y_fields[0]
        curves = {}
        for row in self.rows():
            label = self.spec.series_label(row)
            curves.setdefault(label, []).append((row[self.spec.x_field], row[y_field]))
        for points in curves.values():
            points.sort()
        return curves

    def optimum(self, series_label=None, y_field=None, maximize=True):
        """(x, y) at the best y for one curve (or the first curve)."""
        curves = self.series(y_field)
        if series_label is None:
            series_label = next(iter(curves))
        points = curves[series_label]
        chooser = max if maximize else min
        return chooser(points, key=lambda point: point[1])


def _resolve_cache(cache):
    """Normalise the *cache* argument of :func:`run_experiment`."""
    if cache is None:
        return ResultCache() if cache_enabled() else None
    if cache is False:
        return None
    return cache


def _config_label(spec, params):
    """Short human label of one configuration for stats output."""
    parts = ["{}={}".format(spec.x_field, getattr(params, spec.x_field))]
    series = spec.series_label(params)
    if series != "all":
        parts.append(series)
    return ", ".join(parts)


def _job_cost(params):
    """Expected relative cost of one cell, for queue ordering.

    Simulated horizon x terminals x transaction-size cap tracks the
    event count well enough for longest-first scheduling; it only has
    to rank cells, not predict seconds.
    """
    return params.tmax * params.npros * params.ntrans


class _Job:
    """One unique pending cell of the global work queue.

    ``requesters`` lists every ``(context, config, replication)`` that
    asked for this cell's content address; the first one is *primary*
    and owns the compute-time accounting and the cache write.
    """

    __slots__ = ("seq", "run_params", "key", "cost", "requesters")

    def __init__(self, seq, run_params, key):
        self.seq = seq
        self.run_params = run_params
        self.key = key
        self.cost = _job_cost(run_params)
        self.requesters = []


class _SweepContext:
    """Mutable per-spec state while a batch of sweeps executes."""

    __slots__ = (
        "spec",
        "index",
        "configs",
        "stats",
        "outcomes",
        "grid",
        "remaining",
        "cells",
        "journal",
        "journaled",
        "analytic",
    )

    def __init__(self, spec, replications, index):
        self.spec = spec
        self.index = index
        self.configs = spec.configurations()
        self.stats = SweepStats(
            configs=len(self.configs), replications=replications
        )
        self.outcomes = [None] * len(self.configs)
        self.grid = [[None] * replications for _ in self.configs]
        self.remaining = [replications] * len(self.configs)
        self.journal = None
        self.journaled = set()
        #: config index -> AnalyticPrediction for pruned configurations
        #: (populated only under ``accelerator="analytic"``).
        self.analytic = {}
        # Materialise every cell (with its content address) up front:
        # the ordered addresses identify this sweep for the journal.
        self.cells = []  # (config_index, replication_index, params, key)
        for i, params in enumerate(self.configs):
            self.stats.per_config.append(
                ConfigStats(index=i, label=_config_label(spec, params))
            )
            for r in range(replications):
                run_params = params.replace(seed=params.seed + r)
                self.cells.append((i, r, run_params, cache_key(run_params)))


def run_experiment(spec, journal=None, **options):
    """Execute every configuration of *spec*.

    The one-spec form of :func:`run_experiments`, which takes every
    other keyword (documented here) unchanged.

    Parameters
    ----------
    spec:
        The experiment definition.
    replications:
        Independent replications per configuration (seeds increment).
    jobs:
        Worker processes; ``None``/0/1 runs inline, otherwise a
        process pool fans individual replication runs out.  Results
        are aggregated in seed order either way, so ``jobs=N`` is
        bit-identical to an inline run.
    cache:
        ``None`` uses the default on-disk cache (``results/.cache``;
        honour ``REPRO_CACHE_DIR``, disable globally with
        ``REPRO_CACHE=0``); ``False`` bypasses caching entirely; a
        :class:`~repro.experiments.cache.ResultCache` instance is used
        as given.
    refresh:
        Ignore existing cache entries, re-simulate everything and
        overwrite them (the ``--refresh`` escape hatch).
    cell_progress:
        Optional callable ``cell_progress(done, total, info)`` invoked
        once per (configuration, replication) cell as it resolves —
        cache hits during the initial scan, simulated runs as they
        complete (in completion order under a pool).  *info* is a dict
        with ``config`` (index), ``replication``, ``label``,
        ``source`` (``"cache"`` or ``"run"``) and ``seconds``
        (compute time; ``None`` for hits).  This is the live-progress
        hook: a long sweep reports every finished replication instead
        of going dark until a whole configuration completes.
    manifests:
        When caching is active, write a provenance manifest (params
        hash, seed, git SHA, model version, wall time — see
        :mod:`repro.obs.manifest`) next to every newly stored result.
    journal:
        Optional :class:`~repro.experiments.journal.SweepJournal` (or
        a path string) recording every completed cell as it lands —
        the crash-safety log that makes *resume* possible.
    resume:
        Reuse a journal left by an interrupted run of the *same*
        sweep: previously journalled cells resolve from the cache and
        are counted in ``stats.resumed``.  A journal belonging to a
        different sweep is discarded automatically.
    watchdog:
        Per-replication wall-clock budget in seconds.  Enforced
        inside each worker via the kernel's run-loop timeout, plus a
        harness-level guard that terminates a pool making no progress
        for well past that budget; killed cells are retried on a
        fresh pool with capped backoff.
    watchdog_retries:
        Times one cell may be retried after stalling before the sweep
        fails with :class:`SweepStalled`.
    drain_signals:
        Convert SIGINT/SIGTERM into a graceful drain: stop submitting
        work, let in-flight cells finish (bounded by
        :data:`DRAIN_GRACE_SECONDS`), flush the journal, then raise
        ``KeyboardInterrupt``.
    accelerator:
        ``"analytic"`` prunes the sweep with the mean-value model
        (:mod:`repro.analytic.mva`): only the cells the
        :mod:`~repro.experiments.accelerator` plan marks — curve
        endpoints, the predicted optimum and its neighbours,
        high-uncertainty and high-curvature cells — are simulated;
        the rest are filled from predictions, counted in
        ``stats.analytic_cells``, journalled with provenance
        ``"analytic"``, and **never** written to the result cache (so
        default-sweep cache contents stay byte-identical whether or
        not the accelerator was ever used).  ``None`` (default)
        simulates every cell.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: the
        sweep harness updates live progress gauges/counters on it
        (cells by source, queue depth, occupancy, worker heartbeat,
        cache traffic, journal lag), every simulated cell runs
        instrumented in its worker, and the per-cell snapshots merge
        back in — giving live lock-wait histograms per granularity.
        Instrumentation never perturbs results (pinned by test).
    metrics_snapshot:
        Optional path for periodic JSON snapshot files of *metrics*
        (atomic replace, rate-limited; see
        :class:`repro.obs.exporters.SnapshotWriter`) — what
        ``repro-locking top`` tails next to the journal.  Ignored
        without *metrics*.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to
        every cell (chaos sweeps).  A faulted run is no longer the
        pure function of its parameters the result cache addresses,
        so an enabled plan forces ``cache = None`` — faulted sweeps
        never read from nor write to the cache.  Instead, each cell's
        full output record is journalled inline (when a journal is
        given) and resume reconstructs results from the journal;
        the JSON float round-trip is exact, so a resumed faulted
        sweep is bit-identical to an uninterrupted one.  The plan's
        :meth:`~repro.faults.plan.FaultPlan.digest` is folded into
        the sweep identity, so journals from different plans never
        cross-resume.
    backoff:
        Optional :class:`~repro.faults.backoff.BackoffPolicy`
        overriding the model's default restart backoff (ablations).
        Like *fault_plan*, a non-default policy disables the cache
        for the whole call.

    Raises
    ------
    Exception
        The first worker exception is re-raised in the caller after
        outstanding pool work is cancelled; ``outcomes`` are never
        returned with ``None`` holes.
    SweepStalled
        A cell exceeded *watchdog* on its initial run and on every
        retry.
    KeyboardInterrupt
        With *drain_signals*, after a signal-triggered drain has
        flushed the journal.
    """
    return run_experiments([spec], journals=[journal], **options)[0]


def run_experiments(
    specs,
    replications=1,
    jobs=None,
    cache=None,
    refresh=False,
    cell_progress=None,
    manifests=True,
    journals=None,
    resume=False,
    watchdog=None,
    watchdog_retries=2,
    drain_signals=False,
    accelerator=None,
    metrics=None,
    metrics_snapshot=None,
    fault_plan=None,
    backoff=None,
):
    """Execute a batch of specs over ONE global work queue.

    Every parameter keeps its :func:`run_experiment` meaning; the
    differences of the batched form are:

    * *journals* is a list aligned with *specs* (``None`` entries for
      specs that should not be journalled); each spec keeps its own
      journal identity, exactly as if it had been run alone.
    * cells shared between specs (same content address — e.g. figure
      grids that overlap) are simulated once and delivered to every
      requesting spec.  The first requester is reported with source
      ``"run"`` and owns the cache write; the others see source
      ``"shared"``.  Both count toward ``stats.runs`` so
      ``cache_misses == runs`` holds per spec.
    * pending cells are ordered longest-expected-cell-first
      (``tmax * npros * ntrans``), so expensive cells start early and
      cheap ones backfill idle workers near the end of the queue.
    * ``cell_progress(done, total, info)`` counts globally across the
      batch, and *info* gains a ``"spec"`` key with the requesting
      spec's key.

    Returns a list of :class:`ExperimentResult`, aligned with *specs*.
    """
    if replications < 1:
        raise ValueError(
            "replications must be >= 1, got {}".format(replications)
        )
    specs = list(specs)
    if journals is None:
        journals = [None] * len(specs)
    if len(journals) != len(specs):
        raise ValueError(
            "journals must align with specs ({} != {})".format(
                len(journals), len(specs)
            )
        )
    if accelerator not in (None, "analytic"):
        raise ValueError(
            "unknown accelerator {!r}; supported: 'analytic'".format(
                accelerator
            )
        )
    started = perf_counter()
    if fault_plan is not None and not fault_plan.enabled():
        fault_plan = None  # an empty plan is the unfaulted path
    faulted = fault_plan is not None
    if faulted and accelerator is not None:
        raise ValueError(
            "the analytic accelerator models the unfaulted system and "
            "cannot prune a faulted sweep"
        )
    # Faulted / backoff-ablation results are not the pure function of
    # the parameters the cache addresses: never read from nor write to
    # it.  Faulted cells journal their outputs inline instead (see
    # SweepJournal), which is what resume reads back.
    cache = None if faulted or backoff is not None else _resolve_cache(cache)
    journal_payload = _inline_record if faulted else _no_record
    contexts = [
        _SweepContext(spec, replications, index)
        for index, spec in enumerate(specs)
    ]
    if accelerator == "analytic":
        from repro.analytic.mva import predict_grid
        from repro.experiments.accelerator import plan_sweep

        for ctx in contexts:
            predictions = predict_grid(ctx.configs)
            plan = plan_sweep(ctx.spec, ctx.configs, predictions)
            ctx.analytic = {
                index: plan.prediction_for(index) for index in plan.pruned
            }
            ctx.stats.accelerator = accelerator
    total_cells = sum(len(ctx.cells) for ctx in contexts)
    done_cells = 0
    sweep_inst = None
    snapshot_writer = None
    if metrics is not None:
        from repro.obs.exporters import SnapshotWriter
        from repro.obs.metrics import SweepInstruments

        sweep_inst = SweepInstruments(metrics)
        sweep_inst.cells_total.set(total_cells)
        sweep_inst.cells_pending.set(total_cells)
        if metrics_snapshot is not None:
            snapshot_writer = SnapshotWriter(metrics_snapshot, metrics)
    #: Cells of journalled specs resolved / accounted for on disk —
    #: their difference is the live journal-lag gauge (0 = in sync).
    journal_done = 0
    journalled = 0

    def log(ctx, key, already=False, **entry):
        """Journal one resolved cell, unless the journal already has it."""
        nonlocal journalled
        if ctx.journal is not None:
            if not already:
                ctx.journal.record(key, **entry)
            journalled += 1

    def settle(ctx, i, r, value, source, seconds=None):
        """File one resolved cell, report it, and close its config."""
        nonlocal done_cells, journal_done
        ctx.grid[i][r] = value
        done_cells += 1
        if ctx.journal is not None:
            journal_done += 1
        if sweep_inst is not None:
            sweep_inst.note_cell(
                source, done_cells, total_cells - done_cells, wall_time()
            )
            if source == "cache":
                sweep_inst.cache_hits.inc()
            elif source == "run":
                sweep_inst.cache_misses.inc()
            sweep_inst.journal_lag.set(max(0, journal_done - journalled))
            if snapshot_writer is not None:
                snapshot_writer.maybe_write()
        if cell_progress is not None:
            cell_progress(
                done_cells,
                total_cells,
                {
                    "spec": getattr(ctx.spec, "key", ctx.index),
                    "config": i,
                    "replication": r,
                    "label": ctx.stats.per_config[i].label,
                    "source": source,
                    "seconds": seconds,
                },
            )
        ctx.remaining[i] -= 1
        if ctx.remaining[i]:
            return
        prediction = ctx.analytic.get(i)
        # A pruned configuration's outcome IS its prediction (it
        # mimics the ReplicatedResult read surface); everything else
        # aggregates its simulated/cached replications as usual.
        ctx.outcomes[i] = (
            prediction if prediction is not None else aggregate(ctx.grid[i])
        )

    resumed_results = {}
    for ctx, journal in zip(contexts, journals):
        if isinstance(journal, (str, os.PathLike)):
            journal = SweepJournal(journal)
        ctx.journal = journal
        if journal is not None:
            # A faulted sweep's identity includes its fault plan, so a
            # journal written under one plan can never resume another.
            sid = sweep_id(
                [key for _, _, _, key in ctx.cells]
                + ([fault_plan.digest()] if faulted else [])
            )
            if resume:
                ctx.journaled = journal.load(sid)
                if faulted:
                    resumed_results.update(journal.load_results(sid))
            journal.begin(
                sid,
                len(ctx.cells),
                label=getattr(ctx.spec, "key", None),
                keep=resume,
            )

    # Cache scan, then the global queue: cells no spec could answer
    # without simulating become unique jobs, deduplicated by content
    # address across the whole batch.
    lookup = _cell_lookup(cache, resumed_results, refresh)
    jobs_by_key = {}
    for ctx in contexts:
        for i, r, run_params, key in ctx.cells:
            prediction = ctx.analytic.get(i)
            if prediction is not None:
                # Pruned by the accelerator: fill from the analytic
                # model.  No cache read, no cache write — predictions
                # must never masquerade as simulation results.
                ctx.stats.analytic_cells += 1
                log(ctx, key, key in ctx.journaled, provenance="analytic")
                settle(ctx, i, r, prediction, "analytic")
                continue
            hit = lookup(run_params, key)
            if hit is None:
                ctx.stats.cache_misses += 1
                job = jobs_by_key.get(key)
                if job is None:
                    job = jobs_by_key[key] = _Job(len(jobs_by_key), run_params, key)
                job.requesters.append((ctx, i, r))
                continue
            ctx.stats.per_config[i].cache_hits += 1
            ctx.stats.cache_hits += 1
            resumed = key in ctx.journaled
            ctx.stats.resumed += resumed
            log(ctx, key, resumed)
            settle(ctx, i, r, hit, "cache")

    # Longest-expected-first (stable, so ties keep enqueue order):
    # start the big cells immediately and let the cheap ones backfill
    # workers that free up while the stragglers finish.
    queue = sorted(jobs_by_key.values(), key=lambda job: -job.cost)
    jobs_remaining = len(queue)
    workers = 0
    if queue:
        workers = 1 if (jobs or 0) <= 1 else min(jobs, os.cpu_count() or 1, len(queue))
    busy_seconds = 0.0
    exec_started = perf_counter()

    def deliver(job, result, seconds, queue_wait, snapshot):
        nonlocal busy_seconds, jobs_remaining
        busy_seconds += seconds
        jobs_remaining -= 1
        if metrics is not None:
            metrics.merge_snapshot(snapshot)
        if sweep_inst is not None:
            sweep_inst.queue_depth.set(jobs_remaining)
            window = perf_counter() - exec_started
            if window > 0.0:
                sweep_inst.occupancy.set(busy_seconds / (workers * window))
        first, first_config, _ = job.requesters[0]
        first.stats.queue_wait_seconds += queue_wait
        first.stats.per_config[first_config].seconds += seconds
        if cache is not None:
            cache.put(job.run_params, result)
            if manifests:
                cache.put_manifest(
                    job.run_params,
                    build_manifest(
                        job.run_params,
                        cache_hit=False,
                        wall_seconds=seconds,
                        model_version=cache.model_version,
                        metrics=(
                            summarize_snapshot(snapshot)
                            if snapshot is not None
                            else None
                        ),
                    ),
                )
        record = journal_payload(result)
        for rank, (ctx, i, r) in enumerate(job.requesters):
            ctx.stats.per_config[i].runs += 1
            ctx.stats.runs += 1
            log(ctx, job.key, result=record)
            if rank:
                settle(ctx, i, r, result, "shared")
            else:
                settle(ctx, i, r, result, "run", seconds)

    if sweep_inst is not None:
        sweep_inst.queue_depth.set(jobs_remaining)
        if workers:
            sweep_inst.workers.set(workers)
    drain = _SignalDrain().install() if drain_signals else None
    try:
        _Rounds(
            workers, watchdog, watchdog_retries, deliver, drain,
            (watchdog, metrics is not None, fault_plan, backoff),
        ).run(queue)
        for ctx in contexts:
            if ctx.journal is not None:
                ctx.journal.finish()
    finally:
        if drain is not None:
            drain.restore()
        for ctx in contexts:
            if ctx.journal is not None:
                ctx.journal.close()
        if snapshot_writer is not None:
            # Final state on disk even when the sweep died mid-run.
            snapshot_writer.maybe_write(force=True)
    exec_elapsed = perf_counter() - exec_started
    occupancy = 0.0
    if workers and exec_elapsed > 0.0:
        occupancy = busy_seconds / (workers * exec_elapsed)
    elapsed = perf_counter() - started
    if sweep_inst is not None:
        sweep_inst.occupancy.set(occupancy)
        if snapshot_writer is not None:
            snapshot_writer.maybe_write(force=True)
    for ctx in contexts:
        ctx.stats.workers = workers
        ctx.stats.occupancy = occupancy
        ctx.stats.elapsed_seconds = elapsed
    return [
        ExperimentResult(ctx.spec, ctx.outcomes, stats=ctx.stats)
        for ctx in contexts
    ]


def _cell_lookup(cache, resumed_results, refresh):
    """``lookup(run_params, key)``: a cell's result without simulating.

    Chosen once per sweep: the result cache answers by parameters; a
    faulted resume (which never touches the cache) rebuilds results
    from the journal's inline output records, keyed by cell address.
    """
    if refresh:
        return lambda run_params, key: None
    if cache is not None:
        return lambda run_params, key: cache.get(run_params)

    def from_journal(run_params, key):
        document = resumed_results.get(key)
        if document is None:
            return None
        try:
            return result_from_document(run_params, document)
        except KeyError:
            return None  # written before a field existed

    return from_journal


def _no_record(result):
    """Journal payload of a cell whose result lives in the cache: none."""
    return None


def _inline_record(result):
    """Journal payload of a faulted cell: its full output record.

    Faulted sweeps have no cache to resume from; the JSON float
    round-trip is exact, so a resumed faulted sweep is bit-identical
    to an uninterrupted one.
    """
    record = {name: getattr(result, name) for name in RESULT_FIELDS}
    if result.per_class:
        record["per_class"] = [dict(entry) for entry in result.per_class]
    return record


def _stalled_error(job, watchdog, attempts):
    """Uniform :class:`SweepStalled` for a job that kept timing out."""
    _, i, r = job.requesters[0]
    return SweepStalled(
        "cell (config={}, replication={}) exceeded the {}s watchdog "
        "after {} attempts".format(i, r, watchdog, attempts)
    )


class _Rounds:
    """Runs the global job queue to completion in retry rounds.

    A round runs every outstanding job, in this process when there is
    one worker or on a fresh process pool otherwise, and returns the
    jobs that stalled (the in-worker watchdog, or the pool's hard-limit
    guard).  They run again in the next round after a capped
    exponential backoff — up to *retries* times per job, then
    :class:`SweepStalled`.

    *worker_args* are bound once and passed positionally to the
    module-level :func:`_run_single_timed`, which is looked up at call
    time (so it can be swapped for a spy or a picklable replacement).
    """

    def __init__(self, workers, watchdog, retries, deliver, drain, worker_args):
        self.workers = workers
        self.watchdog = watchdog
        self.retries = retries
        self.deliver = deliver
        self.drain = drain
        self.worker_args = worker_args
        self.attempts = {}

    def run(self, queue):
        run_round = self._inline_round if self.workers <= 1 else self._pool_round
        round_index = 0
        while queue:
            if round_index:
                sleep(_retry_backoff(round_index))
            queue = run_round(queue)
            round_index += 1

    def _stalled(self, job, retry):
        """Count a stall of *job* and queue it for the next round."""
        for ctx, _, _ in job.requesters:
            ctx.stats.watchdog_restarts += 1
        attempts = self.attempts[job.seq] = self.attempts.get(job.seq, 0) + 1
        if attempts > self.retries:
            raise _stalled_error(job, self.watchdog, attempts)
        retry.append(job)

    def _draining(self):
        return self.drain is not None and self.drain.tripped

    def _inline_round(self, queue):
        """Run the jobs one at a time in this process."""
        retry = []
        for job in queue:
            if self._draining():
                raise KeyboardInterrupt
            try:
                result, seconds, snapshot = _run_single_timed(
                    job.run_params, *self.worker_args
                )
            except SimulationStalled:
                self._stalled(job, retry)
            else:
                self.deliver(job, result, seconds, 0.0, snapshot)
        return retry

    def _pool_round(self, queue):
        """Run the jobs on one fresh process pool."""
        retry = []
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(queue))
        )
        futures = {}
        submitted = {}
        for job in queue:
            future = pool.submit(
                _run_single_timed, job.run_params, *self.worker_args
            )
            futures[future] = job
            submitted[future] = perf_counter()
        not_done = set(futures)
        # The harness guard only fires when workers are wedged past the
        # in-worker timeout (e.g. stuck outside the run loop), so it
        # sits well above the watchdog itself.
        watchdog = self.watchdog
        hard_limit = None if watchdog is None else max(2.0 * watchdog, watchdog + 5.0)
        needs_polling = watchdog is not None or self.drain is not None
        last_progress = perf_counter()
        draining_since = None
        try:
            while not_done:
                if self._draining() and draining_since is None:
                    draining_since = perf_counter()
                    for future in not_done:
                        future.cancel()
                done, not_done = concurrent.futures.wait(
                    not_done,
                    timeout=0.2 if needs_polling else None,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    if future.cancelled():
                        continue  # drained before it started
                    job = futures[future]
                    try:
                        result, seconds, snapshot = future.result()
                    except SimulationStalled:
                        self._stalled(job, retry)
                    else:
                        # Queue wait is measured parent-side: time from
                        # submission to the result landing, minus the
                        # compute itself.  That includes pool hand-off
                        # overhead, which is exactly the idle cost
                        # occupancy should see.
                        wait = max(
                            0.0,
                            perf_counter() - submitted[future] - seconds,
                        )
                        self.deliver(job, result, seconds, wait, snapshot)
                    last_progress = perf_counter()
                if draining_since is not None:
                    if (
                        not not_done
                        or perf_counter() - draining_since > DRAIN_GRACE_SECONDS
                    ):
                        _terminate_pool(pool)
                        raise KeyboardInterrupt
                    continue
                if (
                    hard_limit is not None
                    and not_done
                    and not done
                    and perf_counter() - last_progress > hard_limit
                ):
                    # No completion for well past the in-worker budget:
                    # the workers are wedged.  Kill them and re-queue
                    # whatever they were running on a fresh pool.
                    _terminate_pool(pool)
                    for future in not_done:
                        self._stalled(futures[future], retry)
                    return retry
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return retry
