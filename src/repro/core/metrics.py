"""Output-parameter accounting (the paper's output list, plus extras)."""

import math

from repro.des.monitor import Tally, TimeWeighted
from repro.engine.machine import BusySnapshot


def _percentiles(samples, fractions):
    """Nearest-rank percentiles (``nan`` when no samples).

    Uses the explicit nearest-rank formula ``rank = ceil(f * n)``
    (1-based, clamped to ``[1, n]``).  The obvious-looking
    ``int(round(f * last))`` is *not* equivalent: Python's ``round``
    is round-half-even (banker's rounding), which picks an
    off-by-one sample whenever ``f * last`` lands on ``.5`` — e.g. the
    median of four samples came out as ``ordered[2]`` instead of
    ``ordered[1]``.
    """
    if not samples:
        return [math.nan for _ in fractions]
    ordered = sorted(samples)
    n = len(ordered)
    return [
        ordered[min(n, max(1, math.ceil(f * n))) - 1] for f in fractions
    ]


class _ClassStats:
    """Per-transaction-class accumulator (multi-class runs only)."""

    __slots__ = ("name", "completions", "response", "attempts", "aborts")

    def __init__(self, name):
        self.name = name
        self.completions = 0
        self.response = Tally("response:" + name)
        self.attempts = Tally("attempts:" + name)
        self.aborts = 0


class MetricsCollector:
    """Collects everything a run reports: the run's single probe.

    The paper's output parameters (``totcpus``, ``totios``,
    ``lockcpus``, ``lockios``, ``usefulcpus``, ``usefulios``,
    ``totcom``, ``throughput``, response time) are computed in
    :meth:`finalize`; on top of those the collector tracks lock
    request/denial counts, deadlock aborts, retry counts, and
    time-weighted pending/blocked/active populations.

    With a non-zero warmup the collector snapshots machine busy time at
    the warmup instant and discards completions and response samples
    observed before it.

    Every lifecycle site reports once, to one ``note_*`` method (or to
    :meth:`emit` / :meth:`system_event` for records only the trace
    keeps), and the collector fans the event out: it updates the
    results, then appends the *trace* record when a sink is attached,
    then updates the live-metrics *instruments*
    (:class:`repro.obs.metrics.RunInstruments`) when a registry is
    attached.  The lower layers each hold one hook, a bound method of
    the collector: the lock manager :meth:`note_lock_event`, the fault
    injector :meth:`note_fault`, the network :meth:`note_message` and
    the admission policy :meth:`system_event`.  Instrument updates
    ignore the warmup gate: the live view reports what the run is
    doing now, while the paper's reported outputs stay
    warmup-filtered.  Each observer costs one ``is not None`` branch,
    so a run without observers only collects its results.
    """

    def __init__(
        self,
        env,
        params,
        machine,
        conflicts=None,
        trace=None,
        instruments=None,
        cluster=None,
        network=None,
    ):
        self.env = env
        self.params = params
        self.machine = machine
        self.conflicts = conflicts
        self.trace = trace
        self.instruments = instruments
        self.cluster = cluster
        self.network = network
        self.response = Tally("response")
        self.attempts = Tally("attempts")
        #: Per-completion response times in completion order; feed
        #: these to repro.stats.batch_means_ci for a single-run CI.
        self.response_samples = []
        self.pending = TimeWeighted(env, name="pending")
        self.blocked = TimeWeighted(env, name="blocked")
        self.active = TimeWeighted(env, name="active")
        #: Locks concurrently held — the lock table's occupancy, i.e.
        #: the storage requirement the paper's introduction motivates.
        self.locks_held = TimeWeighted(env, name="locks_held")
        self.completions = 0
        self.lock_requests = 0
        self.lock_denials = 0
        self.deadlock_aborts = 0
        self.failure_aborts = 0
        self.degraded_completions = 0
        self.commit_aborts = 0
        self.commit_latency = Tally("commit_latency")
        # Per-class breakdowns only exist for multi-class runs, so the
        # single-class result payload (and its cache digest) is
        # byte-identical to the historical format.
        mix = params.workload_mix
        self._class_names = mix.names if mix is not None else ()
        self.class_stats = {
            name: _ClassStats(name) for name in self._class_names
        }
        self._warmup_busy = BusySnapshot(0.0, 0.0, 0.0, 0.0)
        self._warmup_downtime = 0.0
        self._warmup_degraded = 0.0
        self._warmup_partition = 0.0
        self._warmup_isolated = 0.0
        self._warmup_messages = (0, 0)
        self._measuring = params.warmup == 0.0
        if params.warmup > 0.0:
            env.process(self._begin_measurement())

    def _begin_measurement(self):
        yield self.params.warmup  # bare-delay sleep
        self._warmup_busy = self.machine.busy_snapshot()
        self._warmup_downtime = self.machine.downtime(self.env.now)
        self._warmup_degraded = self.machine.degraded_time(self.env.now)
        if self.cluster is not None:
            now = self.env.now
            self._warmup_partition = self.cluster.partition_time(now)
            self._warmup_isolated = self.cluster.isolated_site_time(now)
        if self.network is not None:
            self._warmup_messages = (
                self.network.messages_sent,
                self.network.messages_dropped,
            )
        self.response = Tally("response")
        self.attempts = Tally("attempts")
        self.response_samples = []
        self.completions = 0
        self.lock_requests = 0
        self.lock_denials = 0
        self.deadlock_aborts = 0
        self.failure_aborts = 0
        self.degraded_completions = 0
        self.commit_aborts = 0
        self.commit_latency = Tally("commit_latency")
        self.class_stats = {
            name: _ClassStats(name) for name in self._class_names
        }
        self._measuring = True

    # -- the probe: results, then trace, then live metrics ---------------

    def emit(self, kind, txn, details):
        """A lifecycle record for *txn* that only the trace keeps.

        *details* is the record's one dict, passed to the sink as it
        is; callers build it only when a trace is attached.
        """
        if self.trace is not None:
            self.trace.emit(self.env._now, kind, txn.tid, details)

    def system_event(self, kind, details):
        """A system record (subject 0) that only the trace keeps; also
        the admission policy's ``notify`` hook (``mpl_change``)."""
        if self.trace is not None:
            self.trace.emit(self.env._now, kind, 0, details)

    def note_occupancy(self):
        """The conflict engine's active set or lock count changed."""
        self.active.update(self.conflicts.active_count)
        self.locks_held.update(self.conflicts.locks_held)

    def note_request(self, txn, locks):
        """*txn* issued a lock request for *locks* locks (any attempt)."""
        if self._measuring:
            self.lock_requests += 1
        if self.trace is not None:
            self.trace.emit(
                self.env._now, "lock_request", txn.tid,
                {"attempt": txn.attempts, "locks": locks},
            )
        if self.instruments is not None:
            self.instruments.lock_requests.inc()

    def note_denial(self, txn, blocker):
        """*txn*'s request was denied; *blocker* holds a conflicting lock."""
        if self._measuring:
            self.lock_denials += 1
        if self.trace is not None:
            self.trace.emit(
                self.env._now, "lock_deny", txn.tid, {"blocker": blocker.tid}
            )
        if self.instruments is not None:
            self.instruments.lock_denials.inc()

    def note_block(self, txn, blocker=None):
        """*txn* starts waiting.

        Preclaim names the *blocker* and traces ``block``; a request
        queued in the lock table (no *blocker*) was already traced by
        :meth:`note_lock_event`.
        """
        self.blocked.increment(1)
        if blocker is not None and self.trace is not None:
            self.trace.emit(
                self.env._now, "block", txn.tid, {"blocker": blocker.tid}
            )

    def note_wake(self, txn, since, granule=None):
        """*txn*, waiting since *since* (on *granule*, if queued in the
        lock table), was granted or aborted.

        Only preclaim's wake-up is traced (``wake``); a queued request
        ends in a promotion or cancellation :meth:`note_lock_event`
        traces.  Preclaim's waits carry no granule label.
        """
        self.blocked.increment(-1)
        if granule is None and self.trace is not None:
            self.trace.emit(self.env._now, "wake", txn.tid, {})
        if self.instruments is not None:
            self.instruments.observe_lock_wait(
                self.env._now - since, granule=granule,
                txn_class=txn.class_name,
            )

    def note_abort(self, txn, reason, blocker=None):
        """A conflict aborted *txn*'s attempt (``txn.aborts`` counts it).

        Counts a denial and an abort.  *reason* (``"deadlock"``,
        ``"wounded"``, ``"no-waiting"``) labels the live aborts-by-cause
        counter only; the paper's ``deadlock_aborts`` counts every
        conflict abort.  A *blocker* (no-waiting's denied request) is
        traced as ``lock_deny`` ahead of the ``abort`` record.
        """
        cls = txn.class_name
        if self._measuring:
            self.lock_denials += 1
            self.deadlock_aborts += 1
            if cls is not None and cls in self.class_stats:
                self.class_stats[cls].aborts += 1
        if self.trace is not None:
            now = self.env._now
            if blocker is not None:
                self.trace.emit(
                    now, "lock_deny", txn.tid, {"blocker": blocker.tid}
                )
            self.trace.emit(
                now, "abort", txn.tid,
                {"aborts": txn.aborts, "reason": reason},
            )
        if self.instruments is not None:
            self.instruments.lock_denials.inc()
            self.instruments.note_abort(reason)
            if cls is not None:
                self.instruments.note_class_abort(cls, reason)

    def note_fault_abort(self, txn, node):
        """A crash aborted *txn* (``txn.fault_retries`` counts it) after
        its locks were released; *node* is the crashed node when the
        crash hit its lock work, else ``None``."""
        self.note_occupancy()
        if self._measuring:
            self.failure_aborts += 1
        if self.trace is not None:
            self.trace.emit(
                self.env._now, "retry", txn.tid,
                {"node": node, "retries": txn.fault_retries},
            )
        if self.instruments is not None:
            self.instruments.note_abort("fault")

    def note_commit_abort(self, txn, reason):
        """*txn*'s distributed commit was presumed aborted
        (``txn.commit_retries`` counts it) after its locks were
        released; it will retry."""
        self.note_occupancy()
        if self._measuring:
            self.commit_aborts += 1
        if self.trace is not None:
            self.trace.emit(
                self.env._now, "commit_abort", txn.tid,
                {"reason": reason, "retries": txn.commit_retries},
            )
        if self.instruments is not None:
            self.instruments.note_commit_event("abort")
            self.instruments.note_abort(reason)

    def note_commit_latency(self, latency):
        """A distributed commit decision landed after *latency*."""
        if self._measuring:
            self.commit_latency.observe(latency)
        if self.instruments is not None:
            self.instruments.note_commit_event("commit")
            self.instruments.observe_commit_latency(latency)

    def note_degraded_mode(self):
        """A writer hit the minority-partition read-only mode."""
        if self.instruments is not None:
            self.instruments.note_commit_event("degraded")

    def note_election(self, primary, was):
        """A failover election replaced primary *was* by *primary*."""
        self.system_event("election", {"primary": primary, "was": was})
        if self.instruments is not None:
            self.instruments.note_commit_event("election")

    def note_completion(self, txn):
        """*txn* committed and released its locks."""
        cls = txn.class_name
        response = self.env._now - txn.arrival
        self.note_occupancy()
        if self._measuring:
            if cls is not None and cls in self.class_stats:
                stats = self.class_stats[cls]
                stats.completions += 1
                stats.response.observe(response)
                stats.attempts.observe(txn.attempts)
            self.completions += 1
            if self.machine.down_count or (
                self.cluster is not None and self.cluster.partitioned
            ):
                # Committed while at least one node was down (or the
                # cluster was partitioned): this is the degraded-mode
                # share of the throughput.
                self.degraded_completions += 1
            self.response.observe(response)
            self.response_samples.append(response)
            self.attempts.observe(txn.attempts)
        if self.trace is not None:
            self.trace.emit(
                self.env._now, "complete", txn.tid, {"response": response}
            )
        if self.instruments is not None:
            self.instruments.commits.inc()
            if txn.attempts > 1:
                self.instruments.restarts.inc(txn.attempts - 1)
            self.instruments.response.observe(response)
            if cls is not None:
                self.instruments.note_class_completion(
                    cls, txn.attempts - 1, response
                )

    # -- the lower layers' hooks -------------------------------------------

    def note_lock_event(self, event, owner, granule, mode, holders=None):
        """The lock manager's hook: one table transition.

        All five events (``grant``, ``deny``, ``queue``, ``promote``,
        ``cancel``) count by mode in the live metrics; only contention
        is traced: ``queue`` as ``block`` (with the number of
        *holders*), ``promote`` as ``lock_promote``, ``cancel`` as
        ``lock_cancel``.
        """
        trace = self.trace
        if trace is not None and event != "grant" and event != "deny":
            subject = getattr(owner, "tid", owner)
            if event == "queue":
                trace.emit(
                    self.env._now, "block", subject,
                    {"granule": granule, "mode": mode.name, "holders": holders},
                )
            elif event == "promote":
                trace.emit(
                    self.env._now, "lock_promote", subject,
                    {"granule": granule, "mode": mode.name},
                )
            else:
                trace.emit(
                    self.env._now, "lock_cancel", subject, {"granule": granule}
                )
        if self.instruments is not None:
            self.instruments.note_lock_event(event, mode.name)

    def note_fault(self, kind, details):
        """The fault injector's hook: one fault transition (subject 0)
        with its *details* dict."""
        self.system_event(kind, details)
        if self.instruments is not None:
            self.instruments.note_fault(kind)

    def note_message(self, kind, delivered):
        """The network's hook: one message sent, dropped unless
        *delivered*; messages reach the live metrics only."""
        if self.instruments is not None:
            self.instruments.note_message(kind)
            if not delivered:
                self.instruments.note_message_dropped(kind)

    # -- finalisation ------------------------------------------------------

    def finalize(self):
        """Compute the :class:`~repro.core.results.SimulationResult`."""
        from repro.core.results import SimulationResult

        params = self.params
        horizon = params.tmax - params.warmup
        busy = self.machine.busy_snapshot().minus(self._warmup_busy)
        percentiles = _percentiles(self.response_samples, (0.5, 0.95))
        npros = params.npros
        usefulcpus = (busy.totcpus - busy.lockcpus) / npros
        usefulios = (busy.totios - busy.lockios) / npros
        denial_rate = (
            self.lock_denials / self.lock_requests if self.lock_requests else 0.0
        )
        escalations = getattr(self.conflicts, "escalations", 0)
        now = self.env.now
        downtime = self.machine.downtime(now) - self._warmup_downtime
        degraded = self.machine.degraded_time(now) - self._warmup_degraded
        availability = 1.0 - downtime / (npros * horizon) if horizon else 1.0
        partition_time = 0.0
        messages_sent = 0
        messages_dropped = 0
        if self.cluster is not None:
            partition_time = (
                self.cluster.partition_time(now) - self._warmup_partition
            )
            isolated = (
                self.cluster.isolated_site_time(now) - self._warmup_isolated
            )
            if isolated > 0.0 and horizon:
                # A site outside the majority is capacity the partition
                # took away; fold it into availability the same way
                # processor downtime is.
                availability *= max(
                    0.0, 1.0 - isolated / (self.cluster.nnodes * horizon)
                )
            # Partitioned time is degraded-mode time even when every
            # processor stayed up.  Overlap between the two windows is
            # not subtracted (plans normally use one fault family).
            degraded += partition_time
        if self.network is not None:
            messages_sent = self.network.messages_sent - self._warmup_messages[0]
            messages_dropped = (
                self.network.messages_dropped - self._warmup_messages[1]
            )
        degraded_throughput = (
            self.degraded_completions / degraded if degraded > 0.0 else 0.0
        )
        per_class = tuple(
            {
                "txn_class": name,
                "totcom": stats.completions,
                "throughput": stats.completions / horizon,
                "response_time": stats.response.mean,
                "aborts": stats.aborts,
                "mean_attempts": stats.attempts.mean,
            }
            for name, stats in self.class_stats.items()
        )
        return SimulationResult(
            per_class=per_class,
            params=params,
            totcpus=busy.totcpus,
            totios=busy.totios,
            lockcpus=busy.lockcpus,
            lockios=busy.lockios,
            usefulcpus=usefulcpus,
            usefulios=usefulios,
            totcom=self.completions,
            throughput=self.completions / horizon,
            response_time=self.response.mean,
            response_p50=percentiles[0],
            response_p95=percentiles[1],
            cpu_utilization=busy.totcpus / (npros * horizon),
            io_utilization=busy.totios / (npros * horizon),
            lock_overhead=busy.lockcpus + busy.lockios,
            lock_requests=self.lock_requests,
            lock_denials=self.lock_denials,
            denial_rate=denial_rate,
            deadlock_aborts=self.deadlock_aborts,
            lock_escalations=escalations,
            mean_locks_held=self.locks_held.mean(),
            max_locks_held=self.locks_held.maximum,
            mean_attempts=self.attempts.mean,
            mean_pending=self.pending.mean(),
            mean_blocked=self.blocked.mean(),
            mean_active=self.active.mean(),
            failure_aborts=self.failure_aborts,
            availability=availability,
            degraded_throughput=degraded_throughput,
            commit_aborts=self.commit_aborts,
            commit_latency=(
                self.commit_latency.mean if self.commit_latency.count else 0.0
            ),
            messages_sent=messages_sent,
            messages_dropped=messages_dropped,
            partition_time=partition_time,
        )
