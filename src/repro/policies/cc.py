"""Concurrency-control protocols (the ``"cc"`` policy layer).

A :class:`ConcurrencyControl` owns the lock-acquisition phase of the
transaction lifecycle: everything between admission and execution,
plus what happens when execution has to be undone.  The orchestrator
(:class:`~repro.core.model.LockingGranularityModel`) calls

* :meth:`~ConcurrencyControl.acquire` — a generator that returns once
  the transaction holds every lock it needs (blocking, restarting or
  aborting victims along the way as the protocol dictates);
* :meth:`~ConcurrencyControl.post_execute` — a generator run after
  all sub-transactions completed, returning ``True`` to commit or
  aborting-and-backing-off and returning ``False`` to retry (used by
  wound-wait, whose victims may already be executing);
* :meth:`~ConcurrencyControl.fault_abort` — the single degraded-mode
  abort path shared by **every** protocol: release locks, wake
  waiters, back off on the fault-retry stream, retry.  Faulted and
  conflict aborts thus share one code path and draw exactly one
  backoff variate per abort (the model's
  :class:`~repro.faults.backoff.BackoffPolicy` discipline), they just
  draw it from different named streams so fault injection never
  perturbs conflict-backoff reproducibility.

Four protocols are built in:

``preclaim``
    The paper's conservative scheme: all locks at once, block on the
    named blocker until it completes, retry.  Deadlock-free.
``incremental``
    Claim-as-needed 2PL (footnote 1): granules acquired one at a time
    through the explicit lock manager; waits-for cycles are broken by
    aborting the youngest transaction in the cycle.
``no-waiting``
    Immediate-restart CC (Thomasian's restart-oriented family): a
    denied request never blocks — the transaction aborts, backs off
    and retries from scratch.  Deadlock-free by construction; works
    with any conflict engine.
``wound-wait``
    Timestamp-ordered deadlock avoidance: an older requester *wounds*
    (aborts) any younger conflicting holder; a younger requester
    waits for older holders.  Wounded transactions that are already
    executing finish their current work and abort at the commit
    point.  Deadlock-free: waits only ever point from younger to
    older.

All protocols are registered in :data:`repro.policies.registry`; new
ones subclass :class:`ConcurrencyControl`, implement ``acquire`` and
register under a fresh name (see DESIGN.md §8 for a worked example).
"""

from repro.lockmgr.modes import LockMode

#: Outcome value delivered to a waiting request when its owner is
#: killed (deadlock victim or wound).
ABORTED = "aborted"


class ConcurrencyControl:
    """Base protocol: binding, shared abort paths, commit hook.

    Class attributes
    ----------------
    name:
        Registry key; also surfaced in manifests and the CLI.
    needs_granules:
        True when the protocol acquires individual granules through
        the explicit lock manager and therefore requires materialised
        granule sets (``conflict_engine="explicit"``).
    version:
        Semantic version of the protocol's behaviour.  ``1`` for as
        shipped; bumping it forks the result-cache address of runs
        using this protocol (see
        :func:`repro.policies.policy_versions`) without invalidating
        any other policy's cached results.
    """

    name = None
    needs_granules = False
    version = 1
    #: Contention semantics assumed by the analytic fast path
    #: (:mod:`repro.analytic.mva`): ``"blocking"`` (deny → wait for the
    #: blocker, retry), ``"restart"`` (deny → abort, back off, retry
    #: from scratch) or ``"incremental"`` (granule-at-a-time waits, lock
    #: work paid once).  ``None`` lets the model infer from
    #: ``needs_granules``.
    analytic_semantics = None

    def __init__(self):
        self.model = None

    def bind(self, model):
        """Attach to *model*; called once before the run starts."""
        self.model = model
        return self

    # -- protocol hooks ---------------------------------------------------

    def acquire(self, txn):
        """Generator: return once *txn* holds all its locks."""
        raise NotImplementedError

    def post_execute(self, txn):
        """Generator: ``True`` to commit, ``False`` to retry.

        The default commits unconditionally; protocols that can kill
        a transaction *after* it acquired its locks (wound-wait)
        override this to abort at the commit point.
        """
        return True
        yield  # pragma: no cover - makes this a generator

    # -- shared abort paths -----------------------------------------------

    def fault_abort(self, txn, node):
        """Degraded-mode abort: release, wake waiters, back off, retry.

        One code path for every protocol; the backoff variate comes
        from the dedicated ``fault_backoff`` stream so fault-triggered
        draws never perturb the conflict-backoff stream.
        """
        model = self.model
        model.conflicts.release(txn)
        txn.fault_retries += 1
        model.metrics.note_fault_abort(txn, node)
        model.wake_waiters(txn)
        yield model.backoff.delay(
            model.rngs["fault_backoff"], txn.fault_retries - 1
        )

    def conflict_abort(self, txn, reason, blocker=None):
        """Conflict-driven abort bookkeeping plus one backoff variate.

        Reports the abort (a denial plus an abort, and the denied
        request first when *blocker* is given), feeds the
        admission policy's congestion signal, then sleeps a randomised
        backoff so the same conflict does not instantly re-form among
        retrying transactions.  The draw discipline matches
        :meth:`fault_abort`: exactly one variate per abort, from the
        ``backoff`` stream.  A transaction class scales the drawn
        delay by its ``backoff`` factor (still one variate, so class
        backoff never desyncs the stream).
        """
        model = self.model
        txn.aborts += 1
        model.metrics.note_abort(txn, reason, blocker)
        model.admission.policy.on_deny()
        delay = model.backoff.delay(model.rngs["backoff"], txn.aborts - 1)
        if txn.txn_class is not None and txn.txn_class.backoff != 1.0:
            delay = delay * txn.txn_class.backoff
        yield delay


class PreclaimCC(ConcurrencyControl):
    """Conservative preclaim: all locks up front, block on the blocker."""

    name = "preclaim"
    analytic_semantics = "blocking"

    def acquire(self, txn):
        model = self.model
        params = model.params
        # The hierarchical engine sets intention locks and may
        # escalate, so the chargeable lock count is its planned set,
        # not the flat placement count.
        plan_count = getattr(model.conflicts, "planned_lock_count", None)
        while True:
            txn.attempts += 1
            locks = plan_count(txn) if plan_count is not None else txn.lock_count
            model.metrics.note_request(txn, locks)
            yield model.machine.lock_overhead(
                locks * params.lcputime, locks * params.liotime
            )
            blocker = model.conflicts.request(txn)
            if blocker is None:
                probe = model.metrics
                if probe.trace is not None:
                    probe.emit("lock_grant", txn, {"attempt": txn.attempts})
                model.admission.policy.on_grant()
                return
            yield from self._denied(txn, blocker)

    def _denied(self, txn, blocker):
        """Denied request: wait for *blocker* to complete, then retry."""
        model = self.model
        model.metrics.note_denial(txn, blocker)
        model.admission.policy.on_deny()
        wake = model.env.event()
        model.blocked_wakes.setdefault(blocker.tid, []).append(wake)
        model.metrics.note_block(txn, blocker)
        blocked_at = model.env.now
        yield wake
        model.metrics.note_wake(txn, blocked_at)


class NoWaitingCC(PreclaimCC):
    """No-waiting (immediate restart): a denied request never blocks."""

    name = "no-waiting"
    analytic_semantics = "restart"

    def _denied(self, txn, blocker):
        """Denied request: abort immediately, back off, restart."""
        yield from self.conflict_abort(txn, "no-waiting", blocker)


class _GranuleCC(ConcurrencyControl):
    """Granule-at-a-time locking through the explicit lock manager.

    The shared lock loop of :class:`IncrementalCC` and
    :class:`WoundWaitCC`.  They differ only in what happens when a
    request has to queue, which each supplies as :meth:`_queued`.
    """

    needs_granules = True
    analytic_semantics = "incremental"
    #: Abort reason reported when the transaction loses a conflict.
    abort_reason = None

    def bind(self, model):
        super().bind(model)
        #: tid -> (waiting LockRequest, wake event) for transactions
        #: currently parked inside the lock manager's FIFO queues.
        self._waiting = {}
        return self

    def acquire(self, txn):
        model = self.model
        params = model.params
        manager = model.conflicts.manager
        mode = LockMode.X if txn.is_writer else LockMode.S
        while True:
            txn.attempts += 1
            model.metrics.note_request(txn, len(txn.granules))
            # The bundled request/set/release cost, charged per attempt
            # exactly as in the preclaim protocol so the two schemes
            # differ only in conflict semantics.
            yield model.machine.lock_overhead(
                len(txn.granules) * params.lcputime,
                len(txn.granules) * params.liotime,
            )
            aborted = False
            index = 0
            while True:
                index, request = manager.acquire_from(
                    txn, txn.granules, index, mode
                )
                if request is None:
                    break
                wake = model.env.event()
                request.on_grant = (
                    lambda _req, event=wake: event.succeed("granted")
                )
                self._waiting[txn.tid] = (request, wake)
                if self._queued(txn, request):
                    aborted = True
                    break
                model.metrics.note_block(txn)
                blocked_at = model.env.now
                outcome = yield wake
                model.metrics.note_wake(txn, blocked_at, request.granule)
                self._waiting.pop(txn.tid, None)
                if outcome == ABORTED:
                    aborted = True
                    break
                index += 1
            if not aborted:
                probe = model.metrics
                if probe.trace is not None:
                    probe.emit("lock_grant", txn, {"attempt": txn.attempts})
                model.conflicts.mark_active(txn)
                model.admission.policy.on_grant()
                return
            yield from self.conflict_abort(txn, reason=self.abort_reason)

    def _queued(self, txn, request):
        """*txn*'s *request* just queued; ``True`` if *txn* must abort.

        Runs before *txn* parks on its wake event, which the request's
        grant may already have triggered.
        """
        raise NotImplementedError

    def _abort_waiting(self, victim):
        """Abort *victim* if it is parked in a lock queue.

        Cancels its request, releases its locks and wakes it with
        :data:`ABORTED`.  Returns ``False``, doing nothing, when
        *victim* is not waiting.
        """
        entry = self._waiting.pop(victim.tid, None)
        if entry is None:
            return False
        manager = self.model.conflicts.manager
        request, wake = entry
        manager.cancel(request)
        manager.release_all(victim)
        if not wake.triggered:
            wake.succeed(ABORTED)
        return True


class IncrementalCC(_GranuleCC):
    """Claim-as-needed 2PL with youngest-victim deadlock detection."""

    name = "incremental"
    abort_reason = "deadlock"

    def bind(self, model):
        from repro.lockmgr.deadlock import DeadlockDetector

        super().bind(model)
        self._detector = DeadlockDetector(
            model.conflicts.manager, victim_key=lambda txn: txn.tid
        )
        return self

    def _queued(self, txn, request):
        """Break any waits-for cycle by aborting its youngest member."""
        manager = self.model.conflicts.manager
        victim = self._detector.resolve_once()
        if victim is txn:
            # Self-abort before parking: nothing waits on the wake
            # event, so it must never trigger (a spurious trigger
            # would consume a kernel event slot).
            manager.cancel(request)
            manager.release_all(txn)
            self._waiting.pop(txn.tid, None)
            return True
        if victim is not None and not self._abort_waiting(victim):
            manager.release_all(victim)
        return False


class WoundWaitCC(_GranuleCC):
    """Wound-wait: older transactions wound younger conflicting holders.

    Timestamps are transaction ids (assigned in start order, so a
    smaller tid is older).  On conflict, the requester wounds every
    younger holder: a holder that is itself parked in a lock queue is
    aborted on the spot (like a deadlock victim); a holder already
    executing is marked wounded and aborts at its commit point,
    releasing its locks then.  A requester younger than some holder
    simply waits in the manager's FIFO queue.  Since a transaction
    only ever waits for an *older* one, waits-for edges all point from
    younger to older and cycles are impossible.
    """

    name = "wound-wait"
    abort_reason = "wounded"

    def bind(self, model):
        super().bind(model)
        #: tids wounded while executing; they abort at post_execute.
        self._wounded = set()
        return self

    def acquire(self, txn):
        self._wounded.discard(txn.tid)
        yield from super().acquire(txn)

    def _queued(self, txn, request):
        """Wound every younger conflicting holder.

        Releasing a wounded waiter's locks may promote *request*
        synchronously, in which case the wake event is already
        triggered when *txn* yields it.  A wounded holder that is
        already executing with a full lock set aborts at its commit
        point (:meth:`post_execute`) and releases everything then.
        """
        for holder in self.model.conflicts.manager.conflicting_holders(
            txn, request.granule, request.mode
        ):
            if holder.tid > txn.tid and not self._abort_waiting(holder):
                self._wounded.add(holder.tid)
        return False

    def post_execute(self, txn):
        if txn.tid not in self._wounded:
            return True
        self._wounded.discard(txn.tid)
        model = self.model
        model.conflicts.release(txn)
        model.metrics.note_occupancy()
        yield from self.conflict_abort(txn, reason="wounded")
        return False
