"""Distributed commit/replication protocols (the ``"commit"`` layer).

A :class:`CommitProtocol` owns the step between a successful execution
(all sub-transactions done, ``cc.post_execute`` said commit) and the
model's completion bookkeeping.  Single-node runs use
:class:`LocalCommit`, whose generator consumes **zero** kernel events
and zero random variates — the paper's configurations stay
bit-identical to a build without this layer.  Distributed runs
(``nnodes > 1``) pay real message round trips over
:class:`repro.net.Network` and can fail: a failed commit releases the
transaction's locks, backs off (one variate from the dedicated
``commit_backoff`` stream, through the run's
:class:`~repro.faults.backoff.BackoffPolicy`) and reruns the whole
acquire/execute cycle, exactly like the fault-abort path.

Two distributed protocols are built in (DESIGN.md §12):

``2pc``
    Presumed-abort two-phase commit, update-everywhere: the home site
    coordinates a PREPARE round to every other site, waits for all
    votes against a ``commit_timeout`` deadline, then broadcasts the
    COMMIT decision.  Any unreachable participant (partition) or
    missed deadline presumes abort — notify the reachable sites,
    release, back off, retry.  One commit costs ``2·(nnodes-1)``
    one-way messages plus the decision broadcast.
``primary-copy``
    Primary-copy replication: writers synchronously commit at the
    primary site (zero messages when the home *is* the primary, one
    round trip otherwise) and replication to the backups is
    asynchronous (fire-and-forget REPLICATE messages).  When the
    primary is unreachable, a home in a strict-majority component
    elects the lowest site id of its component as the new primary (one
    broadcast round); a home stranded in a minority component drops to
    degraded read-only mode — readers still commit locally, writers
    abort-and-back-off until the partition heals.  Reads are
    one-copy (``read-one/write-all-available``), so read-only
    transactions never pay the network.
"""


class CommitProtocol:
    """Base class: binding plus the shared failed-commit path.

    Class attributes mirror :class:`~repro.policies.cc.ConcurrencyControl`:
    ``name`` is the registry key, ``version`` feeds
    :func:`repro.policies.policy_versions` (all built-ins are 1, so
    cache addresses do not move).
    """

    name = None
    version = 1

    def __init__(self):
        self.model = None

    def bind(self, model):
        """Attach to *model*; called once before the run starts."""
        self.model = model
        return self

    def commit(self, txn):
        """Generator: ``True`` when *txn* committed, ``False`` to retry.

        Runs after execution succeeded; a ``False`` return means the
        protocol already released the transaction's locks and slept
        its backoff, and the lifecycle loops back to re-acquire.
        """
        raise NotImplementedError

    # -- shared failed-commit path ------------------------------------

    def commit_abort(self, txn, reason):
        """Presumed-abort bookkeeping plus one backoff variate.

        Mirrors :meth:`~repro.policies.cc.ConcurrencyControl.fault_abort`:
        release locks, update gauges, count the abort, wake waiters,
        sleep one backoff draw — but counts a *commit* abort and draws
        from the dedicated ``commit_backoff`` stream so distributed
        retries never desynchronise the conflict or fault streams.
        """
        model = self.model
        model.conflicts.release(txn)
        txn.commit_retries += 1
        model.metrics.note_commit_abort(txn, reason)
        model.wake_waiters(txn)
        yield model.backoff.delay(
            model.rngs["commit_backoff"], txn.commit_retries - 1
        )


class LocalCommit(CommitProtocol):
    """Single-site commit: free, instantaneous, and stream-neutral.

    The generator returns before its first ``yield``, so the kernel
    never sees it: no events, no draws, bit-identical event ids to the
    pre-distributed model.
    """

    name = "local"

    def commit(self, txn):
        return True
        yield  # pragma: no cover - makes this a generator


class TwoPhaseCommit(CommitProtocol):
    """Presumed-abort 2PC across every cluster site."""

    name = "2pc"

    def commit(self, txn):
        model = self.model
        cluster = model.cluster
        if cluster is None or not txn.is_writer:
            return True
        env, net = model.env, model.network
        home = cluster.home(txn)
        participants = [site for site in cluster.sites if site != home]
        if not participants:
            return True
        started = env.now
        votes = [0]
        all_voted = env.event()

        def on_vote(message):
            votes[0] += 1
            if votes[0] == len(participants) and not all_voted.triggered:
                all_voted.succeed()

        def on_prepare(message):
            # Participant: force-write the prepare record and vote.
            # A reachable site always votes commit; an unreachable one
            # simply never receives the PREPARE (dropped at the
            # partition boundary), which the coordinator reads as a
            # no-vote at the deadline.
            net.send(message.dst, message.src, "vote-commit", handler=on_vote)

        for site in participants:
            net.send(home, site, "prepare", handler=on_prepare)
        yield env.any_of([all_voted, env.timeout(model.params.commit_timeout)])
        if votes[0] == len(participants):
            # Decision: commit.  Presumed abort needs no acks on the
            # forward decision, so the broadcast is asynchronous.
            for site in participants:
                net.send(home, site, "commit")
            model.metrics.note_commit_latency(env.now - started)
            return True
        # Presumed abort: tell whoever is still reachable, then retry.
        for site in participants:
            net.send(home, site, "abort")
        yield from self.commit_abort(txn, "2pc-timeout")
        return False


class PrimaryCopyCommit(CommitProtocol):
    """Primary-copy replication with majority failover election."""

    name = "primary-copy"

    def commit(self, txn):
        model = self.model
        cluster = model.cluster
        if cluster is None:
            return True
        env, net = model.env, model.network
        home = cluster.home(txn)
        if not txn.is_writer:
            # Read-one: served from the home replica even under
            # partition (the degraded mode is read-*only*, not down).
            return True
        if not cluster.in_majority(home):
            # Minority partition: degraded read-only mode.
            model.metrics.note_degraded_mode()
            yield from self.commit_abort(txn, "degraded-read-only")
            return False
        if cluster.primary != home and not net.reachable(home, cluster.primary):
            # Primary partitioned or crashed away from our majority
            # component: elect the lowest reachable site id.
            yield from self._failover(home)
        started = env.now
        primary = cluster.primary
        if primary == home:
            self._replicate(home)
            model.metrics.note_commit_latency(env.now - started)
            return True
        acked = env.event()

        def on_ack(message):
            if not acked.triggered:
                acked.succeed()

        def on_request(message):
            net.send(message.dst, message.src, "commit-ack", handler=on_ack)

        net.send(home, primary, "commit-req", handler=on_request)
        yield env.any_of([acked, env.timeout(model.params.commit_timeout)])
        if acked.triggered:
            self._replicate(primary)
            model.metrics.note_commit_latency(env.now - started)
            return True
        yield from self.commit_abort(txn, "primary-timeout")
        return False

    def _replicate(self, origin):
        """Asynchronous REPLICATE fan-out from the committing site."""
        net = self.model.network
        for site in self.model.cluster.sites:
            if site != origin:
                net.send(origin, site, "replicate")

    def _failover(self, home):
        """One election round inside *home*'s majority component."""
        model = self.model
        cluster, net, env = model.cluster, model.network, model.env
        component = cluster.component(home)
        old_primary = cluster.primary
        for site in sorted(component):
            if site != home:
                net.send(home, site, "elect")
        # The round costs one RTT of campaigning before the result is
        # known cluster-component-wide.
        yield 2.0 * model.params.net_latency  # bare-delay sleep
        new_primary = min(component)
        if cluster.primary == old_primary and new_primary != cluster.primary:
            # Nobody elected meanwhile (concurrent coordinators race
            # here; first one to wake wins, the rest observe).
            cluster.elect(new_primary)
            model.metrics.note_election(new_primary, old_primary)
