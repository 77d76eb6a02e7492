"""The lock manager: preclaim and incremental protocols over the table.

Two acquisition protocols are provided, matching the two concurrency
control schemes discussed in the paper:

*Preclaim* (:meth:`LockManager.try_acquire_all`)
    The paper's conservative scheme: a transaction asks for **all** its
    locks at once, before using any resource.  The request either
    grants atomically or fails, naming a blocking transaction; nothing
    is queued in the table, because the simulation model keeps its own
    blocked queue and retries when the blocker finishes.  Deadlock is
    impossible.

*Incremental* (:meth:`LockManager.acquire`)
    Classic two-phase "claim as needed" locking: each granule is
    requested when first touched; incompatible requests queue FIFO and
    are granted on release.  Deadlock becomes possible and is handled
    by :class:`~repro.lockmgr.deadlock.DeadlockDetector` plus
    :meth:`LockManager.cancel`.

The manager is independent of the simulation kernel: grants are
delivered through per-request callbacks, which the simulation layer
wires to events.
"""

import enum
from operator import attrgetter

from repro.lockmgr.modes import LockMode, compatible, supremum
from repro.lockmgr.table import LockTable

_CREATION = attrgetter("seq")


class RequestStatus(enum.Enum):
    """Lifecycle of an incremental lock request."""

    GRANTED = "granted"
    WAITING = "waiting"
    CANCELLED = "cancelled"


class LockRequest:
    """One incremental request for (*owner*, *granule*, *mode*)."""

    __slots__ = ("owner", "granule", "mode", "status", "on_grant")

    def __init__(self, owner, granule, mode, on_grant=None):
        self.owner = owner
        self.granule = granule
        self.mode = mode
        self.status = RequestStatus.WAITING
        self.on_grant = on_grant

    def __repr__(self):
        return "<LockRequest {} {} on {!r} [{}]>".format(
            self.owner, self.mode, self.granule, self.status.value
        )


class LockManager:
    """Grants, queues, and releases locks over a :class:`LockTable`.

    Parameters
    ----------
    observer:
        Optional callable ``observer(event, owner, granule, mode,
        holders=None)`` invoked at every table transition: ``"grant"``
        and ``"deny"`` (preclaim), ``"grant"`` and ``"queue"``
        (incremental; a queued request also passes the number of
        current ``holders``), ``"promote"`` when a release grants a
        queued request and ``"cancel"`` when a waiting request is
        withdrawn.  Releases are not reported.  The manager has no
        clock; in a model run the observer is the run's probe
        (:meth:`repro.core.metrics.MetricsCollector.note_lock_event`),
        which stamps the time.  Every call site is guarded by a single
        ``is not None`` branch, so an unobserved table pays one
        comparison.
    """

    def __init__(self, observer=None):
        self.table = LockTable()
        self.observer = observer
        #: owner -> set of granules it holds (mirrors the table).
        self._held = {}
        #: granule -> GranuleState for every granule with a non-empty
        #: wait queue, so deadlock detection never scans the table.
        self._waited = {}

    # -- preclaim protocol ---------------------------------------------

    def try_acquire_all(self, owner, requests):
        """Atomically acquire every (granule, mode) in *requests*.

        Returns ``None`` on success.  On conflict nothing is acquired
        and the first conflicting holder (in request order, then holder
        insertion order) is returned, mirroring the paper's model where
        a denied transaction blocks on one identified blocker.
        """
        requests = list(requests)
        holding = self.table.holding
        for granule, mode in requests:
            for holder, held in holding(granule):
                if holder != owner and not compatible(held, mode):
                    if self.observer is not None:
                        self.observer("deny", owner, granule, mode)
                    return holder
        for granule, mode in requests:
            self._grant(owner, granule, mode)
            if self.observer is not None:
                self.observer("grant", owner, granule, mode)
        return None

    # -- incremental protocol --------------------------------------------

    def acquire(self, owner, granule, mode, on_grant=None):
        """Request one lock; grant immediately or queue FIFO.

        The returned :class:`LockRequest` has status ``GRANTED`` or
        ``WAITING``.  Waiting requests are granted (and their
        ``on_grant`` callback invoked) by a later :meth:`release` /
        :meth:`release_all`.  FIFO fairness: a request also waits when
        anyone is already queued on the granule, even if it would be
        compatible with the current holders, so writers cannot starve.
        """
        request = LockRequest(owner, granule, mode, on_grant)
        state = self._admit(owner, granule, mode)
        if state is None:
            request.status = RequestStatus.GRANTED
            if self.observer is not None:
                self.observer("grant", owner, granule, mode)
        else:
            self._enqueue(state, request)
        return request

    def acquire_from(self, owner, granules, start, mode):
        """Acquire ``granules[start:]`` in order until one must queue.

        Equivalent to calling :meth:`acquire` on each granule in turn
        and stopping at the first ``WAITING`` request, but only that
        request is allocated.  Returns ``(index, request)`` for the
        granule that queued, or ``(len(granules), None)`` when every
        lock was granted.

        Each stretch of granules free to *owner* (unlocked, or shared
        with other owners in compatible modes and nobody queued) is
        granted by :meth:`LockTable.grant_free`, and the owner's held
        set grows by one ``set.update`` per stretch, adding granules in
        run order; only the granule a stretch stops at goes through
        :meth:`_admit`.
        """
        grant_free = self.table.grant_free
        observer = self.observer
        end = len(granules)
        index = start
        while index < end:
            stop = grant_free(granules, index, owner, mode)
            if stop > index:
                stretch = granules[index:stop]
                held = self._held.get(owner)
                if held is None:
                    self._held[owner] = set(stretch)
                else:
                    held.update(stretch)
                if observer is not None:
                    for granule in stretch:
                        observer("grant", owner, granule, mode)
                index = stop
                if index == end:
                    break
            granule = granules[index]
            state = self._admit(owner, granule, mode)
            if state is not None:
                request = LockRequest(owner, granule, mode)
                self._enqueue(state, request)
                return index, request
            if observer is not None:
                observer("grant", owner, granule, mode)
            index += 1
        return end, None

    def cancel(self, request):
        """Withdraw a waiting request (deadlock-victim path)."""
        if request.status is not RequestStatus.WAITING:
            return
        state = self.table.peek(request.granule)
        if state is not None and request in state.waiters:
            state.waiters.remove(request)
            request.status = RequestStatus.CANCELLED
            if self.observer is not None:
                self.observer(
                    "cancel", request.owner, request.granule, request.mode
                )
            self._promote(request.granule, state)

    # -- release -----------------------------------------------------------

    def release(self, owner, granule):
        """Release *owner*'s lock on one granule, waking eligible waiters."""
        held = self._held.get(owner)
        if held is not None:
            held.discard(granule)
            if not held:
                del self._held[owner]
        state = self.table.revoke(granule, owner)
        if state is None:
            return []
        return self._promote(granule, state)

    def release_all(self, owner):
        """Release every lock *owner* holds; returns granted requests.

        Granules are released in the order of *owner*'s held set, and
        each one's queue is promoted before the next is released.
        """
        held = self._held.pop(owner, None)
        if held is None:
            return []
        granted = []
        for granule, state in self.table.revoke_all(owner, held):
            granted.extend(self._promote(granule, state))
        return granted

    # -- introspection -------------------------------------------------

    def held_by(self, owner):
        """Snapshot of granule ids *owner* currently holds."""
        return set(self._held.get(owner, ()))

    def lock_count(self, owner):
        """Number of granules *owner* currently holds."""
        return len(self._held.get(owner, ()))

    def conflicting_holders(self, owner, granule, mode):
        """Current holders of *granule* whose mode conflicts with *mode*.

        Excludes *owner* (an upgrade never conflicts with itself).
        Wound-wait uses this to pick wounding victims before queueing.
        """
        return [
            holder
            for holder, held in self.table.holding(granule)
            if holder != owner and not compatible(held, mode)
        ]

    def population(self):
        """``(holders, waiters)``: locks held and requests queued, overall."""
        holders = sum(len(held) for held in self._held.values())
        waiters = sum(len(state.waiters) for state in self._waited.values())
        return holders, waiters

    def waits_for_edges(self):
        """Yield (waiter, holder) pairs for the waits-for graph.

        A waiter waits on each current holder its mode conflicts with.
        Only granules with a wait queue are visited, in table creation
        order, so the edge order (and hence the deadlock victim) is
        that of a scan over the whole table.
        """
        for state in sorted(self._waited.values(), key=_CREATION):
            holders = state.holders
            for request in state.waiters:
                for holder, held in holders.items():
                    if holder != request.owner and not compatible(
                        held, request.mode
                    ):
                        yield (request.owner, holder)

    def check_invariants(self):
        """Assert the manager's indexes agree with the table; for tests.

        * the table's own invariants hold;
        * the held sets list exactly the table's holders;
        * the waiter index is exactly the set of granules with a
          non-empty queue, and every such granule has a holder.
        """
        self.table.check_invariants()
        holders = {}
        waited = {}
        for _seq, granule, owners, waiters in self.table.entries():
            for owner in owners:
                holders.setdefault(owner, set()).add(granule)
            if waiters:
                if not owners:
                    raise AssertionError(
                        "waiters without holders on {!r}".format(granule)
                    )
                waited[granule] = self.table.peek(granule)
        if holders != self._held:
            raise AssertionError(
                "held sets {!r} do not mirror the table {!r}".format(
                    self._held, holders
                )
            )
        if waited.keys() != self._waited.keys() or any(
            self._waited[granule] is not state
            for granule, state in waited.items()
        ):
            raise AssertionError(
                "waiter index {!r} != queued granules {!r}".format(
                    sorted(self._waited, key=repr), sorted(waited, key=repr)
                )
            )

    # -- internals -------------------------------------------------------

    def _admit(self, owner, granule, mode):
        """Grant *owner* *mode* on *granule* if it can be granted now.

        Returns ``None`` when granted, else the granule's state, on
        which the request must queue.  An owner already holding a
        compatible mode bypasses the FIFO queue (only other holders
        can conflict); any other request waits behind queued ones.
        """
        state = self.table.claim(granule, owner, mode)
        if state is not None:
            already = state.holders.get(owner)
            upgrade = already is not None and compatible(already, mode)
            if (state.waiters and not upgrade) or not state.grantable(owner, mode):
                return state
            state.holders[owner] = (
                mode if already is None else supremum(already, mode)
            )
        held = self._held.get(owner)
        if held is None:
            self._held[owner] = {granule}
        else:
            held.add(granule)
        return None

    def _enqueue(self, state, request):
        state.waiters.append(request)
        self._waited[request.granule] = state
        if self.observer is not None:
            self.observer(
                "queue", request.owner, request.granule, request.mode,
                len(state.holders),
            )

    def _grant(self, owner, granule, mode):
        self.table.grant(granule, owner, mode)
        self._held.setdefault(owner, set()).add(granule)

    def _promote(self, granule, state):
        """Grant queued waiters in FIFO order while compatible."""
        granted = []
        waiters = state.waiters
        while waiters:
            request = waiters[0]
            if not state.grantable(request.owner, request.mode):
                break
            waiters.popleft()
            self._grant(request.owner, granule, request.mode)
            request.status = RequestStatus.GRANTED
            granted.append(request)
        if not waiters:
            del self._waited[granule]
            self.table.prune(granule)
        for request in granted:
            if self.observer is not None:
                self.observer("promote", request.owner, granule, request.mode)
            if request.on_grant is not None:
                request.on_grant(request)
        return granted


def exclusive_requests(granules):
    """Convenience: (granule, X) pairs for an iterable of granule ids."""
    return [(granule, LockMode.X) for granule in granules]
