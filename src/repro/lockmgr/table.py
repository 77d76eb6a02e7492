"""The lock table: per-granule holder sets and FIFO wait queues."""

from collections import deque

from repro.lockmgr.modes import compatible, supremum


class GranuleState:
    """Holders and waiters of one granule.

    Attributes
    ----------
    holders:
        Mapping owner → mode currently granted.
    waiters:
        FIFO of pending :class:`~repro.lockmgr.manager.LockRequest`.
    seq:
        Creation number assigned by the owning :class:`LockTable`;
        states sorted by it come out in the table's iteration order.
    """

    __slots__ = ("holders", "waiters", "seq")

    def __init__(self, seq):
        self.holders = {}
        self.waiters = deque()
        self.seq = seq

    def grantable(self, owner, mode):
        """Can *owner* take *mode* here, given the current holders?

        The owner's own existing lock never conflicts (it will be
        upgraded to the supremum of the two modes instead).
        """
        return all(
            compatible(held, mode)
            for holder, held in self.holders.items()
            if holder != owner
        )


class LockTable:
    """A hash table of granule lock states.

    Granules are identified by arbitrary hashable ids.  States are
    created lazily and discarded when both holder and waiter sets
    drain, so memory scales with *locked* granules, not with ``ltot`` —
    the in-memory analogue of the paper's observation that fine
    granularity needs big lock tables.

    ``states`` maps granule → :class:`GranuleState` in creation order;
    :class:`~repro.lockmgr.manager.LockManager` reads and prunes it
    directly on its grant and release paths.
    """

    def __init__(self):
        self.states = {}
        self._created = 0

    def __len__(self):
        return len(self.states)

    def __contains__(self, granule):
        return granule in self.states

    def state(self, granule):
        """The :class:`GranuleState` for *granule*, created if absent."""
        state = self.states.get(granule)
        if state is None:
            state = self.create(granule)
        return state

    def create(self, granule):
        """A new, empty state for *granule* (which must have none)."""
        state = GranuleState(self._created)
        self._created += 1
        self.states[granule] = state
        return state

    def peek(self, granule):
        """The state for *granule*, or ``None`` if it has no entry."""
        return self.states.get(granule)

    def holders(self, granule):
        """Snapshot mapping owner → mode for *granule*."""
        state = self.states.get(granule)
        return dict(state.holders) if state else {}

    def mode_of(self, granule, owner):
        """The mode *owner* holds on *granule*, or ``None``."""
        state = self.states.get(granule)
        if state is None:
            return None
        return state.holders.get(owner)

    def grant(self, granule, owner, mode):
        """Record *owner* holding *mode*; upgrades merge via supremum."""
        state = self.state(granule)
        held = state.holders.get(owner)
        state.holders[owner] = mode if held is None else supremum(held, mode)

    def revoke(self, granule, owner):
        """Remove *owner*'s lock on *granule* (no-op if absent)."""
        state = self.states.get(granule)
        if state is None:
            return
        state.holders.pop(owner, None)
        self._discard_if_empty(granule, state)

    def _discard_if_empty(self, granule, state):
        if not state.holders and not state.waiters:
            del self.states[granule]

    def prune(self, granule):
        """Drop *granule*'s state if it has no holders and no waiters."""
        state = self.states.get(granule)
        if state is not None:
            self._discard_if_empty(granule, state)

    def locked_granules(self, owner=None):
        """Granule ids with any holder, or those held by *owner*."""
        if owner is None:
            return [g for g, s in self.states.items() if s.holders]
        return [g for g, s in self.states.items() if owner in s.holders]

    def check_invariants(self):
        """Assert structural invariants; used by tests.

        * every pair of distinct holders on a granule is compatible;
        * no state object is empty (they are discarded eagerly).
        """
        for granule, state in self.states.items():
            if not state.holders and not state.waiters:
                raise AssertionError("empty state retained for {!r}".format(granule))
            holders = list(state.holders.items())
            for i, (owner_a, mode_a) in enumerate(holders):
                for owner_b, mode_b in holders[i + 1 :]:
                    if not compatible(mode_a, mode_b):
                        raise AssertionError(
                            "incompatible holders on {!r}: {}={} vs {}={}".format(
                                granule, owner_a, mode_a, owner_b, mode_b
                            )
                        )
