"""The lock table: one entry per locked granule, light or full."""

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
        Creation number assigned by the owning :class:`LockTable`
        (kept from the light entry the state replaced).
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
        for holder, held in self.holders.items():
            if holder != owner and not compatible(held, mode):
                return False
        return True


class LockTable:
    """A hash table of granule lock entries.

    Granules are identified by arbitrary hashable ids.  Entries are
    created lazily and discarded when both holder and waiter sets
    drain, so memory scales with *locked* granules, not with ``ltot`` —
    the in-memory analogue of the paper's observation that fine
    granularity needs big lock tables.

    One dict maps each locked granule to either

    * a light ``(owner, mode, seq)`` tuple, for a granule held by one
      owner that nobody else has touched.  A fresh grant writes one of
      these; most granules never need more; or
    * a :class:`GranuleState`, for a granule that a second request
      reached (another owner, or the holder again).
      :meth:`materialise` replaces the tuple in place by a state with
      the same ``seq`` and the light holder first.

    Every entry takes the next creation number ``seq`` when it is
    created and keeps it until it is discarded, so the dict's own
    order is creation order.  Only this class builds or reads the
    light tuples or the dict;
    :class:`~repro.lockmgr.manager.LockManager` grants through
    :meth:`claim` and :meth:`grant_free` and releases through
    :meth:`revoke` and :meth:`revoke_all`.
    """

    def __init__(self):
        #: granule -> ``(owner, mode, seq)`` or :class:`GranuleState`.
        self._entries = {}
        #: The next creation number.
        self.created = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, granule):
        return granule in self._entries

    def state(self, granule):
        """The :class:`GranuleState` for *granule*, created if absent."""
        entry = self._entries.get(granule)
        if entry is None:
            entry = self._entries[granule] = GranuleState(self.created)
            self.created += 1
        elif type(entry) is tuple:
            entry = self.materialise(granule)
        return entry

    def materialise(self, granule):
        """Replace *granule*'s light entry, in place, by an equivalent state."""
        owner, mode, seq = self._entries[granule]
        state = self._entries[granule] = GranuleState(seq)
        state.holders[owner] = mode
        return state

    def claim(self, granule, owner, mode):
        """Give *owner* a light entry on *granule* if it has no entry.

        Returns ``None`` when the entry was written.  Otherwise nothing
        is granted and the granule's state is returned, materialised
        from its light entry if need be, for the caller to decide.
        """
        entry = self._entries.get(granule)
        if entry is None:
            self._entries[granule] = (owner, mode, self.created)
            self.created += 1
            return None
        if type(entry) is tuple:
            return self.materialise(granule)
        return entry

    def grant_free(self, granules, start, owner, mode):
        """Grant *owner* ``granules[start:]`` in order while each is free to it.

        A granule is free to *owner* when it has no entry, and then
        gets a light one, or when every holder is another owner in a
        mode compatible with *mode* and nobody waits; *owner* then
        becomes its last holder, a light entry being materialised
        first.  Stops at the first other granule (an incompatible
        holder, a queue, or *owner*'s own entry: a repeat or an
        upgrade) and returns its index, or ``len(granules)`` when every
        granule was granted.
        """
        entries = self._entries
        seq = self.created
        stop = len(granules)
        for index in range(start, stop):
            granule = granules[index]
            if granule not in entries:
                entries[granule] = (owner, mode, seq)
                seq += 1
                continue
            entry = entries[granule]
            if type(entry) is tuple:
                if entry[0] == owner or not compatible(entry[1], mode):
                    stop = index
                    break
                entry = self.materialise(granule)
            elif (
                entry.waiters
                or owner in entry.holders
                or not entry.grantable(owner, mode)
            ):
                stop = index
                break
            entry.holders[owner] = mode
        self.created = seq
        return stop

    def peek(self, granule):
        """The materialised state for *granule*, or ``None``.

        A granule with a light entry has no state (and no waiters).
        """
        entry = self._entries.get(granule)
        return None if type(entry) is tuple else entry

    def holding(self, granule):
        """``(owner, mode)`` pairs for *granule*'s holders, in grant order.

        A live view, not a copy; a light entry is read as one holder
        without materialising it.
        """
        entry = self._entries.get(granule)
        if entry is None:
            return ()
        if type(entry) is tuple:
            return ((entry[0], entry[1]),)
        return entry.holders.items()

    def holders(self, granule):
        """Snapshot mapping owner → mode for *granule*."""
        return dict(self.holding(granule))

    def mode_of(self, granule, owner):
        """The mode *owner* holds on *granule*, or ``None``."""
        for holder, held in self.holding(granule):
            if holder == owner:
                return held
        return None

    def grant(self, granule, owner, mode):
        """Record *owner* holding *mode*; upgrades merge via supremum."""
        state = self.claim(granule, owner, mode)
        if state is not None:
            held = state.holders.get(owner)
            state.holders[owner] = mode if held is None else supremum(held, mode)

    def revoke(self, granule, owner):
        """Remove *owner*'s lock on *granule* (no-op if absent).

        Returns the granule's state when requests still wait on it,
        for the caller to promote, else ``None``.
        """
        entry = self._entries.get(granule)
        if entry is None:
            return None
        if type(entry) is tuple:
            if entry[0] == owner:
                del self._entries[granule]
            return None
        entry.holders.pop(owner, None)
        if entry.waiters:
            return entry
        if not entry.holders:
            del self._entries[granule]
        return None

    def revoke_all(self, owner, granules):
        """Remove *owner*'s lock on each of *granules*, in order.

        Every granule must be held by *owner*.  Yields ``(granule,
        state)`` for each state that still has waiters, before the
        next granule is released, so the caller promotes each queue
        while *owner* still holds the rest.
        """
        entries = self._entries
        for granule in granules:
            entry = entries[granule]
            if type(entry) is tuple:
                del entries[granule]
                continue
            del entry.holders[owner]
            if entry.waiters:
                yield granule, entry
            elif not entry.holders:
                del entries[granule]

    def prune(self, granule):
        """Drop *granule*'s state if it has no holders and no waiters."""
        state = self.peek(granule)
        if state is not None and not state.holders and not state.waiters:
            del self._entries[granule]

    def entries(self):
        """``(seq, granule, holders, waiters)`` for every entry, by ``seq``.

        The logical view of the table: light entries appear as one
        holder and no waiters, exactly as a state would.
        """
        rows = []
        for granule, entry in self._entries.items():
            if type(entry) is tuple:
                owner, mode, seq = entry
                rows.append((seq, granule, {owner: mode}, ()))
            else:
                rows.append((entry.seq, granule, entry.holders, entry.waiters))
        return rows

    def locked_granules(self, owner=None):
        """Granule ids with any holder, or those held by *owner*, by ``seq``."""
        return [
            granule
            for _seq, granule, holders, _waiters in self.entries()
            if (owner in holders if owner is not None else holders)
        ]

    def check_invariants(self):
        """Assert structural invariants; used by tests.

        * creation numbers increase in table order and stay below
          ``created``;
        * every pair of distinct holders on a granule is compatible;
        * no state object is empty (they are discarded eagerly).
        """
        seqs = [row[0] for row in self.entries()]
        if any(a >= b for a, b in zip(seqs, seqs[1:])) or any(
            s >= self.created for s in seqs
        ):
            raise AssertionError(
                "creation numbers must increase in table order and stay "
                "below {}: {!r}".format(self.created, seqs)
            )
        for _seq, granule, holders, waiters in self.entries():
            if not holders and not waiters:
                raise AssertionError("empty state retained for {!r}".format(granule))
            pairs = list(holders.items())
            for i, (owner_a, mode_a) in enumerate(pairs):
                for owner_b, mode_b in pairs[i + 1 :]:
                    if not compatible(mode_a, mode_b):
                        raise AssertionError(
                            "incompatible holders on {!r}: {}={} vs {}={}".format(
                                granule, owner_a, mode_a, owner_b, mode_b
                            )
                        )
