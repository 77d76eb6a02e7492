"""The lock table: light single-holder entries and full granule states."""

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
        (kept from the light entry the state replaced); entries
        sorted by it come out in the order their granules were locked.
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
    """A hash table of granule lock states.

    Granules are identified by arbitrary hashable ids.  Entries are
    created lazily and discarded when both holder and waiter sets
    drain, so memory scales with *locked* granules, not with ``ltot`` —
    the in-memory analogue of the paper's observation that fine
    granularity needs big lock tables.

    A granule lives in exactly one of two dicts:

    ``light``
        granule → ``(owner, mode, seq)`` for a granule held by one
        owner that nobody else has touched.  A fresh grant writes one
        of these; most granules never need more.
    ``states``
        granule → :class:`GranuleState` for a granule that a second
        request reached (another owner, or the holder again).
        :meth:`materialise` turns a light entry into a state with the
        same ``seq`` and the light holder first.

    Every entry takes the next creation number ``seq`` when it is
    created, so sorting entries of both kinds by ``seq`` gives the
    order in which the granules were (last) locked.  Only this class
    builds or reads the light-entry tuples;
    :class:`~repro.lockmgr.manager.LockManager` grants through
    :meth:`claim` and :meth:`grant_free`, and its ``release_all``
    pops both dicts directly.
    """

    def __init__(self):
        self.states = {}
        self.light = {}
        #: The next creation number.
        self.created = 0

    def __len__(self):
        return len(self.states) + len(self.light)

    def __contains__(self, granule):
        return granule in self.states or granule in self.light

    def state(self, granule):
        """The :class:`GranuleState` for *granule*, created if absent."""
        state = self.states.get(granule)
        if state is not None:
            return state
        if granule in self.light:
            return self.materialise(granule)
        return self.create(granule)

    def create(self, granule):
        """A new, empty state for *granule* (which must have no entry)."""
        state = GranuleState(self.created)
        self.created += 1
        self.states[granule] = state
        return state

    def materialise(self, granule):
        """Replace *granule*'s light entry by an equivalent state."""
        owner, mode, seq = self.light.pop(granule)
        state = GranuleState(seq)
        state.holders[owner] = mode
        self.states[granule] = state
        return state

    def claim(self, granule, owner, mode):
        """Give *owner* a light entry on *granule* if it has no entry.

        Returns ``None`` when the entry was written.  Otherwise nothing
        is granted and the granule's state is returned, materialised
        from its light entry if need be, for the caller to decide.
        """
        state = self.states.get(granule)
        if state is not None:
            return state
        if granule in self.light:
            return self.materialise(granule)
        self.light[granule] = (owner, mode, self.created)
        self.created += 1
        return None

    def grant_free(self, granules, start, owner, mode):
        """Give *owner* light entries on ``granules[start:]`` in order.

        Stops at the first granule that already has an entry (a
        granule repeated in the run has one by then) and returns its
        index, or ``len(granules)`` when every granule was free.
        """
        light = self.light
        states = self.states
        seq = self.created
        for index in range(start, len(granules)):
            granule = granules[index]
            if granule in light or granule in states:
                break
            light[granule] = (owner, mode, seq)
            seq += 1
        stop = start + seq - self.created
        self.created = seq
        return stop

    def peek(self, granule):
        """The materialised state for *granule*, or ``None``.

        A granule with a light entry has no state (and no waiters).
        """
        return self.states.get(granule)

    def holding(self, granule):
        """``(owner, mode)`` pairs for *granule*'s holders, in grant order.

        A live view, not a copy; a light entry is read as one holder
        without materialising it.
        """
        entry = self.light.get(granule)
        if entry is not None:
            return ((entry[0], entry[1]),)
        state = self.states.get(granule)
        return state.holders.items() if state is not None else ()

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
        """Remove *owner*'s lock on *granule* (no-op if absent)."""
        entry = self.light.get(granule)
        if entry is not None:
            if entry[0] == owner:
                del self.light[granule]
            return
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

    def entries(self):
        """``(seq, granule, holders, waiters)`` for every entry, by ``seq``.

        The logical view of the table: light entries appear as one
        holder and no waiters, exactly as a state would.
        """
        rows = [
            (seq, granule, {owner: mode}, ())
            for granule, (owner, mode, seq) in self.light.items()
        ]
        rows.extend(
            (state.seq, granule, state.holders, state.waiters)
            for granule, state in self.states.items()
        )
        rows.sort(key=lambda row: row[0])
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

        * no granule has both a light entry and a state;
        * every creation number is distinct and below ``created``;
        * every pair of distinct holders on a granule is compatible;
        * no state object is empty (they are discarded eagerly).
        """
        both = self.light.keys() & self.states.keys()
        if both:
            raise AssertionError(
                "light and materialised at once: {!r}".format(
                    sorted(both, key=repr)
                )
            )
        seqs = [row[0] for row in self.entries()]
        if len(set(seqs)) != len(seqs) or any(s >= self.created for s in seqs):
            raise AssertionError(
                "creation numbers must be distinct and below {}: {!r}".format(
                    self.created, seqs
                )
            )
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
