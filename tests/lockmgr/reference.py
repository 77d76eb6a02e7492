"""A per-granule lock manager: the reference for differential tests.

This is the lock manager as it was before light entries: every locked
granule gets its own :class:`GranuleState`, created on the first grant
and dropped when it drains.  It is test code only.  The tests drive it
and :class:`repro.lockmgr.LockManager` through the same operations and
require the same observable behaviour: return values, observer
events, waits-for edges in order, deadlock victims, held sets in
iteration order, and the logical table (see :func:`table_rows`).

Compatibility is read straight from the ``COMPATIBILITY`` matrix, so
the reference does not share the manager's bit-mask lookup.
"""

from collections import deque
from operator import attrgetter

from repro.lockmgr.manager import LockRequest, RequestStatus
from repro.lockmgr.modes import COMPATIBILITY, supremum


def compatible(held, requested):
    return COMPATIBILITY[held][requested]


class GranuleState:
    __slots__ = ("holders", "waiters", "seq")

    def __init__(self, seq):
        self.holders = {}
        self.waiters = deque()
        self.seq = seq

    def grantable(self, owner, mode):
        return all(
            compatible(held, mode)
            for holder, held in self.holders.items()
            if holder != owner
        )


class LockTable:
    """granule → :class:`GranuleState`, one state per locked granule."""

    def __init__(self):
        self.states = {}
        self._created = 0

    def __len__(self):
        return len(self.states)

    def create(self, granule):
        state = GranuleState(self._created)
        self._created += 1
        self.states[granule] = state
        return state

    def peek(self, granule):
        return self.states.get(granule)

    def mode_of(self, granule, owner):
        state = self.states.get(granule)
        return None if state is None else state.holders.get(owner)

    def grant(self, granule, owner, mode):
        state = self.states.get(granule) or self.create(granule)
        held = state.holders.get(owner)
        state.holders[owner] = mode if held is None else supremum(held, mode)

    def revoke(self, granule, owner):
        state = self.states.get(granule)
        if state is None:
            return
        state.holders.pop(owner, None)
        self.prune(granule)

    def prune(self, granule):
        state = self.states.get(granule)
        if state is not None and not state.holders and not state.waiters:
            del self.states[granule]


class LockManager:
    """The per-granule manager, call for call."""

    def __init__(self, observer=None):
        self.table = LockTable()
        self.observer = observer
        self._held = {}
        self._waited = {}

    def try_acquire_all(self, owner, requests):
        requests = list(requests)
        for granule, mode in requests:
            state = self.table.peek(granule)
            if state is None:
                continue
            for holder, held in state.holders.items():
                if holder != owner and not compatible(held, mode):
                    if self.observer is not None:
                        self.observer("deny", owner, granule, mode)
                    return holder
        for granule, mode in requests:
            self._grant(owner, granule, mode)
            if self.observer is not None:
                self.observer("grant", owner, granule, mode)
        return None

    def acquire(self, owner, granule, mode, on_grant=None):
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
        for index in range(start, len(granules)):
            granule = granules[index]
            state = self._admit(owner, granule, mode)
            if state is None:
                if self.observer is not None:
                    self.observer("grant", owner, granule, mode)
                continue
            request = LockRequest(owner, granule, mode)
            self._enqueue(state, request)
            return index, request
        return len(granules), None

    def cancel(self, request):
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

    def release(self, owner, granule):
        held = self._held.get(owner)
        if held is not None:
            held.discard(granule)
            if not held:
                del self._held[owner]
        self.table.revoke(granule, owner)
        state = self.table.peek(granule)
        if state is None or not state.waiters:
            return []
        return self._promote(granule, state)

    def release_all(self, owner):
        held = self._held.pop(owner, None)
        if held is None:
            return []
        states = self.table.states
        granted = []
        for granule in held:
            state = states[granule]
            del state.holders[owner]
            if state.waiters:
                granted.extend(self._promote(granule, state))
            elif not state.holders:
                del states[granule]
        return granted

    def held_by(self, owner):
        return set(self._held.get(owner, ()))

    def lock_count(self, owner):
        return len(self._held.get(owner, ()))

    def conflicting_holders(self, owner, granule, mode):
        state = self.table.peek(granule)
        if state is None:
            return []
        return [
            holder
            for holder, held in state.holders.items()
            if holder != owner and not compatible(held, mode)
        ]

    def population(self):
        holders = sum(len(held) for held in self._held.values())
        waiters = sum(len(state.waiters) for state in self._waited.values())
        return holders, waiters

    def waits_for_edges(self):
        for state in sorted(self._waited.values(), key=attrgetter("seq")):
            for request in state.waiters:
                for holder, held in state.holders.items():
                    if holder != request.owner and not compatible(
                        held, request.mode
                    ):
                        yield (request.owner, holder)

    def _admit(self, owner, granule, mode):
        state = self.table.states.get(granule)
        if state is None:
            self.table.create(granule).holders[owner] = mode
        else:
            already = state.holders.get(owner)
            upgrade = already is not None and compatible(already, mode)
            if (state.waiters and not upgrade) or not state.grantable(owner, mode):
                return state
            state.holders[owner] = (
                mode if already is None else supremum(already, mode)
            )
        self._held.setdefault(owner, set()).add(granule)
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


def describe(request):
    """A request as a comparable tuple (``None`` stays ``None``)."""
    if request is None:
        return None
    return (request.owner, request.granule, request.mode, request.status)


def table_rows(manager):
    """The logical lock table: one row per locked granule, by ``seq``.

    Each row is ``(granule, seq, holders, waiters)`` with holders as
    ordered ``(owner, mode)`` pairs and waiters described.  Light
    entries of :class:`repro.lockmgr.LockManager` read as one holder
    and no waiters, which is what a per-granule state would hold.
    """
    table = manager.table
    if hasattr(table, "entries"):
        rows = [
            (granule, seq, list(holders.items()), [describe(r) for r in waiters])
            for seq, granule, holders, waiters in table.entries()
        ]
    else:
        rows = [
            (
                granule,
                state.seq,
                list(state.holders.items()),
                [describe(r) for r in state.waiters],
            )
            for granule, state in table.states.items()
        ]
        rows.sort(key=lambda row: row[1])
    return rows


def snapshot(manager):
    """The logical table plus every held set as an ordered list.

    Held sets are compared as lists because their iteration order is
    the order in which ``release_all`` releases and promotes.
    """
    held = {owner: list(granules) for owner, granules in manager._held.items()}
    return table_rows(manager), held
