"""Property-based tests of the lock manager (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lockmgr import (
    DeadlockDetector,
    LockManager,
    LockMode,
    RequestStatus,
    compatible,
)
from tests.lockmgr import reference
from tests.lockmgr.reference import describe, snapshot, table_rows

OWNERS = ["T{}".format(i) for i in range(5)]
GRANULES = list(range(6))

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.sampled_from(OWNERS),
            st.sampled_from(GRANULES),
            st.sampled_from([LockMode.S, LockMode.X]),
        ),
        st.tuples(st.just("release"), st.sampled_from(OWNERS)),
    ),
    min_size=1,
    max_size=80,
)


class TestManagerProperties:
    @given(operations)
    @settings(max_examples=80, deadline=None)
    def test_table_invariants_always_hold(self, ops):
        """No matter the interleaving, no two incompatible holders
        coexist and no empty state object lingers."""
        manager = LockManager()
        for op in ops:
            if op[0] == "acquire":
                _, owner, granule, mode = op
                manager.acquire(owner, granule, mode)
            else:
                manager.release_all(op[1])
            manager.check_invariants()

    @given(operations)
    @settings(max_examples=80, deadline=None)
    def test_releasing_everyone_empties_the_table(self, ops):
        manager = LockManager()
        waiting = []
        for op in ops:
            if op[0] == "acquire":
                _, owner, granule, mode = op
                request = manager.acquire(owner, granule, mode)
                if request.status is RequestStatus.WAITING:
                    waiting.append(request)
            else:
                manager.release_all(op[1])
            manager.check_invariants()
        for request in waiting:
            manager.cancel(request)
            manager.check_invariants()
        for owner in OWNERS:
            manager.release_all(owner)
            manager.check_invariants()
        assert len(manager.table) == 0

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_granted_requests_hold_their_granule(self, ops):
        manager = LockManager()
        for op in ops:
            if op[0] == "acquire":
                _, owner, granule, mode = op
                request = manager.acquire(owner, granule, mode)
                if request.status is RequestStatus.GRANTED:
                    held = manager.table.mode_of(granule, owner)
                    assert held is not None
            else:
                manager.release_all(op[1])
            manager.check_invariants()

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_deadlock_resolution_terminates(self, ops):
        """Repeatedly aborting detected victims always reaches a
        cycle-free state (no infinite deadlock chains)."""
        manager = LockManager()
        requests = {}
        for op in ops:
            if op[0] == "acquire":
                _, owner, granule, mode = op
                request = manager.acquire(owner, granule, mode)
                if request.status is RequestStatus.WAITING:
                    requests.setdefault(owner, []).append(request)
            else:
                manager.release_all(op[1])
            manager.check_invariants()
        detector = DeadlockDetector(manager)
        for _ in range(len(OWNERS) + 1):
            victim = detector.resolve_once()
            if victim is None:
                break
            for request in requests.pop(victim, []):
                manager.cancel(request)
            manager.release_all(victim)
            manager.check_invariants()
        assert detector.find_cycle() is None


class TestPreclaimProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OWNERS),
                st.sets(st.sampled_from(GRANULES), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_preclaim_is_all_or_nothing(self, attempts):
        manager = LockManager()
        active = set()
        for owner, granules in attempts:
            if owner in active:
                manager.release_all(owner)
                active.discard(owner)
            before = manager.lock_count(owner)
            assert before == 0
            blocker = manager.try_acquire_all(
                owner, [(g, LockMode.X) for g in granules]
            )
            if blocker is None:
                active.add(owner)
                assert manager.held_by(owner) == granules
            else:
                assert manager.lock_count(owner) == 0
                assert blocker in active
            manager.check_invariants()


# -- differential tests against the full-table-scan algorithms -----------

modes = st.sampled_from([LockMode.S, LockMode.X])

mixed_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.sampled_from(OWNERS),
            st.sampled_from(GRANULES),
            modes,
        ),
        st.tuples(
            st.just("acquire_from"),
            st.sampled_from(OWNERS),
            st.lists(st.sampled_from(GRANULES), min_size=1, max_size=4),
            st.integers(min_value=0, max_value=4),
            modes,
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("release"),
            st.sampled_from(OWNERS),
            st.sampled_from(GRANULES),
        ),
        st.tuples(st.just("release_all"), st.sampled_from(OWNERS)),
    ),
    min_size=1,
    max_size=80,
)


def scan_edges(manager):
    """Waits-for edges by scanning every locked granule, in ``seq`` order."""
    edges = []
    for _granule, _seq, holders, waiters in table_rows(manager):
        for owner, _granule, mode, _status in waiters:
            for holder, held in holders:
                if holder != owner and not compatible(held, mode):
                    edges.append((owner, holder))
    return edges


def acquire_loop(manager, owner, granules, start, mode):
    """``acquire_from`` spelled as one ``acquire`` per granule."""
    for index in range(start, len(granules)):
        request = manager.acquire(owner, granules[index], mode)
        if request.status is RequestStatus.WAITING:
            return index, request
    return len(granules), None


def release_loop(manager, owner):
    """``release_all`` spelled as one ``release`` per held granule."""
    granted = []
    for granule in list(manager._held.get(owner, ())):
        granted.extend(manager.release(owner, granule))
    return granted


def recording_manager(cls=LockManager):
    events = []
    manager = cls(observer=lambda *event: events.append(event))
    return manager, events


def apply(manager, op, waiting, batched=True):
    """Run one operation; returns what the call returned, described."""
    kind = op[0]
    if kind == "acquire":
        _, owner, granule, mode = op
        request = manager.acquire(owner, granule, mode)
        if request.status is RequestStatus.WAITING:
            waiting.append(request)
        return describe(request)
    if kind == "acquire_from":
        _, owner, granules, start, mode = op
        start = min(start, len(granules))
        acquire = manager.acquire_from if batched else (
            lambda *args: acquire_loop(manager, *args)
        )
        index, request = acquire(owner, granules, start, mode)
        if request is not None:
            waiting.append(request)
        return index, describe(request)
    if kind == "cancel":
        if waiting:
            manager.cancel(waiting[op[1] % len(waiting)])
        return None
    if kind == "release":
        return [describe(r) for r in manager.release(op[1], op[2])]
    release = manager.release_all if batched else (
        lambda owner: release_loop(manager, owner)
    )
    return [describe(r) for r in release(op[1])]


class TestIndexedManagerMatchesTableScan:
    @given(mixed_operations)
    @settings(max_examples=150, deadline=None)
    def test_waits_for_edges_match_a_full_scan_in_order(self, ops):
        manager = LockManager()
        waiting = []
        for op in ops:
            apply(manager, op, waiting)
            manager.check_invariants()
            assert list(manager.waits_for_edges()) == scan_edges(manager)

    @given(mixed_operations)
    @settings(max_examples=150, deadline=None)
    @example(
        # One owner's release wakes waiters on three granules.
        [
            ("acquire_from", "T0", [2, 0, 5], 0, LockMode.X),
            ("acquire", "T1", 5, LockMode.X),
            ("acquire", "T2", 0, LockMode.S),
            ("acquire", "T3", 2, LockMode.S),
            ("release_all", "T0"),
        ]
    )
    def test_batched_calls_match_per_granule_calls(self, ops):
        """``acquire_from`` and ``release_all`` leave the same table,
        held sets and observer events, and return the same requests,
        as the equivalent loops of single-granule calls."""
        batched, batched_events = recording_manager()
        single, single_events = recording_manager()
        batched_waiting, single_waiting = [], []
        for op in ops:
            got = apply(batched, op, batched_waiting)
            want = apply(single, op, single_waiting, batched=False)
            assert got == want
            assert snapshot(batched) == snapshot(single)
            assert batched_events == single_events
            batched.check_invariants()
            single.check_invariants()


# -- differential tests against the per-granule reference manager ----------

#: Granule ids whose hashes collide in small set tables, so a held
#: set's iteration order depends on the order of its adds (with ids
#: 0..5 it would always be ascending, and release order untestable).
SLOTS = [0, 32, 64, 1, 33, 65]
#: Hierarchy-style node ids, as the hierarchical engine passes them.
NODES = ["db", ("f", 0), ("f", 1), ("b", 0)]
UNIVERSE = SLOTS + NODES
ANY_GRANULE = st.sampled_from(UNIVERSE)

reference_operations = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.sampled_from(OWNERS), ANY_GRANULE, modes),
        st.tuples(
            # A contiguous wrap-around run as BestPlacement draws it;
            # counts beyond len(SLOTS) repeat granules inside a run.
            st.just("run"),
            st.sampled_from(OWNERS),
            st.integers(min_value=0, max_value=len(SLOTS) - 1),
            st.integers(min_value=1, max_value=2 * len(SLOTS) + 1),
            modes,
        ),
        st.tuples(
            st.just("acquire_from"),
            st.sampled_from(OWNERS),
            st.lists(ANY_GRANULE, min_size=1, max_size=5),
            st.integers(min_value=0, max_value=4),
            modes,
        ),
        st.tuples(st.just("resume"), st.sampled_from(OWNERS)),
        st.tuples(
            st.just("preclaim"),
            st.sampled_from(OWNERS),
            st.lists(st.tuples(ANY_GRANULE, modes), max_size=4),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("release"), st.sampled_from(OWNERS), ANY_GRANULE),
        st.tuples(st.just("release_all"), st.sampled_from(OWNERS)),
        st.just(("abort_victim",)),
    ),
    min_size=1,
    max_size=60,
)


class Client:
    """One manager plus the bookkeeping a protocol keeps around it."""

    def __init__(self, cls):
        self.manager, self.events = recording_manager(cls)
        self.waiting = []
        #: owner -> (granules, index, request, mode) of a run that queued.
        self.pending = {}

    def run_from(self, owner, granules, start, mode):
        index, request = self.manager.acquire_from(owner, granules, start, mode)
        if request is not None:
            self.waiting.append(request)
            self.pending[owner] = (granules, index, request, mode)
        return index, describe(request)

    def apply(self, op):
        """Run one operation; returns what the call returned, described."""
        manager = self.manager
        kind = op[0]
        if kind == "run":
            _, owner, start, count, mode = op
            run = [SLOTS[(start + i) % len(SLOTS)] for i in range(count)]
            return self.run_from(owner, run, 0, mode)
        if kind == "acquire_from":
            _, owner, granules, start, mode = op
            return self.run_from(owner, granules, min(start, len(granules)), mode)
        if kind == "resume":
            entry = self.pending.get(op[1])
            if entry is None or entry[2].status is not RequestStatus.GRANTED:
                return None
            del self.pending[op[1]]
            granules, index, _request, mode = entry
            return self.run_from(op[1], granules, index + 1, mode)
        if kind == "preclaim":
            return manager.try_acquire_all(op[1], op[2])
        if kind == "abort_victim":
            # What the incremental protocol does with a deadlock victim.
            victim = DeadlockDetector(manager).resolve_once()
            if victim is not None:
                for request in self.waiting:
                    if request.owner == victim:
                        manager.cancel(request)
                manager.release_all(victim)
            return victim
        return apply(manager, op, self.waiting)

    def observe(self):
        """Everything a caller can see of the manager right now."""
        manager = self.manager
        table = manager.table
        owners = OWNERS
        granules = UNIVERSE
        return dict(
            snapshot=snapshot(manager),
            events=list(self.events),
            edges=list(manager.waits_for_edges()),
            victim=DeadlockDetector(manager).resolve_once(),
            held={o: (manager.held_by(o), manager.lock_count(o)) for o in owners},
            modes=[table.mode_of(g, o) for g in granules for o in owners],
            population=manager.population(),
            size=len(table),
            conflicts=[
                manager.conflicting_holders(o, g, m)
                for o in owners
                for g in granules
                for m in (LockMode.S, LockMode.X)
            ],
        )


class TestManagerMatchesReference:
    @given(reference_operations)
    @settings(max_examples=200, deadline=None)
    @example(
        # A run that laps the space twice, another owner's S run over
        # it, a preclaim across both, and a deadlock between them.
        [
            ("run", "T0", 4, 9, LockMode.S),
            ("run", "T1", 5, 3, LockMode.S),
            ("preclaim", "T2", [("db", LockMode.X), (5, LockMode.S)]),
            ("acquire", "T1", 2, LockMode.X),
            ("acquire", "T0", 0, LockMode.X),
            ("abort_victim",),
            ("resume", "T1"),
            ("release_all", "T0"),
        ]
    )
    @example(
        # An S holder asking for X behind a queued writer must queue too.
        [
            ("acquire", "T0", 32, LockMode.S),
            ("acquire", "T1", 32, LockMode.X),
            ("acquire", "T0", 32, LockMode.X),
        ]
    )
    @example(
        # Colliding ids: the held set's order is the order of its adds,
        # and release_all promotes in that order.
        [
            ("run", "T0", 3, 5, LockMode.X),
            ("acquire", "T1", 65, LockMode.X),
            ("acquire", "T2", 0, LockMode.S),
            ("acquire", "T3", 33, LockMode.X),
            ("release_all", "T0"),
        ]
    )
    def test_observable_behaviour_matches_the_per_granule_manager(self, ops):
        """Light entries change nothing a caller can observe: return
        values, observer events, edges and victims, held sets in
        iteration order, and the table sorted by ``seq``."""
        light = Client(LockManager)
        full = Client(reference.LockManager)
        for op in ops:
            assert light.apply(op) == full.apply(op)
            assert light.observe() == full.observe()
            light.manager.check_invariants()
