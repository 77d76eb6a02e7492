"""Unit tests for the lock manager's two protocols."""

import pytest

from repro.lockmgr import DeadlockDetector, LockManager, LockMode, RequestStatus
from repro.lockmgr.manager import exclusive_requests


class TestPreclaim:
    def test_grants_on_free_table(self):
        manager = LockManager()
        assert manager.try_acquire_all("T1", exclusive_requests([1, 2, 3])) is None
        assert manager.held_by("T1") == {1, 2, 3}

    def test_conflict_returns_first_blocker_and_acquires_nothing(self):
        manager = LockManager()
        manager.try_acquire_all("T1", exclusive_requests([2]))
        blocker = manager.try_acquire_all("T2", exclusive_requests([1, 2, 3]))
        assert blocker == "T1"
        assert manager.lock_count("T2") == 0
        # Granule 1 must not have been acquired despite preceding the
        # conflicting granule in the request order.
        assert manager.table.mode_of(1, "T2") is None

    def test_disjoint_transactions_coexist(self):
        manager = LockManager()
        assert manager.try_acquire_all("T1", exclusive_requests([1, 2])) is None
        assert manager.try_acquire_all("T2", exclusive_requests([3, 4])) is None
        assert manager.lock_count("T1") == manager.lock_count("T2") == 2

    def test_shared_requests_coexist_on_same_granule(self):
        manager = LockManager()
        assert manager.try_acquire_all("T1", [(1, LockMode.S)]) is None
        assert manager.try_acquire_all("T2", [(1, LockMode.S)]) is None
        blocker = manager.try_acquire_all("T3", [(1, LockMode.X)])
        assert blocker in ("T1", "T2")

    def test_release_all_clears_everything(self):
        manager = LockManager()
        manager.try_acquire_all("T1", exclusive_requests(range(10)))
        manager.release_all("T1")
        assert manager.lock_count("T1") == 0
        assert len(manager.table) == 0

    def test_retry_after_release_succeeds(self):
        manager = LockManager()
        manager.try_acquire_all("T1", exclusive_requests([1]))
        assert manager.try_acquire_all("T2", exclusive_requests([1])) == "T1"
        manager.release_all("T1")
        assert manager.try_acquire_all("T2", exclusive_requests([1])) is None

    def test_empty_request_always_granted(self):
        manager = LockManager()
        assert manager.try_acquire_all("T1", []) is None

    def test_own_locks_never_conflict(self):
        manager = LockManager()
        manager.try_acquire_all("T1", exclusive_requests([1]))
        assert manager.try_acquire_all("T1", exclusive_requests([1, 2])) is None


class TestIncremental:
    def test_immediate_grant_on_free_granule(self):
        manager = LockManager()
        request = manager.acquire("T1", "g", LockMode.X)
        assert request.status is RequestStatus.GRANTED

    def test_conflicting_request_waits(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        request = manager.acquire("T2", "g", LockMode.X)
        assert request.status is RequestStatus.WAITING

    def test_release_grants_fifo(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        r2 = manager.acquire("T2", "g", LockMode.X)
        r3 = manager.acquire("T3", "g", LockMode.X)
        granted = manager.release_all("T1")
        assert granted == [r2]
        assert r2.status is RequestStatus.GRANTED
        assert r3.status is RequestStatus.WAITING

    def test_release_grants_multiple_compatible_waiters(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        r2 = manager.acquire("T2", "g", LockMode.S)
        r3 = manager.acquire("T3", "g", LockMode.S)
        granted = manager.release_all("T1")
        assert set(granted) == {r2, r3}

    def test_on_grant_callback_invoked(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        seen = []
        manager.acquire("T2", "g", LockMode.X, on_grant=lambda r: seen.append(r.owner))
        assert seen == []
        manager.release_all("T1")
        assert seen == ["T2"]

    def test_fifo_fairness_blocks_compatible_overtakers(self):
        # S behind a waiting X must wait, or the writer starves.
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.S)
        writer = manager.acquire("T2", "g", LockMode.X)
        reader = manager.acquire("T3", "g", LockMode.S)
        assert writer.status is RequestStatus.WAITING
        assert reader.status is RequestStatus.WAITING
        manager.release_all("T1")
        assert writer.status is RequestStatus.GRANTED
        assert reader.status is RequestStatus.WAITING

    def test_upgrade_while_sole_holder(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.S)
        request = manager.acquire("T1", "g", LockMode.X)
        assert request.status is RequestStatus.GRANTED
        assert manager.table.mode_of("g", "T1") is LockMode.X

    def test_upgrade_blocked_by_other_reader(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.S)
        manager.acquire("T2", "g", LockMode.S)
        request = manager.acquire("T1", "g", LockMode.X)
        assert request.status is RequestStatus.WAITING

    def test_release_all_promotes_each_queue_before_the_next_release(self):
        # Small ints iterate a set in value order, so granule 1 is
        # released (and its queue promoted) before granule 2.
        manager = LockManager()
        manager.acquire_from("T1", [1, 2], 0, LockMode.X)
        seen = []
        waiter = manager.acquire(
            "T2", 1, LockMode.X,
            on_grant=lambda _req: seen.append(list(manager.table.holding(2))),
        )
        assert manager.release_all("T1") == [waiter]
        assert seen == [[("T1", LockMode.X)]]
        assert len(manager.table) == 1

    def test_cancel_removes_waiter_and_promotes(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        r2 = manager.acquire("T2", "g", LockMode.X)
        r3 = manager.acquire("T3", "g", LockMode.S)
        manager.cancel(r2)
        assert r2.status is RequestStatus.CANCELLED
        assert r3.status is RequestStatus.WAITING  # T1 still holds X
        manager.release_all("T1")
        assert r3.status is RequestStatus.GRANTED

    def test_cancel_granted_request_is_noop(self):
        manager = LockManager()
        request = manager.acquire("T1", "g", LockMode.X)
        manager.cancel(request)
        assert request.status is RequestStatus.GRANTED

    def test_waits_for_edges(self):
        manager = LockManager()
        manager.acquire("A", "g1", LockMode.X)
        manager.acquire("B", "g2", LockMode.X)
        manager.acquire("A", "g2", LockMode.X)
        manager.acquire("B", "g1", LockMode.X)
        edges = set(manager.waits_for_edges())
        assert ("A", "B") in edges
        assert ("B", "A") in edges
        manager.check_invariants()

    def test_waits_for_edges_follow_table_creation_order(self):
        # The edge order decides which cycle the detector finds first,
        # and so the victim: it must be the order of a scan over the
        # table (granule-state creation order), not the order in which
        # requests queued or granule ids sort.
        manager = LockManager()
        manager.acquire("A", "g1", LockMode.X)
        manager.acquire("B", "g2", LockMode.S)
        manager.acquire("G", "g2", LockMode.S)
        manager.acquire("C", "g3", LockMode.X)
        manager.release_all("A")  # prunes g1's state...
        manager.acquire("D", "g1", LockMode.X)  # ...and re-creates it last
        manager.acquire("E", "g1", LockMode.X)
        manager.acquire("A", "g3", LockMode.S)
        manager.acquire("H", "g3", LockMode.X)
        manager.acquire("F", "g2", LockMode.X)
        manager.check_invariants()
        assert list(manager.waits_for_edges()) == [
            ("F", "B"),
            ("F", "G"),
            ("A", "C"),
            ("H", "C"),
            ("E", "D"),
        ]

    def test_victim_follows_edge_order(self):
        # Two disjoint cycles, {A, B} queued first on g1/g2 and {C, D}
        # on g3/g4.  Re-creating g1 and g2 puts the {C, D} cycle first
        # in table order, so its youngest member is the victim.
        manager = LockManager()
        for owner, granule in zip("ABCD", ["g1", "g2", "g3", "g4"]):
            manager.acquire(owner, granule, LockMode.X)
        manager.release_all("A")
        manager.release_all("B")
        manager.acquire("A", "g1", LockMode.X)
        manager.acquire("B", "g2", LockMode.X)
        manager.acquire("A", "g2", LockMode.X)
        manager.acquire("B", "g1", LockMode.X)
        manager.acquire("C", "g4", LockMode.X)
        manager.acquire("D", "g3", LockMode.X)
        assert DeadlockDetector(manager).resolve_once() == "D"

    def test_table_invariants_hold_through_random_workload(self):
        import random

        rng = random.Random(5)
        manager = LockManager()
        owners = ["T{}".format(i) for i in range(6)]
        for _ in range(300):
            owner = rng.choice(owners)
            if rng.random() < 0.3:
                manager.release_all(owner)
            else:
                granule = rng.randrange(8)
                mode = rng.choice([LockMode.S, LockMode.X])
                manager.acquire(owner, granule, mode)
            manager.check_invariants()


class TestBatchedAcquire:
    def test_grants_until_one_queues(self):
        manager = LockManager()
        manager.acquire("T1", "c", LockMode.X)
        index, request = manager.acquire_from("T2", ["a", "b", "c", "d"], 0, LockMode.X)
        assert index == 2
        assert request.granule == "c"
        assert request.status is RequestStatus.WAITING
        assert manager.held_by("T2") == {"a", "b"}
        manager.check_invariants()

    def test_resumes_from_start_after_the_grant(self):
        manager = LockManager()
        manager.acquire("T1", "c", LockMode.X)
        granules = ["a", "b", "c", "d"]
        index, request = manager.acquire_from("T2", granules, 0, LockMode.X)
        manager.release_all("T1")
        assert request.status is RequestStatus.GRANTED
        assert manager.acquire_from("T2", granules, index + 1, LockMode.X) == (4, None)
        assert manager.held_by("T2") == set(granules)
        manager.check_invariants()

    def test_reports_every_grant_and_the_queue(self):
        events = []
        manager = LockManager(observer=lambda *event: events.append(event))
        manager.acquire("T1", "b", LockMode.S)
        events.clear()
        manager.acquire_from("T2", ["a", "b"], 0, LockMode.X)
        assert events == [
            ("grant", "T2", "a", LockMode.X),
            ("queue", "T2", "b", LockMode.X, 1),
        ]


    @staticmethod
    def count_admits(manager):
        """Wrap *manager*'s ``_admit``; returns the list of admitted granules."""
        admitted = []
        admit = manager._admit

        def counting(owner, granule, mode):
            admitted.append(granule)
            return admit(owner, granule, mode)

        manager._admit = counting
        return admitted

    def test_shares_compatible_granules_in_the_run_loop(self):
        manager = LockManager()
        manager.acquire("T2", "b", LockMode.S)
        manager.acquire("T2", "c", LockMode.S)
        manager.acquire("T3", "c", LockMode.S)
        manager.acquire("T3", "d", LockMode.X)
        admitted = self.count_admits(manager)
        index, request = manager.acquire_from(
            "T1", ["a", "b", "c", "d", "e"], 0, LockMode.S
        )
        # Only the granule that queues goes through _admit.
        assert (index, admitted) == (3, ["d"])
        assert request.status is RequestStatus.WAITING
        assert list(manager.table.holding("b")) == [
            ("T2", LockMode.S),
            ("T1", LockMode.S),
        ]
        assert [holder for holder, _ in manager.table.holding("c")] == [
            "T2", "T3", "T1",
        ]
        assert manager.held_by("T1") == {"a", "b", "c"}
        manager.check_invariants()

    def test_stops_behind_a_queue_even_when_compatible(self):
        manager = LockManager()
        manager.acquire("T2", "b", LockMode.S)
        waiter = manager.acquire("T3", "b", LockMode.X)
        admitted = self.count_admits(manager)
        index, request = manager.acquire_from("T1", ["a", "b"], 0, LockMode.S)
        assert (index, admitted) == (1, ["b"])
        assert list(manager.table.peek("b").waiters) == [waiter, request]
        manager.check_invariants()

    def test_upgrade_of_the_owners_own_entry_goes_through_admit(self):
        manager = LockManager()
        manager.acquire("T1", "b", LockMode.S)
        admitted = self.count_admits(manager)
        assert manager.acquire_from("T1", ["a", "b", "c"], 0, LockMode.X) == (
            3,
            None,
        )
        assert admitted == ["b"]
        assert manager.table.mode_of("b", "T1") is LockMode.X
        manager.check_invariants()

    @pytest.mark.parametrize("mode", [LockMode.S, LockMode.X])
    def test_matches_per_granule_acquire(self, mode):
        def setup():
            events = []
            manager = LockManager(observer=lambda *event: events.append(event))
            manager.acquire("T2", 1, LockMode.S)
            manager.acquire("T2", 3, LockMode.S)
            manager.acquire("T3", 3, LockMode.S)
            manager.acquire("T0", 5, LockMode.S)
            manager.acquire("T0", 7, LockMode.X)
            events.clear()
            return manager, events

        run = [0, 1, 2, 3, 4, 5, 6, 7, 8]
        batched, batched_events = setup()
        index, request = batched.acquire_from("T1", run, 0, mode)
        single, single_events = setup()
        for position, granule in enumerate(run):
            if single.acquire("T1", granule, mode).status is RequestStatus.WAITING:
                break
        assert index == position and request.granule == granule
        assert batched_events == single_events
        assert list(batched.held_by("T1")) == list(single.held_by("T1"))
        assert [repr(row) for row in rows(batched.table)] == [
            repr(row) for row in rows(single.table)
        ]
        batched.check_invariants()


def rows(table):
    """The logical table as comparable ``(seq, granule, holders, waiters)``."""
    return [
        (seq, granule, dict(holders), list(waiters))
        for seq, granule, holders, waiters in table.entries()
    ]


class TestLightEntries:
    def test_fresh_grants_build_no_state(self):
        manager = LockManager()
        manager.acquire("T1", "a", LockMode.X)
        assert manager.acquire_from("T1", ["b", "c"], 0, LockMode.S) == (2, None)
        assert manager.try_acquire_all("T2", exclusive_requests(["d"])) is None
        table = manager.table
        assert rows(table) == [
            (0, "a", {"T1": LockMode.X}, []),
            (1, "b", {"T1": LockMode.S}, []),
            (2, "c", {"T1": LockMode.S}, []),
            (3, "d", {"T2": LockMode.X}, []),
        ]
        assert [table.peek(granule) for granule in "abcd"] == [None] * 4
        assert len(table) == 4 and "c" in table
        manager.check_invariants()

    def test_second_owner_materialises_with_the_entry_seq(self):
        manager = LockManager()
        manager.acquire("T1", "a", LockMode.S)
        manager.acquire("T1", "b", LockMode.S)
        manager.acquire("T2", "a", LockMode.S)
        table = manager.table
        state = table.peek("a")
        assert state.seq == 0
        assert list(table.holding("a")) == [
            ("T1", LockMode.S),
            ("T2", LockMode.S),
        ]
        assert table.peek("b") is None
        # Materialising keeps the entry's place in table order.
        assert [row[:2] for row in rows(table)] == [(0, "a"), (1, "b")]
        manager.check_invariants()

    def test_repeated_request_by_the_holder_materialises(self):
        manager = LockManager()
        manager.acquire_from("T1", ["a", "b", "a"], 0, LockMode.S)
        table = manager.table
        assert table.peek("a") is not None
        assert table.peek("b") is None
        assert list(table.holding("a")) == [("T1", LockMode.S)]
        assert len(table) == 2
        manager.check_invariants()

    def test_reads_leave_light_entries_light(self):
        manager = LockManager()
        manager.acquire("T1", "a", LockMode.S)
        assert manager.conflicting_holders("T2", "a", LockMode.X) == ["T1"]
        assert manager.conflicting_holders("T2", "a", LockMode.S) == []
        assert manager.try_acquire_all("T2", exclusive_requests(["a"])) == "T1"
        assert list(manager.table.holding("a")) == [("T1", LockMode.S)]
        assert manager.table.peek("a") is None

    def test_release_all_drops_light_entries_and_promotes_states(self):
        manager = LockManager()
        manager.acquire_from("T1", ["a", "b", "c"], 0, LockMode.X)
        waiter = manager.acquire("T2", "b", LockMode.X)
        assert manager.release_all("T1") == [waiter]
        table = manager.table
        assert rows(table) == [(1, "b", {"T2": LockMode.X}, [])]
        assert table.peek("b") is not None
        assert len(table) == 1
        assert manager.held_by("T2") == {"b"}
        manager.check_invariants()


class TestInvariantCheck:
    def test_clean_manager_passes(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        manager.acquire("T2", "g", LockMode.X)
        manager.check_invariants()
        manager.release_all("T1")
        manager.release_all("T2")
        manager.check_invariants()

    def test_detects_held_set_drift(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        manager._held["T1"].add("ghost")
        with pytest.raises(AssertionError, match="held sets"):
            manager.check_invariants()

    def test_detects_stale_waiter_index(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        manager.acquire("T2", "g", LockMode.X)
        manager._waited.clear()
        with pytest.raises(AssertionError, match="waiter index"):
            manager.check_invariants()

    def test_detects_light_entry_missing_from_held_set(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        manager.acquire("T1", "h", LockMode.X)
        manager._held["T1"].discard("g")
        with pytest.raises(AssertionError, match="held sets"):
            manager.check_invariants()

    def test_runs_the_table_checks(self):
        manager = LockManager()
        manager.acquire("T1", "g", LockMode.X)
        manager.table.state("g").holders["T2"] = LockMode.X
        with pytest.raises(AssertionError, match="incompatible holders"):
            manager.check_invariants()


class TestHelpers:
    def test_exclusive_requests_builder(self):
        pairs = exclusive_requests([1, 2])
        assert pairs == [(1, LockMode.X), (2, LockMode.X)]

    def test_request_repr(self):
        manager = LockManager()
        request = manager.acquire("T1", "g", LockMode.X)
        text = repr(request)
        assert "T1" in text and "granted" in text

    def test_release_unheld_granule_is_noop(self):
        manager = LockManager()
        assert manager.release("T1", "g") == []
