"""Unit tests for the lock table."""

import pytest

from repro.lockmgr import LockMode, LockTable


class TestLockTable:
    def test_states_created_lazily(self):
        table = LockTable()
        assert len(table) == 0
        assert "g" not in table
        table.state("g")
        assert "g" in table

    def test_grant_and_mode_of(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.S)
        assert table.mode_of("g", "T1") is LockMode.S
        assert table.mode_of("g", "T2") is None
        assert table.mode_of("other", "T1") is None

    def test_upgrade_merges_to_supremum(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.S)
        table.grant("g", "T1", LockMode.IX)
        assert table.mode_of("g", "T1") is LockMode.SIX

    def test_revoke_removes_holder(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.X)
        table.revoke("g", "T1")
        assert table.mode_of("g", "T1") is None

    def test_revoke_discards_empty_state(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.X)
        table.revoke("g", "T1")
        assert len(table) == 0

    def test_revoke_unknown_is_noop(self):
        table = LockTable()
        table.revoke("nope", "T1")
        assert len(table) == 0

    def test_holders_snapshot_is_a_copy(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.S)
        snapshot = table.holders("g")
        snapshot["T2"] = LockMode.X
        assert "T2" not in table.holders("g")

    def test_holding_reads_a_light_entry_without_materialising(self):
        table = LockTable()
        assert list(table.holding("g")) == []
        table.grant("g", "T1", LockMode.S)
        assert list(table.holding("g")) == [("T1", LockMode.S)]
        assert table.peek("g") is None
        table.grant("g", "T2", LockMode.S)
        assert list(table.holding("g")) == [
            ("T1", LockMode.S),
            ("T2", LockMode.S),
        ]

    def test_claim_grants_only_a_granule_without_entry(self):
        table = LockTable()
        assert table.claim("g", "T1", LockMode.X) is None
        assert table.mode_of("g", "T1") is LockMode.X
        state = table.claim("g", "T2", LockMode.S)
        # Nothing granted to T2: the caller gets the state to decide.
        assert state is table.peek("g")
        assert dict(state.holders) == {"T1": LockMode.X}
        assert table.claim("g", "T2", LockMode.S) is state

    def test_grant_free_stops_at_the_first_granule_with_an_entry(self):
        table = LockTable()
        table.grant("c", "T2", LockMode.S)
        run = ["x", "a", "b", "c", "d"]
        assert table.grant_free(run, 1, "T1", LockMode.X) == 3
        assert table.locked_granules("T1") == ["a", "b"]
        # A granule repeated within the run stops the stretch too.
        assert table.grant_free(["e", "f", "e"], 0, "T1", LockMode.X) == 2
        assert table.grant_free(["e"], 0, "T1", LockMode.X) == 0
        assert table.grant_free([], 0, "T1", LockMode.X) == 0
        assert [row[0] for row in table.entries()] == [0, 1, 2, 3, 4]
        table.check_invariants()

    def test_grant_free_shares_another_owners_light_s_entry(self):
        table = LockTable()
        table.grant("b", "T2", LockMode.S)
        assert table.grant_free(["a", "b", "c"], 0, "T1", LockMode.S) == 3
        state = table.peek("b")
        assert state is not None and state.seq == 0
        assert list(table.holding("b")) == [
            ("T2", LockMode.S),
            ("T1", LockMode.S),
        ]
        assert [row[:2] for row in table.entries()] == [(0, "b"), (1, "a"), (2, "c")]
        table.check_invariants()

    def test_grant_free_joins_an_s_state_with_two_holders(self):
        table = LockTable()
        table.grant("b", "T2", LockMode.S)
        table.grant("b", "T3", LockMode.S)
        state = table.peek("b")
        assert table.grant_free(["b", "c"], 0, "T1", LockMode.S) == 2
        assert table.peek("b") is state
        assert list(table.holding("b")) == [
            ("T2", LockMode.S),
            ("T3", LockMode.S),
            ("T1", LockMode.S),
        ]
        table.check_invariants()

    def test_grant_free_stops_at_a_queued_granule(self):
        from repro.lockmgr.manager import LockRequest

        table = LockTable()
        table.grant("b", "T2", LockMode.S)
        table.state("b").waiters.append(LockRequest("T3", "b", LockMode.X))
        assert table.grant_free(["a", "b", "c"], 0, "T1", LockMode.S) == 1
        assert list(table.holding("b")) == [("T2", LockMode.S)]
        assert "c" not in table

    def test_grant_free_stops_at_an_incompatible_holder(self):
        table = LockTable()
        table.grant("b", "T2", LockMode.X)
        table.grant("c", "T2", LockMode.S)
        table.grant("c", "T3", LockMode.X)
        assert table.grant_free(["a", "b"], 0, "T1", LockMode.S) == 1
        # Stopping reads the light entry without materialising it.
        assert table.peek("b") is None
        assert table.grant_free(["c"], 0, "T1", LockMode.S) == 0
        assert list(table.holding("c")) == [("T2", LockMode.S), ("T3", LockMode.X)]

    def test_grant_free_stops_at_the_owners_own_entry(self):
        table = LockTable()
        table.grant("a", "T1", LockMode.S)
        table.grant("b", "T1", LockMode.S)
        table.grant("b", "T2", LockMode.S)
        assert table.grant_free(["a"], 0, "T1", LockMode.S) == 0
        assert table.grant_free(["b"], 0, "T1", LockMode.X) == 0
        assert table.peek("a") is None
        assert table.mode_of("b", "T1") is LockMode.S

    def test_locked_granules_filtering(self):
        table = LockTable()
        table.grant("a", "T1", LockMode.S)
        table.grant("b", "T1", LockMode.S)
        table.grant("b", "T2", LockMode.S)
        assert sorted(table.locked_granules()) == ["a", "b"]
        assert sorted(table.locked_granules("T2")) == ["b"]

    def test_memory_scales_with_locked_not_total(self):
        # The paper's motivation: entity-level tables are huge.  Ours
        # only materialises entries for granules actually locked.
        table = LockTable()
        for granule in range(10):
            table.grant(granule, "T1", LockMode.X)
        assert len(table) == 10
        for granule in range(10):
            table.revoke(granule, "T1")
        assert len(table) == 0

    def test_grantable_ignores_own_lock(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.S)
        state = table.state("g")
        assert state.grantable("T1", LockMode.X)
        assert not state.grantable("T2", LockMode.X)

    def test_check_invariants_passes_on_compatible_holders(self):
        table = LockTable()
        table.grant("g", "T1", LockMode.S)
        table.grant("g", "T2", LockMode.S)
        table.check_invariants()

    def test_check_invariants_detects_incompatible_holders(self):
        table = LockTable()
        # Bypass the manager and force an illegal state directly.
        table.grant("g", "T1", LockMode.X)
        table.state("g").holders["T2"] = LockMode.X
        with pytest.raises(AssertionError):
            table.check_invariants()

    def test_check_invariants_detects_seq_out_of_table_order(self):
        table = LockTable()
        table.grant("a", "T1", LockMode.S)
        table.grant("b", "T1", LockMode.S)
        table.grant("b", "T2", LockMode.S)
        table.peek("b").seq = 0
        with pytest.raises(AssertionError, match="creation numbers"):
            table.check_invariants()

    def test_prune_keeps_states_with_waiters(self):
        from repro.lockmgr.manager import LockRequest

        table = LockTable()
        state = table.state("g")
        state.waiters.append(LockRequest("T1", "g", LockMode.X))
        table.prune("g")
        assert "g" in table
