"""Gray's multi-granularity protocol on the lock manager.

A node is locked by taking an intention lock (IS for readers, IX for
writers) on every ancestor, root first, then the wanted mode on the
node itself, all in one preclaim request.  The hierarchy here is a
database with two files of three blocks each.  The simulation's
hierarchical engine (:mod:`repro.core.hierarchy_engine`) issues the
same requests for its two-level file/block tree.
"""

from repro.lockmgr import LockManager, LockMode, RequestStatus

INTENT = {LockMode.S: LockMode.IS, LockMode.X: LockMode.IX}

DB = ("db",)
FILES = [("db", "f0"), ("db", "f1")]
LEAVES = [file + ("{}.b{}".format(file[-1], i),) for file in FILES for i in range(3)]


def path_requests(path, mode):
    """(node, mode) pairs for locking the last node of *path*."""
    return [(node, INTENT[mode]) for node in path[:-1]] + [(path[-1], mode)]


def lock(manager, owner, path, mode):
    return manager.try_acquire_all(owner, path_requests(path, mode))


class TestHierarchicalLocking:
    def test_leaf_locks_under_different_files_coexist(self):
        manager = LockManager()
        assert lock(manager, "T1", LEAVES[0], LockMode.X) is None
        assert lock(manager, "T2", LEAVES[3], LockMode.X) is None

    def test_leaf_locks_under_same_file_coexist(self):
        manager = LockManager()
        assert lock(manager, "T1", LEAVES[0], LockMode.X) is None
        assert lock(manager, "T2", LEAVES[1], LockMode.X) is None

    def test_same_leaf_conflicts(self):
        manager = LockManager()
        assert lock(manager, "T1", LEAVES[0], LockMode.X) is None
        assert lock(manager, "T2", LEAVES[0], LockMode.S) == "T1"

    def test_file_s_lock_blocks_leaf_writer_below(self):
        manager = LockManager()
        assert lock(manager, "T1", FILES[0], LockMode.S) is None
        assert lock(manager, "T2", LEAVES[0], LockMode.X) == "T1"
        # A reader below the S-locked file is fine (IS vs S).
        assert lock(manager, "T3", LEAVES[1], LockMode.S) is None

    def test_whole_database_x_blocks_everything(self):
        manager = LockManager()
        assert lock(manager, "T1", DB, LockMode.X) is None
        assert lock(manager, "T2", LEAVES[5], LockMode.S) == "T1"

    def test_leaf_writer_blocks_whole_database_s(self):
        manager = LockManager()
        assert lock(manager, "T1", LEAVES[0], LockMode.X) is None
        assert lock(manager, "T2", DB, LockMode.S) == "T1"

    def test_unlock_all_releases_intentions(self):
        manager = LockManager()
        lock(manager, "T1", LEAVES[0], LockMode.X)
        manager.release_all("T1")
        assert lock(manager, "T2", DB, LockMode.X) is None

    def test_queued_variant_waits_and_wakes(self):
        manager = LockManager()
        lock(manager, "T1", LEAVES[0], LockMode.X)
        woken = []
        requests = [
            manager.acquire(
                "T2", node, mode, on_grant=lambda r: woken.append(r.granule)
            )
            for node, mode in path_requests(LEAVES[0], LockMode.X)
        ]
        # The intentions are compatible with T1's; the leaf waits.
        assert [r.status for r in requests] == [
            RequestStatus.GRANTED, RequestStatus.GRANTED, RequestStatus.WAITING
        ]
        manager.release_all("T1")
        assert woken == ["f0.b0"]
        assert all(r.status is RequestStatus.GRANTED for r in requests)
