"""The lock-manager substrate used standalone (no simulation).

Shows the pieces a database implementer would reuse directly:

1. preclaim (all-or-nothing) locking — the paper's protocol;
2. incremental 2PL with a waits-for deadlock and its resolution;
3. multi-granularity (intention) locking over a database → file →
   block hierarchy, as in the paper's Gamma discussion.

Usage::

    python examples/lock_manager_demo.py
"""

from repro.lockmgr import DeadlockDetector, LockManager, LockMode, RequestStatus
from repro.lockmgr.manager import exclusive_requests


def demo_preclaim():
    print("1. Preclaim (conservative) locking")
    manager = LockManager()
    assert manager.try_acquire_all("transfer#1", exclusive_requests([101, 202])) is None
    print("   transfer#1 locked accounts 101 and 202 atomically")
    blocker = manager.try_acquire_all("transfer#2", exclusive_requests([202, 303]))
    print("   transfer#2 wanted 202 and 303: denied, blocked by "
          "{!r}; nothing was acquired".format(blocker))
    manager.release_all("transfer#1")
    assert manager.try_acquire_all("transfer#2", exclusive_requests([202, 303])) is None
    print("   after transfer#1 finished, transfer#2 got its locks")
    print()


def demo_deadlock():
    print("2. Incremental 2PL and deadlock resolution")
    manager = LockManager()
    start_order = {"T-old": 1, "T-new": 2}
    manager.acquire("T-old", "acct-A", LockMode.X)
    manager.acquire("T-new", "acct-B", LockMode.X)
    waiting = {
        "T-old": manager.acquire("T-old", "acct-B", LockMode.X),
        "T-new": manager.acquire("T-new", "acct-A", LockMode.X),
    }
    detector = DeadlockDetector(manager, victim_key=lambda o: start_order[o])
    cycle = detector.find_cycle()
    victim = detector.choose_victim(cycle)
    print("   cycle detected: {}; victim (youngest): {}".format(cycle, victim))
    manager.cancel(waiting[victim])
    granted = manager.release_all(victim)
    print("   victim aborted; its release granted {} waiting "
          "request(s)".format(len(granted)))
    assert detector.find_cycle() is None
    print("   waits-for graph is cycle-free again")
    print()


def intention_path(path, mode):
    """Gray's protocol as one preclaim request: an intention lock (IS
    for readers, IX for writers) on every ancestor, root first, then
    *mode* on the node itself (the last element of *path*)."""
    intent = LockMode.IX if mode is LockMode.X else LockMode.IS
    return [(node, intent) for node in path[:-1]] + [(path[-1], mode)]


def demo_hierarchy():
    print("3. Multi-granularity locking (database → files → blocks)")
    manager = LockManager()
    block = ("database", "file-0", "file-0/block-0")
    same_file = ("database", "file-0")
    other_file = ("database", "file-1")

    assert manager.try_acquire_all("updater", intention_path(block, LockMode.X)) is None
    print("   updater X-locked one block (IX on its file and the database)")

    blocked_by = manager.try_acquire_all(
        "reporter", intention_path(same_file, LockMode.S)
    )
    print("   reporter tried to S-lock that whole file: blocked by "
          "{!r} (IX vs S)".format(blocked_by))

    assert manager.try_acquire_all(
        "reporter", intention_path(other_file, LockMode.S)
    ) is None
    print("   reporter S-locked a different file instead — block- and "
          "file-level locks coexist")

    queued = [
        manager.acquire("reporter", node, mode)
        for node, mode in intention_path(same_file, LockMode.S)
    ]
    manager.release_all("updater")
    assert all(r.status is RequestStatus.GRANTED for r in queued)
    print("   once the updater finished, the queued file lock was granted")
    print()


def main():
    demo_preclaim()
    demo_deadlock()
    demo_hierarchy()
    print("These are the mechanisms whose *costs* the simulation study")
    print("quantifies: every lock acquired above would charge lcputime +")
    print("liotime against the cluster in the model.")


if __name__ == "__main__":
    main()
