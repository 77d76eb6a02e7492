"""Unit tests for deadlock detection."""

from repro.lockmgr import DeadlockDetector, LockManager, LockMode


def build_cycle(manager, owners, granules):
    """Each owner holds granule[i] and waits for granule[i+1]."""
    for owner, granule in zip(owners, granules):
        manager.acquire(owner, granule, LockMode.X)
    n = len(owners)
    for i, owner in enumerate(owners):
        manager.acquire(owner, granules[(i + 1) % n], LockMode.X)


class TestDetection:
    def test_no_cycle_on_empty_manager(self):
        manager = LockManager()
        detector = DeadlockDetector(manager)
        assert detector.find_cycle() is None
        assert detector.resolve_once() is None

    def test_simple_two_way_deadlock(self):
        manager = LockManager()
        build_cycle(manager, ["A", "B"], ["g1", "g2"])
        detector = DeadlockDetector(manager)
        cycle = detector.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"A", "B"}

    def test_three_way_deadlock(self):
        manager = LockManager()
        build_cycle(manager, ["A", "B", "C"], ["g1", "g2", "g3"])
        detector = DeadlockDetector(manager)
        cycle = detector.find_cycle()
        assert set(cycle) == {"A", "B", "C"}

    def test_waiting_without_cycle_is_not_deadlock(self):
        manager = LockManager()
        manager.acquire("A", "g", LockMode.X)
        manager.acquire("B", "g", LockMode.X)
        manager.acquire("C", "g", LockMode.X)
        detector = DeadlockDetector(manager)
        assert detector.find_cycle() is None

    def test_victim_is_largest_key(self):
        manager = LockManager()
        build_cycle(manager, ["A", "B"], ["g1", "g2"])
        detector = DeadlockDetector(manager)
        assert detector.choose_victim(["A", "B"]) == "B"

    def test_custom_victim_key(self):
        manager = LockManager()
        build_cycle(manager, ["A", "B"], ["g1", "g2"])
        costs = {"A": 10, "B": 1}
        detector = DeadlockDetector(manager, victim_key=lambda o: costs[o])
        assert detector.resolve_once() == "A"

    def test_resolution_breaks_cycle(self):
        manager = LockManager()
        build_cycle(manager, ["A", "B"], ["g1", "g2"])
        detector = DeadlockDetector(manager)
        victim = detector.resolve_once()
        assert victim == "B"
        # Simulate abort of the victim.
        state = manager.table.peek("g1")
        for request in list(state.waiters):
            if request.owner == victim:
                manager.cancel(request)
        manager.release_all(victim)
        assert detector.find_cycle() is None

    def test_detector_has_no_networkx_dependency(self):
        """Cycle detection is pure stdlib: importing the module must
        not pull in networkx (it may be absent from the runtime)."""
        import sys

        module = sys.modules["repro.lockmgr.deadlock"]
        source = open(module.__file__).read()
        assert "import networkx" not in source
