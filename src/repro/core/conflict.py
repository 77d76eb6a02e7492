"""Lock-conflict engines.

Two interchangeable implementations decide whether a preclaim lock
request is granted, and if not, *which* active transaction blocks it:

:class:`ProbabilisticConflicts`
    The paper's engine (from Ries & Stonebraker): no individual locks
    are tracked.  With active transactions ``T1..Tk`` holding
    ``L1..Lk`` locks out of ``ltot``, the unit interval is partitioned
    into ``P1 = (0, L1/ltot], P2 = (L1/ltot, (L1+L2)/ltot], ...,
    Pk+1 = (ΣLj/ltot, 1]``; a uniform draw landing in ``Pj`` (j ≤ k)
    blocks the request on ``Tj``, otherwise it is granted.

:class:`ExplicitConflicts`
    A real lock table: each transaction carries a materialised granule
    set (see :mod:`repro.core.placement`) and conflicts are decided by
    actual mode compatibility.  Used to validate the probabilistic
    model and to run the incremental (claim-as-needed) protocol.

Both expose the same three operations: ``request`` (grant or name a
blocker), ``release``, and ``active_count``.
"""

from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode


class ProbabilisticConflicts:
    """The Ries–Stonebraker interval conflict model.

    The paper's base model treats every transaction as an updater
    (exclusive locks).  When ``write_fraction < 1`` the model extends
    the interval test with lock modes: a uniform draw landing in an
    active transaction's interval means the requested granule set
    overlaps that transaction's set, which only blocks when at least
    one side is a writer — two readers share.  (A single draw tests a
    single overlap, so reader-reader overlaps that *also* overlap a
    writer are approximated as conflict-free; the explicit lock-table
    engine, which the tests compare against, has no such
    approximation.)
    """

    def __init__(self, ltot, rng):
        if ltot < 1:
            raise ValueError("ltot must be >= 1")
        self.ltot = ltot
        self._rng = rng
        # Insertion-ordered: the interval partition enumerates active
        # transactions in the order they acquired their locks.
        self._active = {}
        self._txn_map = {}

    @property
    def active_count(self):
        """Number of transactions currently holding locks."""
        return len(self._active)

    @property
    def locks_held(self):
        """Total locks currently held by active transactions."""
        return sum(self._active.values())

    def request(self, txn):
        """Decide *txn*'s preclaim request.

        Returns ``None`` when granted (txn becomes active holding
        ``txn.lock_count`` locks) or the blocking active transaction.
        """
        if txn.tid in self._active:
            raise ValueError("transaction {} already active".format(txn.tid))
        # p is uniform on (0, 1]; random() is [0, 1), so mirror it.
        p = 1.0 - self._rng.random()
        threshold = p * self.ltot
        cumulative = 0.0
        blocker = None
        for tid, locks in self._active.items():
            cumulative += locks
            if threshold <= cumulative:
                overlapped = self._txn_map[tid]
                if txn.is_writer or overlapped.is_writer:
                    blocker = overlapped
                break
        if blocker is not None:
            return blocker
        self._active[txn.tid] = txn.lock_count
        self._txn_map[txn.tid] = txn
        return None

    def release(self, txn):
        """Drop *txn* from the active set (no-op if not active)."""
        self._active.pop(txn.tid, None)
        self._txn_map.pop(txn.tid, None)


class ExplicitConflicts:
    """Conflict decisions backed by a real lock table.

    Transactions must carry a materialised ``granules`` list.  Writers
    take X locks on every granule; readers take S locks (only relevant
    when ``write_fraction < 1``, an extension to the paper's all-X
    model).
    """

    def __init__(self, manager=None):
        self.manager = manager if manager is not None else LockManager()
        self._active = {}

    @property
    def active_count(self):
        """Number of transactions currently holding locks."""
        return len(self._active)

    @property
    def locks_held(self):
        """Total granules currently locked by active transactions."""
        return sum(len(t.granules) for t in self._active.values())

    def request(self, txn):
        """Atomically claim *txn*'s granule set, or name a blocker."""
        if txn.granules is None:
            raise ValueError(
                "explicit conflict engine needs materialised granules; "
                "transaction {} has none".format(txn.tid)
            )
        mode = LockMode.X if txn.is_writer else LockMode.S
        blocker = self.manager.try_acquire_all(
            txn, [(granule, mode) for granule in txn.granules]
        )
        if blocker is None:
            self._active[txn.tid] = txn
            return None
        return blocker

    def mark_active(self, txn):
        """Record *txn* as active (incremental protocol entry point).

        The incremental protocol acquires granules one at a time
        through :attr:`manager` directly, so it registers the
        transaction here once its lock set is complete.
        """
        self._active[txn.tid] = txn

    def release(self, txn):
        """Release every lock *txn* holds."""
        self._active.pop(txn.tid, None)
        self.manager.release_all(txn)


def make_conflict_engine(params, rng):
    """Build the conflict engine described by *params* (via the registry)."""
    from repro.policies import resolve

    return resolve("conflict", params.conflict_engine)(params, rng)
