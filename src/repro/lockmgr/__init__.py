"""An explicit lock-manager substrate.

The paper models lock conflicts *probabilistically* (the
Ries–Stonebraker interval model, see :mod:`repro.core.conflict`).  This
package implements the real thing — a lock table with modes (the
intention modes included, for multi-granularity locking), wait
queues, preclaim and incremental (2PL) protocols, and waits-for
deadlock detection — so the
probabilistic model can be validated against an explicit
implementation, and so the library is usable as a standalone locking
component.

Layers
------
:mod:`repro.lockmgr.modes`
    Lock modes (S, X and the intention modes IS, IX, SIX) and their
    compatibility matrix.
:mod:`repro.lockmgr.table`
    The lock table proper: one dict from granule to a light
    ``(owner, mode, seq)`` entry while one owner holds it, replaced in
    place by holder sets with a FIFO wait queue once a second request
    reaches the granule.  One run loop grants each stretch of a
    request's granules that is free to the owner, shared ones included.
:mod:`repro.lockmgr.manager`
    :class:`LockManager` — preclaim (all-or-nothing) and incremental
    acquisition protocols over the table, with callback-based grants so
    it stays independent of any particular simulation kernel.
:mod:`repro.lockmgr.deadlock`
    :class:`DeadlockDetector`: one depth-first cycle search over the
    manager's waits-for edges (stdlib only), and victim choice.
"""

from repro.lockmgr.deadlock import DeadlockDetector
from repro.lockmgr.manager import LockManager, LockRequest, RequestStatus
from repro.lockmgr.modes import COMPATIBILITY, LockMode, compatible, supremum
from repro.lockmgr.table import LockTable

__all__ = [
    "COMPATIBILITY",
    "DeadlockDetector",
    "LockManager",
    "LockMode",
    "LockRequest",
    "LockTable",
    "RequestStatus",
    "compatible",
    "supremum",
]
