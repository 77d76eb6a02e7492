"""The shared-nothing machine model.

A :class:`Machine` is ``npros`` :class:`Processor` nodes, each owning a
private CPU server and a private disk server (shared-nothing: no
memory or disk is shared between nodes).  Lock-management work is
fanned out evenly across every node at preemptive priority, matching
the paper's assumptions that "processors share the work for [the]
locking mechanism" and that "the locking mechanism has preemptive
power over running transactions for I/O and CPU resources".
"""

from repro.engine.machine import Machine
from repro.engine.processor import LOCK_PRIORITY, TXN_PRIORITY, Processor
from repro.policies.admission import (
    AdaptiveAdmission,
    FCFSAdmission,
    SmallestFirstAdmission,
    make_admission_policy,
)

__all__ = [
    "AdaptiveAdmission",
    "FCFSAdmission",
    "LOCK_PRIORITY",
    "Machine",
    "Processor",
    "SmallestFirstAdmission",
    "TXN_PRIORITY",
    "make_admission_policy",
]
