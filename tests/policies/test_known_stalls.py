"""Known defects: incremental and wound-wait can stall every transaction.

Both cases run out of events with every transaction parked on a wake-up
that never comes.  They are marked strict ``xfail`` so a fix shows up
as an unexpected pass, and the marker has to go with it.

* Incremental 2PL: the lock queue is FIFO, so a shared request queued
  behind an exclusive waiter waits for that waiter, but the waits-for
  graph only holds edges to conflicting *holders*.  A cycle that closes
  through such a queue-order wait is never detected.
* Wound-wait: a waiter whose request was just granted still counts as
  waiting until its process resumes.  Wounding it in that window
  releases its locks but leaves its wake-up saying "granted", so it
  carries on as if it held them.
"""

import pytest

from repro import LockingGranularityModel, SimulationParameters
from repro.des.errors import SimulationStalled

SCATTERED = dict(
    dbsize=500, ntrans=10, maxtransize=40, npros=4, tmax=150.0,
    conflict_engine="explicit", placement="worst", seed=1,
)


@pytest.mark.xfail(raises=SimulationStalled, strict=True)
def test_incremental_detects_cycles_through_queue_order():
    params = SimulationParameters(
        **SCATTERED, protocol="incremental", ltot=100, write_fraction=0.5
    )
    LockingGranularityModel(params).run()


@pytest.mark.xfail(raises=SimulationStalled, strict=True)
def test_wound_wait_never_stalls():
    params = SimulationParameters(**SCATTERED, protocol="wound-wait", ltot=50)
    LockingGranularityModel(params).run()
