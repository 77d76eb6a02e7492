"""One shared-nothing processor node: a private CPU and a private disk."""

from repro.des.events import Event
from repro.des.server import Server

#: Lock-management work preempts transaction work (paper §2).
LOCK_PRIORITY = 0
#: Ordinary transaction service priority.
TXN_PRIORITY = 1

#: Busy-time accounting tags.
LOCK_TAG = "lock"
TXN_TAG = "txn"


class ProcessorDown(Exception):
    """Raised into work waiting on (or submitted to) a crashed node.

    The model treats it as a sub-transaction failure: the parent
    transaction aborts, releases its locks and retries under the
    configured backoff policy.
    """

    def __init__(self, index):
        super().__init__("processor {} is down".format(index))
        self.index = index


class Processor:
    """A node with a CPU server and a disk (I/O) server.

    Parameters
    ----------
    env:
        Owning environment.
    index:
        Node number (0-based), used in server names.
    discipline:
        Queueing discipline for both servers (``fcfs`` or ``sjf``).
    """

    def __init__(self, env, index, discipline="fcfs"):
        self.env = env
        self.index = index
        self.up = True
        self.cpu = Server(env, "cpu{}".format(index), discipline)
        self.disk = Server(env, "disk{}".format(index), discipline)

    def __repr__(self):
        return "<Processor {}{}>".format(self.index, "" if self.up else " DOWN")

    # -- fault injection -------------------------------------------------

    def crash(self):
        """Take the node down, killing all queued and in-service work.

        Every killed job's waiter receives :class:`ProcessorDown`.
        Idempotent; returns the number of jobs killed.
        """
        if not self.up:
            return 0
        self.up = False
        down = ProcessorDown(self.index)
        return self.cpu.fail_all(down) + self.disk.fail_all(down)

    def recover(self):
        """Bring the node back up (it restarts with empty queues)."""
        self.up = True

    def _fail_now(self, done):
        """Fail *done* (a fresh event when ``None``) with
        :class:`ProcessorDown` at the current instant."""
        if done is None:
            done = Event(self.env)
        done.fail(ProcessorDown(self.index))
        return done

    def lock_work(self, cpu_demand, io_demand, done):
        """Submit this node's share of a lock request's processing.

        Both device demands are posted at preemptive priority and run
        concurrently, each reporting to the completion target *done*
        (see :meth:`~repro.des.server.Server.submit`), which is
        returned.  A zero demand is not submitted, so *done* counts
        only the positive ones.
        """
        if io_demand > 0:
            self.disk.submit(io_demand, LOCK_PRIORITY, LOCK_TAG, done)
        if cpu_demand > 0:
            self.cpu.submit(cpu_demand, LOCK_PRIORITY, LOCK_TAG, done)
        return done

    def io(self, demand, done=None):
        """Queue transaction I/O on this node's disk.

        *done* is the completion target passed on to
        :meth:`~repro.des.server.Server.submit` (a fresh event when
        ``None``); a down node fails it at once.
        """
        if not self.up:
            return self._fail_now(done)
        return self.disk.submit(demand, TXN_PRIORITY, TXN_TAG, done)

    def compute(self, demand, done=None):
        """Queue transaction CPU work on this node's processor (*done*
        as for :meth:`io`)."""
        if not self.up:
            return self._fail_now(done)
        return self.cpu.submit(demand, TXN_PRIORITY, TXN_TAG, done)

    # -- accounting ------------------------------------------------------

    def cpu_busy(self, tag=None):
        """CPU busy time (total or for one tag)."""
        return self.cpu.busy_time(tag)

    def io_busy(self, tag=None):
        """Disk busy time (total or for one tag)."""
        return self.disk.busy_time(tag)
