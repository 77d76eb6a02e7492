"""The multiprocessor: processor array plus the shared lock work.

"Processors share the work for [the] locking mechanism": every lock
request is split evenly over the up nodes and served on each node's
CPU and disk at preemptive priority.  While every node is up and at
nominal speed those per-node lock queues are identical, so the machine
simulates them once per device type, on a *lock lane* that holds all
nodes' servers of that type while it has work.  A fault that makes the
nodes differ switches the machine to serving each node's share on the
node itself (:meth:`Machine.split_lock_work`).
"""

from heapq import heappop, heappush
from itertools import count

from repro.des.errors import SimulationError
from repro.des.events import Join
from repro.engine.processor import LOCK_TAG, TXN_TAG, Processor


class BusySnapshot:
    """Busy-time totals of the whole machine at one instant.

    Fields follow the paper's output-parameter names: ``totcpus`` /
    ``totios`` are total busy time summed over all CPUs / disks;
    ``lockcpus`` / ``lockios`` are the lock-management shares.
    """

    __slots__ = ("totcpus", "totios", "lockcpus", "lockios")

    def __init__(self, totcpus, totios, lockcpus, lockios):
        self.totcpus = totcpus
        self.totios = totios
        self.lockcpus = lockcpus
        self.lockios = lockios

    def minus(self, other):
        """Componentwise difference (for warmup-window accounting)."""
        return BusySnapshot(
            self.totcpus - other.totcpus,
            self.totios - other.totios,
            self.lockcpus - other.lockcpus,
            self.lockios - other.lockios,
        )


class _LockLane:
    """The lock-work queue of one device type, shared by every node.

    Jobs are ``(share, request)`` pairs served one at a time, FCFS or
    shortest-share-first like the node servers; the request is the
    :class:`~repro.des.events.Join` the share reports to.  While a job
    is in service the lane holds every member server.  ``busy`` is
    credited one job at a time exactly as a
    :class:`~repro.des.server.Server` credits its own jobs, so each
    member's lock busy time is the float a node serving its own copy
    of the queue would have accumulated.
    """

    __slots__ = (
        "servers", "tag", "queue", "current", "start", "busy", "served",
        "demand", "on_done", "_seq", "_sjf",
    )

    def __init__(self, servers, discipline):
        self.servers = servers
        self.tag = LOCK_TAG
        self.queue = []
        self.current = None
        self.start = 0.0
        self.busy = 0.0
        self.served = 0
        self.demand = 0.0
        #: Completion callback of the job in service (set by Machine).
        self.on_done = None
        self._seq = count()
        self._sjf = discipline == "sjf"
        for server in servers:
            server.attach(self)

    def offer(self, job):
        """Take a job; True if it went straight into service."""
        self.demand += job[0]
        if self.current is None:
            self.current = job
            return True
        key = job[0] if self._sjf else 0.0
        heappush(self.queue, (key, next(self._seq), job))
        return False

    def advance(self, now):
        """Finish the job in service at *now* and start the next one.

        Returns the finished job's request; ``current`` is None after
        if the queue was empty.
        """
        request = self.current[1]
        elapsed = now - self.start
        if elapsed > 0:
            self.busy += elapsed
        self.served += 1
        self.current = heappop(self.queue)[2] if self.queue else None
        self.start = now
        return request


class Machine:
    """``npros`` shared-nothing processor nodes.

    Parameters
    ----------
    env:
        Owning environment.
    npros:
        Number of processor nodes.
    discipline:
        Queueing discipline for every CPU/disk server.
    """

    def __init__(self, env, npros, discipline="fcfs"):
        if npros < 1:
            raise ValueError("npros must be >= 1, got {}".format(npros))
        self.env = env
        self.npros = npros
        self.processors = [Processor(env, i, discipline) for i in range(npros)]
        self._down_count = 0
        self._downtime = 0.0
        self._down_since = {}
        self._degraded_time = 0.0
        self._degraded_since = None
        self._lock_scale = 1.0
        disk = _LockLane([p.disk for p in self.processors], discipline)
        cpu = _LockLane([p.cpu for p in self.processors], discipline)
        disk.on_done = lambda: self._lane_done(disk)
        cpu.on_done = lambda: self._lane_done(cpu)
        self._lanes = (disk, cpu)

    def __len__(self):
        return self.npros

    def __getitem__(self, index):
        return self.processors[index]

    # -- fault injection -------------------------------------------------

    @property
    def down_count(self):
        """Number of nodes currently down."""
        return self._down_count

    def crash(self, index):
        """Crash node *index*; returns the number of jobs killed there.

        Lock work is split onto the nodes first (see
        :meth:`split_lock_work`), which raises while a lane is busy.
        """
        self.split_lock_work()
        proc = self.processors[index]
        if not proc.up:
            return 0
        killed = proc.crash()
        self._down_since[index] = self.env.now
        if self._down_count == 0:
            self._degraded_since = self.env.now
        self._down_count += 1
        return killed

    def recover(self, index):
        """Bring node *index* back up."""
        proc = self.processors[index]
        if proc.up:
            return
        proc.recover()
        self._downtime += self.env.now - self._down_since.pop(index)
        self._down_count -= 1
        if self._down_count == 0:
            self._degraded_time += self.env.now - self._degraded_since
            self._degraded_since = None

    def downtime(self, now):
        """Total node-downtime accumulated by *now*, open intervals included.

        Summed over nodes: two nodes down for 5 time units each
        contribute 10.
        """
        total = self._downtime
        for since in self._down_since.values():
            total += now - since
        return total

    def degraded_time(self, now):
        """Time with at least one node down, open interval included."""
        total = self._degraded_time
        if self._degraded_since is not None:
            total += now - self._degraded_since
        return total

    @property
    def lock_scale(self):
        """Current lock-manager service-time inflation (1.0 = nominal)."""
        return self._lock_scale

    def set_lock_scale(self, factor):
        """Inflate future lock-management demands by *factor* (a stall)."""
        if factor <= 0:
            raise ValueError("lock scale must be > 0, got {}".format(factor))
        self._lock_scale = float(factor)

    def set_disk_scale(self, index, factor):
        """Inflate future disk demands on node *index* (a slowdown).

        Lock work is split onto the nodes first (see
        :meth:`split_lock_work`), so the slow disk's lock shares are
        inflated too; this raises while a lane is busy.
        """
        self.split_lock_work()
        self.processors[index].disk.set_scale(factor)

    @property
    def lock_lanes(self):
        """True while lock work is simulated once per device type."""
        return self._lanes is not None

    def split_lock_work(self):
        """Serve each node's lock share on the node itself from now on.

        The lanes are only valid while every node's lock queue is the
        same; a crash or a disk slowdown ends that, so the fault
        injector calls this at install time when its plan has either.
        The lanes' totals are folded into every node, so accounting
        continues seamlessly.  Idempotent; raises
        :class:`~repro.des.errors.SimulationError` while a lane has
        work, because the node-by-node queues cannot be rebuilt
        mid-service.
        """
        if self._lanes is None:
            return
        for lane in self._lanes:
            if lane.current is not None:
                raise SimulationError(
                    "cannot split lock work at t={} while a lock lane is "
                    "busy".format(self.env.now)
                )
        for lane in self._lanes:
            for server in lane.servers:
                server.detach()
        self._lanes = None

    def lock_overhead(self, cpu_total, io_total):
        """Charge one lock request's total processing to the machine.

        The work is divided evenly across every *up* node ("processors
        share the work for [the] locking mechanism") at preemptive
        priority; the returned event fires when the slowest share
        completes.  With all nodes down the request costs nothing — the
        requesting transaction will fail on its own node's servers.
        """
        if cpu_total <= 0 and io_total <= 0:
            return self.env.timeout(0)
        if self._lock_scale != 1.0:
            cpu_total *= self._lock_scale
            io_total *= self._lock_scale
        if self._down_count:
            nodes = [p for p in self.processors if p.up]
            if not nodes:
                return self.env.timeout(0)
        else:
            nodes = self.processors
        cpu_share = cpu_total / len(nodes)
        io_share = io_total / len(nodes)
        shares = (cpu_share > 0) + (io_share > 0)
        if self._lanes is not None:
            request = Join(self.env, shares)
            self._lane_overhead(cpu_share, io_share, request)
        else:
            request = Join(self.env, shares * len(nodes))
            for p in nodes:
                p.lock_work(cpu_share, io_share, request)
        return request.event

    # -- lock lanes ------------------------------------------------------
    #
    # Each method below replays what the node-by-node path does on
    # every node, in the order it does it there, so that same-instant
    # events (preemptions that finish a job, restarted transaction
    # work, the requester's wake-up) keep their relative order.

    def _lane_overhead(self, cpu_share, io_share, request):
        disk, cpu = self._lanes
        has_io = io_share > 0
        has_cpu = cpu_share > 0
        start_disk = has_io and disk.offer((io_share, request))
        start_cpu = has_cpu and cpu.offer((cpu_share, request))
        now = self.env.now
        if start_disk and start_cpu:
            # Node by node, disk before CPU, as the per-node path
            # submits them.
            disk.start = cpu.start = now
            for disk_server, cpu_server in zip(disk.servers, cpu.servers):
                disk_server.hold()
                cpu_server.hold()
            self._schedule_both(io_share, cpu_share)
        elif start_disk or start_cpu:
            lane = disk if start_disk else cpu
            lane.start = now
            for server in lane.servers:
                server.hold()
            self.env.schedule_callback(lane.on_done, lane.current[0])

    def _schedule_both(self, io_share, cpu_share):
        """Schedule both lanes' jobs, started at the same instant.

        On the per-node path their completions interleave node by
        node; when they end at the same instant one callback finishes
        both, in that interleaved order.
        """
        now = self.env.now
        if now + io_share == now + cpu_share:
            self.env.schedule_callback(self._both_done, io_share)
        else:
            disk, cpu = self._lanes
            self.env.schedule_callback(disk.on_done, io_share)
            self.env.schedule_callback(cpu.on_done, cpu_share)

    def _lane_done(self, lane):
        request = lane.advance(self.env.now)
        if lane.current is not None:
            request.succeed()
            self.env.schedule_callback(lane.on_done, lane.current[0])
            return
        servers = lane.servers
        for server in servers[:-1]:
            server.release()
        # The request completes where the last node's share did.
        request.succeed()
        servers[-1].release()

    def _both_done(self):
        now = self.env.now
        disk, cpu = self._lanes
        disk_request = disk.advance(now)
        cpu_request = cpu.advance(now)
        disk_next = disk.current
        cpu_next = cpu.current
        last = self.npros - 1
        for index in range(last):
            if disk_next is None:
                disk.servers[index].release()
            if cpu_next is None:
                cpu.servers[index].release()
        disk_request.succeed()
        if disk_next is None:
            disk.servers[last].release()
        cpu_request.succeed()
        if cpu_next is None:
            cpu.servers[last].release()
        if disk_next is not None and cpu_next is not None:
            self._schedule_both(disk_next[0], cpu_next[0])
        elif disk_next is not None:
            self.env.schedule_callback(disk.on_done, disk_next[0])
        elif cpu_next is not None:
            self.env.schedule_callback(cpu.on_done, cpu_next[0])

    def busy_snapshot(self):
        """Current :class:`BusySnapshot` over all nodes."""
        totcpus = sum(p.cpu.busy_time() for p in self.processors)
        totios = sum(p.disk.busy_time() for p in self.processors)
        lockcpus = sum(p.cpu.busy_time(LOCK_TAG) for p in self.processors)
        lockios = sum(p.disk.busy_time(LOCK_TAG) for p in self.processors)
        return BusySnapshot(totcpus, totios, lockcpus, lockios)

    def txn_busy_totals(self):
        """(cpu, io) busy time spent on transaction work, all nodes."""
        cpu = sum(p.cpu.busy_time(TXN_TAG) for p in self.processors)
        io = sum(p.disk.busy_time(TXN_TAG) for p in self.processors)
        return cpu, io
