"""A single service station with preemptive-resume priority service.

The paper's machine model charges lock-management work to the same CPU
and disk that serve transactions, *with preemptive power over running
transactions*, and reports the busy time split into lock overhead and
useful (transaction) work.  :class:`Server` provides exactly that:

* one unit of service capacity;
* jobs submitted with a numeric priority (lower number = more urgent);
* a higher-priority arrival preempts the job in service, which later
  resumes with its remaining demand (preemptive-resume);
* waiting jobs are ordered FCFS within a priority level (or
  shortest-remaining-first with the ``"sjf"`` discipline);
* busy time is accumulated per caller-supplied *tag*, so the model can
  separate ``"lock"`` from ``"txn"`` work on each device;
* :meth:`Server.hold` lets work queued elsewhere take the whole server
  (preempting its own job, queueing new submissions) until
  :meth:`Server.release`.  A server attached to such a *lane* reports
  the lane's busy time and queue as its own.
"""

import heapq
from collections import defaultdict
from itertools import count

from repro.des.errors import SimulationError
from repro.des.events import NORMAL, Event

#: Tolerance when deciding that a preempted job had actually finished.
_EPSILON = 1e-12

#: Supported queueing disciplines for waiting jobs.
DISCIPLINES = ("fcfs", "sjf")


class _Job:
    __slots__ = (
        "demand", "remaining", "priority", "tag", "seq", "done", "arrival",
        "key",
    )

    def __init__(self, demand, priority, tag, seq, done, arrival):
        self.demand = demand
        self.remaining = demand
        self.priority = priority
        self.tag = tag
        self.seq = seq
        self.done = done
        self.arrival = arrival
        # The FCFS ordering key never changes over the job's lifetime,
        # so it is built once here instead of on every heap push (a
        # preempted job re-enters the heap with the same key).  The
        # SJF key orders on the mutable ``remaining`` and must be
        # rebuilt per push.
        self.key = (priority, seq)


class Server:
    """A preemptive-resume priority queueing station of capacity one.

    Parameters
    ----------
    env:
        Owning environment.
    name:
        Label used in diagnostics.
    discipline:
        ``"fcfs"`` (default) or ``"sjf"`` (shortest remaining demand
        first, within a priority level).
    """

    def __init__(self, env, name="server", discipline="fcfs"):
        if discipline not in DISCIPLINES:
            raise ValueError(
                "unknown discipline {!r}; expected one of {}".format(
                    discipline, DISCIPLINES
                )
            )
        self.env = env
        self.name = name
        self.discipline = discipline
        # The discipline string is resolved to a key function once;
        # comparing it on every enqueue would put a string compare on
        # the submit/preempt hot path.
        self._key = self._sjf_key if discipline == "sjf" else self._fcfs_key
        self._heap = []
        self._seq = count()
        self._current = None
        self._segment_start = 0.0
        self._token = 0
        self._busy = defaultdict(float)
        self._served = defaultdict(int)
        self._demand_total = defaultdict(float)
        self._scale = 1.0
        self._held = False
        self._lane = None

    def __repr__(self):
        return "<Server {!r} queue={} busy={}>".format(
            self.name, self.queue_length, self.busy
        )

    # -- public API ------------------------------------------------------

    def submit(self, demand, priority=0, tag="default", done=None):
        """Request *demand* units of service; returns the done target.

        Parameters
        ----------
        demand:
            Non-negative service requirement in time units.
        priority:
            Lower numbers are served first and preempt higher numbers.
        tag:
            Accounting bucket for the busy time this job consumes.
        done:
            Completion target: any object with ``succeed()`` and
            ``fail(exception)``.  The server calls exactly one of them,
            at the point where it would trigger the done event.  The
            default is a fresh :class:`~repro.des.events.Event`.
        """
        if demand < 0:
            raise ValueError("negative service demand {}".format(demand))
        if self._scale != 1.0:
            # Transient degradation window (fault injection): inflate
            # the service requirement of jobs submitted inside it.
            demand = demand * self._scale
        if done is None:
            done = Event(self.env)
        job = _Job(demand, priority, tag, next(self._seq), done, self.env._now)
        self._demand_total[tag] += demand
        current = self._current
        if current is not None:
            if job.priority < current.priority:
                self._preempt()
                self._start(job)
            else:
                heapq.heappush(self._heap, (self._key(job), job))
        elif self._held:
            heapq.heappush(self._heap, (self._key(job), job))
        else:
            self._start(job)
        return done

    @property
    def busy(self):
        """True while a job is in service or the server is held."""
        return self._current is not None or self._held

    @property
    def queue_length(self):
        """Number of jobs waiting (not counting the one in service).

        Jobs waiting in an attached lane count too: they are waiting
        for this server as much as for every other member of the lane.
        """
        if self._lane is not None:
            return len(self._heap) + len(self._lane.queue)
        return len(self._heap)

    def busy_time(self, tag=None):
        """Accumulated busy time, for one *tag* or in total.

        Includes the partially-delivered service of the job currently
        on the server, so snapshots taken mid-run are exact.  An
        attached lane's busy time counts under the lane's tag.
        """
        lane = self._lane
        if tag is None:
            total = sum(self._busy.values())
            if lane is not None:
                total += lane.busy
        else:
            total = self._busy.get(tag, 0.0)
            if lane is not None and lane.tag == tag:
                total += lane.busy
        if self._held:
            if lane is not None and (tag is None or lane.tag == tag):
                total += self.env.now - lane.start
        elif self._current is not None and (
            tag is None or self._current.tag == tag
        ):
            total += self.env.now - self._segment_start
        return total

    def jobs_served(self, tag=None):
        """Number of completed jobs, for one *tag* or in total."""
        lane = self._lane
        if tag is None:
            total = sum(self._served.values())
        else:
            total = self._served.get(tag, 0)
        if lane is not None and (tag is None or lane.tag == tag):
            total += lane.served
        return total

    def demand_submitted(self, tag=None):
        """Total service demand submitted, for one *tag* or in total."""
        lane = self._lane
        if tag is None:
            total = sum(self._demand_total.values())
        else:
            total = self._demand_total.get(tag, 0.0)
        if lane is not None and (tag is None or lane.tag == tag):
            total += lane.demand
        return total

    # -- lanes -----------------------------------------------------------

    def hold(self):
        """Give the whole server to work served elsewhere (a lane).

        The job in service is preempted exactly as a higher-priority
        arrival would preempt it, and later resumes with its remaining
        demand; jobs submitted while held wait in the queue.  A job
        whose remaining demand is used up at this very instant
        finishes instead of re-queueing.
        """
        if self._held:
            raise SimulationError("server {!r} is already held".format(self.name))
        self._held = True
        if self._current is not None:
            self._preempt()

    def release(self):
        """End a :meth:`hold`: resume serving the queued jobs."""
        if not self._held:
            raise SimulationError("server {!r} is not held".format(self.name))
        self._held = False
        self._dispatch_next()

    def attach(self, lane):
        """Report *lane*'s accounting as part of this server's own.

        *lane* needs ``tag``, ``busy`` (busy time credited so far, one
        job at a time), ``start`` (start of the job in service, read
        while this server is held), ``served``, ``demand`` and
        ``queue`` (the jobs waiting in the lane).
        """
        if self._lane is not None:
            raise SimulationError("server {!r} already has a lane".format(self.name))
        self._lane = lane

    def detach(self):
        """Fold the idle attached lane's totals into this server's own.

        Busy time, job and demand counts continue from the lane's
        values, so later jobs on this server accumulate exactly as if
        they had all been served here.
        """
        lane = self._lane
        if lane is None:
            return
        if self._held or lane.queue:
            raise SimulationError(
                "cannot detach server {!r} from a busy lane".format(self.name)
            )
        if lane.busy > 0:
            self._busy[lane.tag] = self._busy.get(lane.tag, 0.0) + lane.busy
        if lane.served:
            self._served[lane.tag] = self._served.get(lane.tag, 0) + lane.served
        if lane.demand:
            self._demand_total[lane.tag] += lane.demand
        self._lane = None

    @property
    def scale(self):
        """Current service-time inflation factor (1.0 = nominal)."""
        return self._scale

    def set_scale(self, factor):
        """Set the inflation factor applied to future submissions.

        Only jobs submitted while the factor is in force are inflated;
        jobs already queued or in service keep their original demand.
        A server attached to a lane refuses: the lane's work would not
        be inflated, so this server would silently diverge from it.
        """
        if self._lane is not None:
            raise SimulationError(
                "server {!r} shares a lane; detach it before scaling".format(
                    self.name
                )
            )
        if factor <= 0:
            raise ValueError("scale factor must be > 0, got {}".format(factor))
        self._scale = float(factor)

    def fail_all(self, exception):
        """Kill the job in service and every queued job (a crash).

        Each killed job's done target fails with *exception*, so waiting
        processes receive it at their yield point.  Busy time already
        delivered to the in-service job stays credited (the device was
        genuinely busy until the instant of the crash).  Returns the
        number of jobs killed.  A server attached to a lane refuses,
        since the lane would go on serving the dead server's share.
        """
        if self._lane is not None:
            raise SimulationError(
                "server {!r} shares a lane; detach it before failing it".format(
                    self.name
                )
            )
        killed = 0
        if self._current is not None:
            job = self._current
            self._credit(job.tag, self.env.now - self._segment_start)
            self._token += 1  # invalidate the scheduled completion
            self._current = None
            job.done.fail(exception)
            killed += 1
        while self._heap:
            _, job = heapq.heappop(self._heap)
            job.done.fail(exception)
            killed += 1
        return killed

    # -- internals -------------------------------------------------------

    @staticmethod
    def _fcfs_key(job):
        return job.key

    @staticmethod
    def _sjf_key(job):
        return (job.priority, job.remaining, job.seq)

    def _start(self, job):
        env = self.env
        now = env._now
        self._current = job
        self._segment_start = now
        self._token += 1
        # Per-segment completions are the server's hottest allocation
        # site (every preemption reschedules one); a bare callback
        # puts a single closure on the heap instead of an Event and
        # its callback list.  The captured token keeps the
        # stale-completion guard: a preemption or crash bumps
        # self._token, and the out-of-date callback is ignored by
        # _on_complete when it eventually fires.  The entry is pushed
        # here exactly as Environment.schedule_callback would push it
        # (same time, priority and eid), without that call's frame and
        # checks: a job's remaining demand is never negative.
        heapq.heappush(
            env._heap,
            (
                now + job.remaining,
                NORMAL,
                next(env._eid),
                lambda t=self._token: self._on_complete(t),
            ),
        )

    def _preempt(self):
        job = self._current
        elapsed = self.env._now - self._segment_start
        self._credit(job.tag, elapsed)
        job.remaining -= elapsed
        self._token += 1  # invalidate the scheduled completion
        self._current = None
        if job.remaining <= _EPSILON:
            # The job had in fact finished at this very instant; its
            # completion event lost the same-time race with the
            # preemptor.  Finish it now rather than re-queueing it.
            job.remaining = 0.0
            self._finish(job)
        else:
            heapq.heappush(self._heap, (self._key(job), job))

    def _on_complete(self, token):
        if token != self._token or self._current is None:
            return  # stale completion from before a preemption
        job = self._current
        self._credit(job.tag, self.env._now - self._segment_start)
        self._current = None
        self._finish(job)
        self._dispatch_next()

    def _finish(self, job):
        self._served[job.tag] = self._served.get(job.tag, 0) + 1
        job.done.succeed()

    def _dispatch_next(self):
        if self._current is None and self._heap:
            _, job = heapq.heappop(self._heap)
            self._start(job)

    def _credit(self, tag, amount):
        if amount > 0:
            self._busy[tag] = self._busy.get(tag, 0.0) + amount
