"""The simulation environment: clock, event scheduler, and run loop."""

from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from types import FunctionType, MethodType

from repro.des.errors import (
    EmptySchedule,
    SimulationError,
    SimulationStalled,
    StopSimulation,
)
from repro.des.events import NORMAL, AnyOf, Event, Timeout
from repro.des.process import _TICK, Process


class Environment:
    """Drives a simulation: owns the clock and the scheduled-event queue.

    Events scheduled for the same instant are processed in
    ``(priority, insertion order)``, which makes runs fully
    deterministic for a fixed seed.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    """

    __slots__ = ("_now", "_heap", "_eid", "_dispatched", "_live_procs")

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._heap = []
        self._eid = count()
        self._dispatched = 0
        self._live_procs = 0

    @property
    def now(self):
        """Current simulation time."""
        return self._now

    @property
    def events_dispatched(self):
        """Heap entries processed by :meth:`step` and :meth:`run` so far."""
        return self._dispatched

    @property
    def live_process_count(self):
        """Processes started but not yet finished."""
        return self._live_procs

    @property
    def heap_depth(self):
        """Events currently scheduled on the heap (cheap)."""
        return len(self._heap)

    # -- scheduling ----------------------------------------------------

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Put *event* on the heap to be processed after *delay*.

        *delay* must be non-negative: a direct ``schedule`` (or a bare
        callback) could otherwise move time backwards on the heap,
        which the run loop never checks for.
        """
        if delay < 0:
            raise ValueError("negative delay {}".format(delay))
        heappush(
            self._heap, (self._now + delay, priority, next(self._eid), event)
        )

    def schedule_callback(self, fn, delay=0.0, priority=NORMAL):
        """Schedule a bare callable — no :class:`Event` is allocated.

        *fn* is invoked with no arguments when its heap entry is
        processed.  This is the zero-allocation path for internal
        wakeups that nothing ever waits on (e.g. server completion
        segments): one heap tuple instead of an Event, its callback
        list and a closure per callback.  *fn* must be a plain
        function, a lambda or a bound method: the run loop recognises
        a bare callback by exactly those two classes, so anything else
        (an :class:`Event`, a callable instance, a
        :func:`functools.partial`) raises :class:`TypeError` here
        rather than being dispatched as the wrong kind of entry.
        """
        cls = fn.__class__
        if cls is not FunctionType and cls is not MethodType:
            raise TypeError(
                "schedule_callback needs a function or bound method, "
                "got {}".format(cls.__name__)
            )
        if delay < 0:
            raise ValueError("negative delay {}".format(delay))
        heappush(
            self._heap, (self._now + delay, priority, next(self._eid), fn)
        )

    def schedule_tick(self, proc, delay):
        """Schedule *proc* to resume after *delay* with no event object.

        This is the bare-delay sleep path (``yield 1.5`` inside a
        process): the :class:`Process` itself goes on the queue, tagged
        by ``_tick_eid`` so an interrupt delivered before the tick
        fires leaves a stale entry the dispatcher can recognise and
        drop.  The entry consumes one event id, exactly like the
        equivalent ``env.timeout(delay)`` would.
        """
        if delay < 0:
            raise ValueError("negative delay {}".format(delay))
        eid = next(self._eid)
        proc._target = _TICK
        proc._tick_eid = eid
        heappush(self._heap, (self._now + delay, NORMAL, eid, proc))

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def step(self):
        """Process the next scheduled event (or bare callback).

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            when, _, eid, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        self._now = when
        self._dispatched += 1
        cls = event.__class__
        if cls is FunctionType or cls is MethodType:
            event()  # a bare callback, not an Event
        else:
            self._process(event, cls, eid)

    def _process(self, event, cls, eid):
        """Process one popped entry that is not a bare callback.

        The single copy of the dispatch order for ticks and events,
        shared by :meth:`step` and the hot loop of :meth:`_dispatch`.
        A live tick resumes its sleeping process with no event object;
        any other entry is an :class:`Event`, whose callbacks run in the
        order they were added.
        """
        if cls is Process and eid <= event._tick_eid:
            # A tick entry: a process's own completion entry is pushed
            # after its last tick, so it carries a larger eid.  Only the
            # latest tick of a still-sleeping process is live; the rest
            # are stale (an interrupt already resumed the process).
            if eid == event._tick_eid and event._target is _TICK:
                event._resume()
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _dispatch(self, stop_at, timeout):
        """The hot loop: pop-and-dispatch until *stop_at* is passed.

        Bare callbacks (most entries in a model run) are told apart by
        their class and called inline, at the cost of two identity
        checks; every other entry goes to :meth:`_process`.  The
        dispatch count lives in a local and is folded into the instance
        counter once on exit.
        """
        heap = self._heap
        process = self._process
        deadline = None if timeout is None else perf_counter() + timeout
        dispatched = 0
        try:
            while heap and heap[0][0] <= stop_at:
                when, _, eid, event = heappop(heap)
                self._now = when
                dispatched += 1
                cls = event.__class__
                if cls is FunctionType or cls is MethodType:
                    event()  # a bare callback, not an Event
                else:
                    process(event, cls, eid)
                if deadline is not None and not dispatched & 1023:
                    # The wall-clock guard is checked once every 1024
                    # events so the budget costs one masked compare
                    # per event instead of a perf_counter() syscall.
                    if perf_counter() >= deadline:
                        raise SimulationStalled(
                            "wall-clock timeout ({}s) exhausted at "
                            "t={}".format(timeout, self._now),
                            stats={
                                "events_dispatched": self._dispatched
                                + dispatched,
                                "heap_length": len(heap),
                            },
                        )
        finally:
            self._dispatched += dispatched

    def run(self, until=None, timeout=None):
        """Run until *until* (a time or an event), or until heap empty.

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run up to that time; the clock ends at
          exactly that value.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value.

        Parameters
        ----------
        timeout:
            Optional wall-clock budget in seconds.  When exceeded, the
            run stops with :class:`~repro.des.errors.SimulationStalled`
            carrying the kernel's dispatch count and heap length.
            ``None`` (the default) keeps the hot loop entirely
            guard-free.

        Raises
        ------
        SimulationStalled
            When the wall-clock *timeout* is exhausted, or when *until*
            is a number and the event heap runs dry before that time
            while processes are still alive — every live process is
            then waiting on an event that nothing will ever trigger.
        """
        if until is None:
            stop_at = float("inf")
        elif isinstance(until, Event):
            if until.processed:
                return until.value
            until.callbacks.append(_stop_on_event)
            stop_at = float("inf")
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    "until ({}) is in the past (now={})".format(stop_at, self._now)
                )
        try:
            self._dispatch(stop_at, timeout)
        except StopSimulation as stop:
            return stop.value
        if isinstance(until, Event):
            raise EmptySchedule("ran out of events before {!r}".format(until))
        if stop_at != float("inf"):
            if self.heap_depth == 0 and self._live_procs > 0:
                raise SimulationStalled(
                    "event heap ran dry at t={} before until={} with {} "
                    "live process(es) — every live process is waiting on "
                    "an event that will never trigger".format(
                        self._now, stop_at, self._live_procs
                    ),
                    stats={
                        "events_dispatched": self._dispatched,
                        "heap_length": len(self._heap),
                    },
                )
            self._now = stop_at
        return None

    # -- factories -----------------------------------------------------

    def event(self):
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` firing after *delay*."""
        return Timeout(self, delay, value)

    def process(self, generator):
        """Start *generator* as a :class:`Process` and return it."""
        return Process(self, generator)

    def any_of(self, events):
        """Race: event that succeeds when any of *events* succeeds."""
        return AnyOf(self, events)


def _stop_on_event(event):
    raise StopSimulation(event.value)
