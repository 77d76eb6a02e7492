"""The simulation environment: clock, event scheduler, and run loop."""

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from types import FunctionType, MethodType
from typing import Dict, Optional

from repro.des.errors import (
    EmptySchedule,
    SimulationError,
    SimulationStalled,
    StopSimulation,
)
from repro.des.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.des.process import _TICK, Process


@dataclass
class KernelStats:
    """Self-profiling snapshot of one environment's run loop.

    ``heap_peak``, ``run_seconds``, ``events_per_second`` and
    ``event_type_counts`` are only populated by
    :class:`ProfiledEnvironment`; the base environment keeps the hot
    path free of that bookkeeping and reports ``None`` for them.
    """

    events_dispatched: int
    heap_length: int
    heap_peak: Optional[int] = None
    run_seconds: Optional[float] = None
    events_per_second: Optional[float] = None
    event_type_counts: Optional[Dict[str, int]] = None

    def as_dict(self):
        """Plain dict with the unpopulated fields omitted.

        Key order is fixed (declaration order) and the event-type
        counts are sorted by type name, so two snapshots of the same
        state serialise identically — the property the perf-regression
        harness relies on when diffing ``BENCH_*.json`` files.
        """
        row = {
            "events_dispatched": self.events_dispatched,
            "heap_length": self.heap_length,
        }
        for name in ("heap_peak", "run_seconds", "events_per_second"):
            value = getattr(self, name)
            if value is not None:
                row[name] = value
        if self.event_type_counts is not None:
            row["event_type_counts"] = dict(
                sorted(self.event_type_counts.items())
            )
        return row


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
        """Events processed by :meth:`run` over this environment's life."""
        return self._dispatched

    @property
    def live_process_count(self):
        """Processes started but not yet finished."""
        return self._live_procs

    @property
    def heap_depth(self):
        """Events currently scheduled on the heap (cheap)."""
        return len(self._heap)

    def kernel_stats(self):
        """Current :class:`KernelStats` snapshot (cheap counters only)."""
        return KernelStats(
            events_dispatched=self._dispatched,
            heap_length=self.heap_depth,
        )

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

    def _tick(self, proc, eid):
        """Resume a tick entry (slow path shared by :meth:`step`).

        Mirrors the handling inlined in :meth:`_dispatch`: advance the
        generator, then either requeue the next bare delay or hand any
        other yield to :meth:`Process._resume`.
        """
        if proc._tick_eid != eid:
            return  # stale: an interrupt already resumed the process
        try:
            delay = proc._generator.send(None)
        except StopIteration as stop:
            proc._finish_stop(stop)
        except BaseException as error:
            proc._finish_error(error)
        else:
            cls = delay.__class__
            if cls is float or cls is int:
                self.schedule_tick(proc, delay)
            else:
                proc._resume(None, delay)

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
        cls = event.__class__
        if cls is FunctionType or cls is MethodType:
            event()  # a bare callback, not an Event
            return
        if cls is Process and event._target is _TICK:
            self._tick(event, eid)
            return
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _dispatch(self, stop_at, timeout):
        """The hot loop: pop-and-dispatch until *stop_at* is passed.

        This is :meth:`step` inlined (no per-event method call), with
        the bare-callback, tick and single-waiter fast paths folded in.
        Each entry is told apart by its class, read once: bare
        callbacks (most entries in a model run) are tested first, so
        they cost two identity checks and no exception.  The dispatch
        count lives in a local and is folded into the instance counter
        once on exit.
        """
        heap = self._heap
        nexteid = self._eid.__next__
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
                elif cls is Process and event._target is _TICK:
                    # Tick fast path: the process sleeps on a bare
                    # delay, so resume the generator directly — no
                    # event object, no callback list.
                    if event._tick_eid == eid:
                        try:
                            delay = event._generator.send(None)
                        except StopIteration as stop:
                            event._finish_stop(stop)
                        except BaseException as error:
                            event._finish_error(error)
                        else:
                            dcls = delay.__class__
                            if dcls is float or dcls is int:
                                if delay < 0:
                                    raise ValueError(
                                        "negative delay {}".format(delay)
                                    )
                                eid = nexteid()
                                event._tick_eid = eid
                                heappush(
                                    heap, (when + delay, NORMAL, eid, event)
                                )
                            else:
                                event._resume(None, delay)
                    # else: stale tick — an interrupt resumed the
                    # process first; the entry is dropped silently.
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        waiter(event)
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                if deadline is not None and not dispatched & 1023:
                    # The wall-clock guard is checked once every 1024
                    # events so the budget costs one masked compare
                    # per event instead of a perf_counter() syscall.
                    if perf_counter() >= deadline:
                        raise SimulationStalled(
                            "wall-clock timeout ({}s) exhausted at "
                            "t={}".format(timeout, self._now),
                            stats=KernelStats(
                                events_dispatched=self._dispatched
                                + dispatched,
                                heap_length=len(heap),
                            ),
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
            carrying a :class:`KernelStats` snapshot.  ``None`` (the
            default) keeps the hot loop entirely guard-free.

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
                    stats=self.kernel_stats(),
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

    def all_of(self, events):
        """Join: event that succeeds when all of *events* succeed."""
        return AllOf(self, events)

    def any_of(self, events):
        """Race: event that succeeds when any of *events* succeeds."""
        return AnyOf(self, events)


class ProfiledEnvironment(Environment):
    """An :class:`Environment` with full kernel self-profiling.

    On top of the base dispatch counter it tracks the peak heap size,
    wall-clock seconds spent inside :meth:`run` (and therefore
    events/second), and how many events of each type were processed
    (``Timeout``, ``Process``, ``Initialize``, ... — bare callbacks,
    from :meth:`Environment.schedule_callback` or the server's own
    segment completions, are counted as ``Callback``).  That bookkeeping costs a few percent of
    raw event throughput, so it lives in a subclass and the production
    simulation keeps the plain kernel.
    """

    __slots__ = ("_heap_peak", "_type_counts", "_run_seconds")

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._heap_peak = 0
        self._type_counts = Counter()
        self._run_seconds = 0.0

    def step(self):
        """Process the next entry, counting it by event type."""
        try:
            when, _, eid, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        self._now = when
        cls = event.__class__
        if cls is FunctionType or cls is MethodType:
            self._type_counts["Callback"] += 1
            event()
            return
        if cls is Process and event._target is _TICK:
            # Bare-delay sleeps dispatch the process itself; count them
            # under their own label (stale ticks included — they cost a
            # dispatch slot just like an orphaned Timeout would).
            self._type_counts["Tick"] += 1
            self._tick(event, eid)
            return
        self._type_counts[cls.__name__] += 1
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _dispatch(self, stop_at, timeout):
        """Counted loop over :meth:`step` (slower, fully profiled).

        The peak heap population is sampled here rather than at every
        push: entries are only removed by the pop that starts a step,
        so the heap is at its largest before the first step and at the
        end of each one.  That also covers entries pushed straight onto
        the heap without a ``schedule*`` call (the server's segment
        completions).
        """
        heap = self._heap
        step = self.step
        deadline = None if timeout is None else perf_counter() + timeout
        dispatched = 0
        peak = max(self._heap_peak, len(heap))
        try:
            while heap and heap[0][0] <= stop_at:
                step()
                dispatched += 1
                if len(heap) > peak:
                    peak = len(heap)
                if deadline is not None and not dispatched & 1023:
                    if perf_counter() >= deadline:
                        raise SimulationStalled(
                            "wall-clock timeout ({}s) exhausted at "
                            "t={}".format(timeout, self._now),
                            stats=KernelStats(
                                events_dispatched=self._dispatched
                                + dispatched,
                                heap_length=len(heap),
                            ),
                        )
        finally:
            self._dispatched += dispatched
            # A step that raised may still have pushed entries.
            self._heap_peak = max(peak, len(heap))

    def run(self, until=None, timeout=None):
        """Run as the base class does, accumulating wall-clock time."""
        started = perf_counter()
        try:
            return super().run(until, timeout=timeout)
        finally:
            self._run_seconds += perf_counter() - started

    def kernel_stats(self):
        """Full :class:`KernelStats` snapshot."""
        rate = (
            self._dispatched / self._run_seconds if self._run_seconds else None
        )
        return KernelStats(
            events_dispatched=self._dispatched,
            heap_length=len(self._heap),
            heap_peak=max(self._heap_peak, len(self._heap)),
            run_seconds=self._run_seconds,
            events_per_second=rate,
            event_type_counts=dict(self._type_counts),
        )


def _stop_on_event(event):
    raise StopSimulation(event.value)
