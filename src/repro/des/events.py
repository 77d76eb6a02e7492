"""Core event types for the simulation kernel.

An :class:`Event` moves through three states:

``pending``
    Created but not yet triggered; it holds no value.
``triggered``
    :meth:`Event.succeed` or :meth:`Event.fail` was called; the event is
    on the environment's heap and will be processed at its scheduled
    time.
``processed``
    The environment popped the event and ran its callbacks.

Processes synchronise by yielding events; the kernel resumes the
process when the yielded event is processed.
"""

from repro.des.errors import SimulationError

#: Sentinel for "no value yet"; distinguishes a pending event from one
#: that succeeded with ``None``.
PENDING = object()

#: Default scheduling priority.  Events scheduled at the same time are
#: processed in (priority, insertion order).  Urgent entries (a
#: process's start, an interrupt) use :data:`URGENT` so they run before
#: ordinary events at the same instant.
NORMAL = 1
URGENT = 0


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The :class:`~repro.des.engine.Environment` the event belongs to.
    """

    # Events are allocated by the million on the simulation hot path;
    # __slots__ drops the per-instance dict (smaller, faster attribute
    # access).  Subclasses must declare their own __slots__ too.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with this event when it is processed.  Set
        #: to ``None`` once processed; appending afterwards is an error.
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False

    def __repr__(self):
        return "<{} object at {:#x}>".format(type(self).__name__, id(self))

    @property
    def triggered(self):
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded; only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self):
        """The success value or failure exception of the event."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        """Trigger the event as successful with an optional *value*."""
        if self.triggered:
            raise SimulationError("event {!r} already triggered".format(self))
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def fail(self, exception, priority=NORMAL):
        """Trigger the event as failed with *exception*.

        Waiting processes receive the exception at their yield point.
        A failed event nobody waits on raises at the end of the step
        unless :meth:`defused` is set.
        """
        if self.triggered:
            raise SimulationError("event {!r} already triggered".format(self))
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception, got {!r}".format(exception))
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def defuse(self):
        """Mark a failed event as handled so it does not escalate."""
        self._defused = True


class Timeout(Event):
    """An event that triggers *delay* time units after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env, delay, value=None):
        # The delay check is left to Environment.schedule.
        super().__init__(env)
        self._ok = True
        self._value = value
        self._delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self):
        return "<Timeout({}) object at {:#x}>".format(self._delay, id(self))


class AnyOf(Event):
    """A race: succeeds as soon as any child event succeeds.

    Its value lists the values of the children that succeeded by then,
    in child order.  A failing child fails the race (the child's
    exception propagates) unless the race already triggered.
    """

    __slots__ = ("_events",)

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event):
        if not event.ok:
            # Defuse even when the race already triggered: a child
            # failing after it was decided must not escalate out of
            # the run loop.
            event.defuse()
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        # A Timeout is triggered (has a value) from creation, but it
        # has not happened until processed: only processed children
        # count, so the value holds exactly the events that fired by
        # the time the race did.
        self.succeed([e.value for e in self._events if e.processed and e.ok])


class Join:
    """A countdown join: one completion target for *pending* jobs.

    Each job reports once through :meth:`succeed` or :meth:`fail`, as a
    :class:`~repro.des.server.Server` reports to a job's ``done``
    target.  :attr:`event` succeeds with :attr:`value` when the last
    job succeeds (at once when *pending* is 0), or fails with the first
    exception; later reports are ignored.  No event exists per job, so
    :attr:`event` is scheduled by the report that completes it.
    """

    __slots__ = ("event", "pending", "value")

    def __init__(self, env, pending, value=None):
        self.event = Event(env)
        self.pending = pending
        self.value = value
        if not pending:
            self.event.succeed(value)

    def succeed(self):
        """Report one job done; the last one succeeds :attr:`event`."""
        self.pending -= 1
        if not self.pending and not self.event.triggered:
            self.event.succeed(self.value)

    def fail(self, exception):
        """Report a failed job: :attr:`event` fails unless decided."""
        if not self.event.triggered:
            self.event.fail(exception)
