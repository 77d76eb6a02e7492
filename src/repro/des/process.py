"""Generator-based simulation processes."""

from repro.des.errors import SimulationError
from repro.des.events import URGENT, Event


#: Stored in ``Process._target`` while the process sleeps on a bare
#: delay (``yield 1.5``) instead of a real event; identity-compared.
_TICK = object()


class Process(Event):
    """Wraps a generator so it runs as a simulation process.

    The generator yields :class:`Event` objects; the process suspends
    until each yielded event is processed, then resumes with the event's
    value (or the event's exception thrown in, if it failed).

    A generator may also yield a bare non-negative ``float`` or ``int``
    delay — exactly equivalent to ``yield env.timeout(delay)`` (the
    process resumes with ``None`` after *delay* time units) but with no
    event allocated at all: the kernel schedules the process itself as
    a *tick* entry, and the dispatch loop resumes it through
    :meth:`_resume` like any other wake-up.  The tick entry
    consumes the same event id the equivalent Timeout would have, so
    switching a call site between the two forms leaves the kernel's
    dispatch order (and therefore every simulation result) bit-identical.

    A process is itself an event: it triggers with the generator's
    return value when the generator finishes, so processes can wait on
    one another or race in an :class:`~repro.des.events.AnyOf`.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self._generator = generator
        #: The event this process currently waits on (None if running or
        #: not yet started; :data:`_TICK` during a bare-delay sleep).
        self._target = None
        #: The resume callback is bound once: every yield re-registers
        #: it, and ``self._resume`` would allocate a fresh bound method
        #: per access on the hottest path in the kernel.
        self._resume_cb = self._resume
        env._live_procs += 1
        # Start at the current instant, ahead of ordinary events: the
        # bare callback resumes with no event, i.e. ``send(None)``.
        env.schedule_callback(self._resume_cb, 0, URGENT)

    def __repr__(self):
        return "<Process({}) object at {:#x}>".format(
            getattr(self._generator, "__name__", "?"), id(self)
        )

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event=None):
        """Advance the generator with the outcome of *event*.

        The only code that advances a generator.  *event* is ``None``
        when there is no event to report: the process's start and a
        tick both resume with ``send(None)``.  Only the process's own
        target resumes it, and ``_target`` is cleared here, before the
        generator can finish and push its completion entry.
        """
        self._target = None
        while True:
            try:
                if event is None or event._ok:
                    next_event = self._generator.send(
                        None if event is None else event.value
                    )
                else:
                    event.defuse()
                    next_event = self._generator.throw(event.value)
            except StopIteration as stop:
                self._end(True, stop.value)
                return
            except BaseException as error:
                self._end(False, error)
                return
            cls = next_event.__class__
            if cls is float or cls is int:
                # Bare-delay sleep: schedule the process itself as a
                # tick entry (no event object).  The eid drawn here
                # lands at exactly the point in the id stream where
                # ``env.timeout(delay)`` would have drawn it (inside
                # the yield expression, i.e. still within this resume),
                # so both spellings dispatch identically.
                self.env.schedule_tick(self, next_event)
                return
            if not isinstance(next_event, Event):
                # Fail the process, as if the generator had raised.
                error = "process yielded a non-event: {!r}".format(next_event)
                self._end(False, SimulationError(error))
                return
            if next_event.processed:
                # Already done: loop and feed its value immediately.
                event = next_event
                continue
            next_event.callbacks.append(self._resume_cb)
            self._target = next_event
            return

    def _end(self, ok, value):
        """Finish the process: trigger it with *value* (an error if not *ok*)."""
        self._ok = ok
        self._value = value
        self.env._live_procs -= 1
        self.env.schedule(self, delay=0)
