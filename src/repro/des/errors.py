"""Exception types used by the simulation kernel."""


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event.

    ``Environment.run(until=event)`` attaches a callback to *event* that
    raises this exception; the run loop catches it and returns the
    event's value.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EmptySchedule(SimulationError):
    """Raised when the event heap runs dry before the run target."""


class SimulationStalled(SimulationError):
    """The run loop stopped making progress before reaching ``until``.

    Raised by :meth:`Environment.run` in two situations:

    * the event heap ran dry before the requested simulation time while
      processes were still alive (every live process is waiting on an
      event that nothing will ever trigger — a modelling deadlock that
      previously returned silently);
    * the optional ``timeout=`` wall-clock budget was exhausted (a hung
      or pathologically slow run).

    Carries the kernel's counters in :attr:`stats`, a dict with the
    keys ``events_dispatched`` and ``heap_length``, so the failure is
    diagnosable post-mortem.
    """

    def __init__(self, message, stats=None):
        if stats is not None:
            message = "{} [kernel: {}]".format(message, stats)
        super().__init__(message)
        self.stats = stats

