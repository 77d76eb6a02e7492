"""A process-oriented discrete-event simulation kernel.

This package is the simulation substrate for the locking-granularity
study.  It provides the same programming model as SimPy (which is not
available in this offline environment): an :class:`Environment` drives an
event heap, generator functions become :class:`Process` instances, and
processes synchronise by yielding :class:`Event` objects such as
:class:`Timeout`, an :class:`AnyOf` race or the event of a
:class:`Join` (a countdown over the jobs of a fork).

The kernel adds one component that SimPy does not ship directly: a
single-capacity :class:`Server` with preemptive-resume priority service
and per-tag busy-time accounting.  The paper's model charges lock
management work to the same CPUs and disks that serve transactions, at
preemptive priority, and needs the busy time split into "lock" and
"transaction" shares; :class:`Server` implements exactly that.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4)
>>> log
[('fast', 1.0), ('slow', 2.0), ('fast', 2.0), ('fast', 3.0), ('slow', 4.0), ('fast', 4.0)]
"""

from repro.des.engine import Environment
from repro.des.errors import SimulationError, StopSimulation
from repro.des.events import AnyOf, Event, Join, Timeout
from repro.des.monitor import Tally, TimeWeighted
from repro.des.process import Process
from repro.des.rng import RandomStreams
from repro.des.server import Server
from repro.des.trace import Trace, TraceRecord

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Join",
    "Process",
    "RandomStreams",
    "Server",
    "SimulationError",
    "StopSimulation",
    "Tally",
    "Timeout",
    "TimeWeighted",
    "Trace",
    "TraceRecord",
]
