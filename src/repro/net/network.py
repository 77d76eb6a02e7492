"""Message-passing network model over the DES kernel.

The distributed cluster model (see DESIGN.md §12) exchanges
point-to-point messages between logical *sites*.  This module supplies
the transport: a :class:`Network` that delivers messages after a
seeded latency (base one-way latency, optional uniform jitter, plus
any per-link or global extra delay), using the kernel's zero-allocation
:meth:`~repro.des.engine.Environment.schedule_callback` path, and a
:class:`Partition` state that the fault injector can flip to cut the
cluster into disconnected components.

Delivery semantics are deliberately simple and deterministic:

- A message to an unreachable destination (other side of a partition,
  or either endpoint marked crashed) is **dropped at send time** and
  counted; there is no in-flight re-check, so a partition that starts
  after a send does not retroactively destroy the message.
- A dropped message invokes no handler — protocols detect loss with
  their own timeouts, exactly as a real coordinator would.
- All latency randomness comes from one injected ``rng`` (the model's
  ``"net"`` stream), so a (params, seed) pair fully determines every
  delivery time.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Message:
    """One point-to-point message (immutable envelope)."""

    src: int
    dst: int
    kind: str
    payload: dict = field(default_factory=dict)
    sent_at: float = 0.0


class Partition:
    """A split of the cluster's sites into disconnected groups.

    Two sites can talk iff they are in the same group.  A site missing
    from every group is completely isolated (reachable only from
    itself) — this doubles as the "crashed node" state.
    """

    def __init__(self, groups):
        groups = tuple(frozenset(group) for group in groups)
        if len(groups) < 1 or any(not group for group in groups):
            raise ValueError("groups must be non-empty site sets")
        seen = set()
        for group in groups:
            if group & seen:
                raise ValueError("groups must be disjoint, got {!r}".format(groups))
            seen |= group
        self.groups = groups

    def component(self, site):
        """The group containing *site* (singleton when unlisted)."""
        for group in self.groups:
            if site in group:
                return group
        return frozenset((site,))

    def reachable(self, a, b):
        """True when *a* and *b* are in the same group."""
        return a == b or (a in self.component(b))

    def majority(self, nnodes):
        """The strict-majority group, or ``None`` when no group has one."""
        for group in self.groups:
            if 2 * len(group) > nnodes:
                return group
        return None

    def __repr__(self):
        return "Partition({})".format(
            " | ".join(
                "{{{}}}".format(",".join(map(str, sorted(g)))) for g in self.groups
            )
        )


class Link:
    """Mutable per-link state: extra one-way delay (fault windows)."""

    __slots__ = ("extra",)

    def __init__(self, extra=0.0):
        self.extra = float(extra)


class Network:
    """Seeded message transport between ``nnodes`` cluster sites.

    Parameters
    ----------
    env:
        The simulation :class:`~repro.des.engine.Environment`.
    nnodes:
        Number of sites (>= 1); sites are the ids ``0 .. nnodes-1``.
    latency:
        Base one-way delay for every link.
    jitter:
        Upper bound of a uniform extra delay drawn per delivered
        message (``0`` draws nothing, keeping the stream untouched).
    rng:
        Seeded ``random.Random`` for jitter draws (the ``"net"``
        stream); may be ``None`` when ``jitter == 0``.
    """

    def __init__(self, env, nnodes, latency=0.0, jitter=0.0, rng=None):
        if nnodes < 1:
            raise ValueError("nnodes must be >= 1, got {}".format(nnodes))
        if latency < 0 or jitter < 0:
            raise ValueError(
                "latency and jitter must be >= 0, got latency={} jitter={}".format(
                    latency, jitter
                )
            )
        if jitter > 0 and rng is None:
            raise ValueError("jitter > 0 needs an rng")
        self.env = env
        self.nnodes = nnodes
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.rng = rng
        self.partition_state = None
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Optional callable ``observer(kind, delivered)`` told of every
        #: send (the run's probe when live metrics are on).
        self.observer = None
        #: Optional callbacks the Cluster hooks for availability accounting.
        self.on_partition = None
        self.on_heal = None
        self._links = {}
        self._global_extra = 0.0

    # -- topology -----------------------------------------------------

    @staticmethod
    def _key(a, b):
        return (a, b) if a <= b else (b, a)

    def link(self, a, b):
        """The (symmetric) link record between sites *a* and *b*."""
        key = self._key(a, b)
        record = self._links.get(key)
        if record is None:
            record = self._links[key] = Link()
        return record

    def set_link_delay(self, a, b, extra):
        """Set the extra one-way delay on one link (0 clears it)."""
        self.link(a, b).extra = float(extra)

    def set_global_delay(self, extra):
        """Set an extra one-way delay applied to every link."""
        self._global_extra = float(extra)

    def delay(self, a, b):
        """One delivery delay draw for a message from *a* to *b*."""
        total = self.latency + self._global_extra
        record = self._links.get(self._key(a, b))
        if record is not None:
            total += record.extra
        if self.jitter > 0.0:
            total += self.rng.uniform(0.0, self.jitter)
        return total

    # -- partition state ----------------------------------------------

    def reachable(self, a, b):
        """True when a message from *a* can currently reach *b*."""
        if self.partition_state is None:
            return True
        return self.partition_state.reachable(a, b)

    def partition(self, groups):
        """Install a partition (replacing any existing one)."""
        state = groups if isinstance(groups, Partition) else Partition(groups)
        self.partition_state = state
        if self.on_partition is not None:
            self.on_partition(state)
        return state

    def heal(self):
        """Remove the current partition, reconnecting every site."""
        self.partition_state = None
        if self.on_heal is not None:
            self.on_heal()

    # -- transport ----------------------------------------------------

    def send(self, src, dst, kind, payload=None, handler=None):
        """Send one message; returns True when it will be delivered.

        Reachable destinations get the message after :meth:`delay`
        time units via ``schedule_callback`` (zero Event allocations);
        *handler* (if any) is then called with the :class:`Message`.
        Unreachable destinations drop the message at send time.
        """
        delivered = self.reachable(src, dst)
        self.messages_sent += 1
        if self.observer is not None:
            self.observer(kind, delivered)
        if not delivered:
            self.messages_dropped += 1
            return False
        if handler is not None:
            message = Message(src, dst, kind, payload or {}, self.env.now)
            self.env.schedule_callback(
                lambda: handler(message), self.delay(src, dst)
            )
        elif self.jitter > 0.0:
            # Fire-and-forget still consumes its jitter draw so the
            # stream advances identically whether or not anyone listens.
            self.delay(src, dst)
        return True
