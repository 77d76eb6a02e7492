"""The closed-system locking-granularity simulator (paper §2).

Transaction lifecycle, exactly as Figure 1 of the paper: pending →
lock request → fork into sub-transactions → per-node I/O and CPU →
join → release → replace.  The model is a thin *orchestrator*: every
strategic decision — arrival, admission, the whole lock-acquisition
phase (cc), workload, placement, partitioning, conflict resolution —
is delegated to a named policy resolved through :mod:`repro.policies`
(see DESIGN.md §8 for the layer map).  The model owns only what every
policy composition shares: the kernel, the machine, the random
streams, the run's probe (:class:`~repro.core.metrics.MetricsCollector`,
which every lifecycle site reports to and which feeds the optional
trace and live metrics) and the fork/join execution of granted
transactions.
"""

from itertools import count

from repro.core.conflict import make_conflict_engine
from repro.core.metrics import MetricsCollector
from repro.core.parameters import SimulationParameters
from repro.core.placement import make_placement
from repro.core.partitioning import make_partitioning
from repro.core.results import aggregate
from repro.core.transaction import Transaction, split_entities
from repro.core.workload import make_size_sampler
from repro.des import Environment, RandomStreams
from repro.des.events import Join
from repro.engine.machine import Machine
from repro.engine.processor import ProcessorDown
from repro.faults.backoff import FixedUniformBackoff
from repro.faults.injector import FaultInjector
from repro.policies import resolve
from repro.policies.admission import AdmissionGate, make_admission_policy

#: Version of the simulation semantics.  Bump whenever a change alters
#: the outputs for a given ``(parameters, seed)`` pair — it is part of
#: the content-address used by :mod:`repro.experiments.cache`, so a
#: bump invalidates every previously cached result.
#:
#: 2: response percentiles switched to explicit nearest-rank (the
#:    ``round``-based pick was off by one on even sample counts).
#: 3: completions without relay hops (a sub-transaction's stages and a
#:    lock request's done event no longer replay the same-instant
#:    order of a process per sub and of per-node condition joins).
MODEL_VERSION = 3

#: Named random streams derived from the master seed.  Each stream is
#: seeded from ``(seed, name)`` alone, so adding one never perturbs
#: the others (``fault_backoff`` is separate from ``backoff`` so
#: fault-triggered draws never desync the deadlock-backoff stream).
_STREAMS = (
    "sizes",
    "placement",
    "partitioning",
    "readwrite",
    "backoff",
    "arrivals",
    "fault_backoff",
    "net",
    "commit_backoff",
)


class LockingGranularityModel:
    """One configured instance of the simulation model.

    Build it from a :class:`~repro.core.parameters.SimulationParameters`
    and call :meth:`run`; the instance is single-use (a fresh model is
    built per run so repeated runs never share state).

    Optional extras: ``trace`` (any sink with
    ``emit(time, kind, subject, details)`` — receives every
    lifecycle, lock-manager and scheduler event), ``telemetry``
    (never touches a random stream, so results are unchanged),
    ``fault_plan`` (inert when ``None`` or empty, otherwise drives
    crashes/slowdowns/stalls from its own streams), ``backoff`` (the
    default reproduces the historical ``uniform(0, 1)`` draw
    bit-for-bit) and ``metrics_registry`` (a
    :class:`repro.obs.metrics.MetricsRegistry`; live counters, gauges
    and lock-wait histograms updated as the run progresses — the
    instrumentation never schedules events or draws randomness, so
    results are bit-identical with metrics on or off).
    """

    def __init__(
        self,
        params,
        trace=None,
        telemetry=None,
        fault_plan=None,
        backoff=None,
        metrics_registry=None,
    ):
        params.validate()
        self.params = params
        self.telemetry = telemetry
        self.env = Environment()
        streams = RandomStreams(params.seed)
        self.rngs = {name: streams.stream(name) for name in _STREAMS}
        self.backoff = backoff if backoff is not None else FixedUniformBackoff()
        self.machine = Machine(self.env, params.npros, params.discipline)
        if params.nnodes > 1:
            # Distributed model (DESIGN.md §12): message transport plus
            # cluster bookkeeping.  Only built when asked for, so
            # single-node runs never allocate (or draw from) either.
            from repro.engine.cluster import Cluster
            from repro.net import Network

            self.network = Network(
                self.env,
                params.nnodes,
                latency=params.net_latency,
                jitter=params.net_jitter,
                rng=self.rngs["net"],
            )
            self.cluster = Cluster(self.env, params.nnodes, self.network)
        else:
            self.network = None
            self.cluster = None
        self.placement = make_placement(params)
        self.partitioning = make_partitioning(params)
        self.sizes = make_size_sampler(params)
        # Multi-class plumbing: a dedicated class-pick stream plus one
        # size stream per class (seeded from ("sizes", name), so adding
        # or renaming a class never perturbs the others), and per-class
        # placements when a class overrides the access skew.  All of it
        # only exists when a mix is configured — the single-class draw
        # sequence is untouched.
        self.mix = params.workload_mix
        self._class_placements = {}
        if self.mix is not None:
            self.rngs["class"] = streams.stream("class")
            for cls in self.mix:
                self.rngs[("sizes", cls.name)] = streams.stream(
                    "sizes", cls.name
                )
                if cls.access_skew is not None and params.placement == "skewed":
                    self._class_placements[cls.name] = make_placement(
                        params.replace(access_skew=cls.access_skew)
                    )
        # Whether transactions must materialise granule sets up front
        # is a capability of the conflict engine (declared on its
        # registry factory), not a hardcoded name list.
        self._needs_granules = getattr(
            resolve("conflict", params.conflict_engine), "needs_granules", False
        )
        self.conflicts = make_conflict_engine(params, streams.stream("conflict"))
        policy = make_admission_policy(params)
        # Optional observers, wired in one place.  The collector is the
        # run's probe: it keeps the results and feeds the trace sinks
        # and the live metrics; each lower layer holds one hook, a
        # bound method of the probe, set only when someone listens.
        sinks = [trace, telemetry.sink if telemetry is not None else None]
        sinks = [sink for sink in sinks if sink is not None]
        if len(sinks) > 1:
            from repro.obs.sinks import MultiSink

            sink = MultiSink(sinks)
        else:
            sink = sinks[0] if sinks else None
        instruments = None
        manager = getattr(self.conflicts, "manager", None)
        if metrics_registry is not None:
            # Imported only when instrumented: a bare run never loads
            # the metrics module.
            from repro.obs.metrics import RunInstruments

            instruments = RunInstruments(metrics_registry, params)
            instruments.attach_kernel(self.env)
            if manager is not None:
                instruments.attach_lock_table(manager)
        self.metrics = probe = MetricsCollector(
            self.env, params, self.machine, self.conflicts,
            trace=sink, instruments=instruments,
            cluster=self.cluster, network=self.network,
        )
        observed = sink is not None or instruments is not None
        if manager is not None and observed:
            manager.observer = probe.note_lock_event
        if sink is not None:
            policy.notify = probe.system_event
        if self.network is not None and instruments is not None:
            self.network.observer = probe.note_message
        if fault_plan is not None and fault_plan.enabled():
            self._injector = FaultInjector(
                self.env, self.machine, fault_plan, params.seed,
                observer=probe.note_fault if observed else None,
            )
            self._injector.network = self.network
        else:
            self._injector = None
        self.admission = AdmissionGate(policy, self.env, self.metrics)
        self.cc = resolve("cc", params.protocol)().bind(self)
        self.commit = resolve("commit", params.commit_protocol)().bind(self)
        self.arrivals = resolve("arrival", params.arrival_process)()
        self._tid = count(1)
        #: blocker tid -> events to succeed when that blocker completes.
        self.blocked_wakes = {}
        self._finished = False

    # -- public API ------------------------------------------------------

    def run(self, timeout=None):
        """Run until ``tmax`` and return the
        :class:`~repro.core.results.SimulationResult`.

        ``timeout`` is an optional wall-clock budget in seconds
        (forwarded to the kernel, which raises ``SimulationStalled``
        when it is exhausted).
        """
        if self._finished:
            raise RuntimeError("model instances are single-use; build a new one")
        if self.telemetry is not None:
            self.telemetry.install(self)
        if self._injector is not None:
            self._injector.install()
        self.arrivals.start(self)
        self.env.run(until=self.params.tmax, timeout=timeout)
        self._finished = True
        return self.metrics.finalize()

    # -- transaction factory ---------------------------------------------

    def new_transaction(self, cls=None):
        """Draw one transaction from the workload/placement policies.

        Multi-class runs pick the class from the dedicated ``class``
        stream (or honor a forced *cls* — closed arrivals pin each
        terminal to a class) and draw the size from that class's own
        stream; everything else flows through the shared streams.
        """
        params = self.params
        placement = self.placement
        if self.mix is not None:
            if cls is None:
                cls = self.mix.pick(self.rngs["class"].random())
            nu = self.sizes.sample_for(cls, self.rngs[("sizes", cls.name)])
            placement = self._class_placements.get(cls.name, placement)
        else:
            nu = self.sizes.sample(self.rngs["sizes"])
        lock_count = placement.lock_count(nu)
        if self._needs_granules:
            granules = placement.granules(nu, self.rngs["placement"])
        else:
            granules = None
        write_fraction = (
            params.write_fraction if cls is None else cls.write_fraction
        )
        if write_fraction >= 1.0:
            is_writer = True
        else:
            is_writer = self.rngs["readwrite"].random() < write_fraction
        return Transaction(
            next(self._tid), nu, lock_count, granules, is_writer,
            txn_class=cls,
        )

    # -- lifecycle ---------------------------------------------------------

    def lifecycle(self, txn):
        """The full life of one transaction (an arrival policy spawns
        one of these per arriving transaction)."""
        probe = self.metrics
        traced = probe.trace is not None
        txn.arrival = self.env.now
        if traced:
            probe.emit("arrive", txn, {"nu": txn.nu, "locks": txn.lock_count})
        yield from self.admission.admit(txn)
        if traced:
            probe.emit("admit", txn, {})
        while True:
            try:
                yield from self.cc.acquire(txn)
            except ProcessorDown as down:
                # The node crashed while serving this transaction's
                # lock-management work.
                yield from self.cc.fault_abort(txn, down.index)
                continue
            probe.note_occupancy()
            if (yield from self._execute(txn)):
                if (yield from self.cc.post_execute(txn)):
                    if (yield from self.commit.commit(txn)):
                        break
                    # Distributed commit presumed aborted (timeout or
                    # partition): locks already released, backoff
                    # already slept — re-acquire from scratch.
                    continue
                # The protocol killed the transaction at its commit
                # point (wound-wait): re-acquire from scratch.
                continue
            # A sub-transaction died on a crashed node: abort the
            # parent, release its locks and retry from the lock phase.
            yield from self.cc.fault_abort(txn, None)
        self._complete(txn)

    def wake_waiters(self, txn):
        """Succeed every event blocked on *txn* (release notification)."""
        for wake in self.blocked_wakes.pop(txn.tid, ()):
            if not wake.triggered:
                wake.succeed()

    # -- execution ---------------------------------------------------------

    def _execute(self, txn):
        """Run the sub-transactions; True iff every one completed.

        A sub on a crashed node reports failure without failing the
        join, so surviving siblings run to completion before the
        parent aborts.
        """
        probe = self.metrics
        traced = probe.trace is not None
        processors = self.partitioning.processors(self.rngs["partitioning"])
        if traced:
            probe.emit("exec", txn, {"pu": len(processors)})
        shares = split_entities(txn.nu, len(processors))
        subs = []
        for sub, (index, entities) in enumerate(zip(processors, shares)):
            if entities > 0:
                if traced:
                    probe.emit(
                        "fork", txn,
                        {"sub": sub, "node": index, "entities": entities},
                    )
                subs.append((sub, index, entities))
        # Counted before any sub starts: a sub on a down node reports
        # as it starts, and must not close the join on its siblings.
        join = Join(self.env, len(subs), True)
        for sub, index, entities in subs:
            _Subtransaction(self, txn, sub, index, entities, join, traced)
        ok = yield join.event
        if traced:
            probe.emit("join", txn, {"subs": len(subs)})
        return ok

    # -- completion ----------------------------------------------------------

    def _complete(self, txn):
        if self.metrics.trace is not None:
            self.metrics.emit("commit", txn, {"attempts": txn.attempts})
        self.conflicts.release(txn)
        self.metrics.note_completion(txn)
        self.wake_waiters(txn)
        self.admission.on_complete()
        self.arrivals.on_complete(self, txn)


class _Subtransaction:
    """One forked sub-transaction: disk, then CPU, then report.

    The sub starts its io job as it is built and is the completion
    target of its own jobs: the io job's :meth:`succeed` submits the
    CPU job, and the CPU job's reports to the fork's
    :class:`~repro.des.events.Join`.  :meth:`fail` reports ``False``
    (the join's value) on :class:`ProcessorDown`, so surviving siblings
    run to completion before the parent aborts, and fails the join on
    any other error.  No stage is a kernel event of its own.
    """

    __slots__ = ("node", "txn", "sub", "index", "cpu_demand", "join", "probe")

    def __init__(self, model, txn, sub, index, entities, join, traced):
        self.node = model.machine[index]
        self.txn = txn
        self.sub = sub
        self.index = index
        #: The CPU demand still to submit; ``None`` once on the CPU.
        self.cpu_demand = entities * model.params.cputime
        self.join = join
        # Decided once per sub: an untraced run builds no details dict.
        self.probe = probe = model.metrics if traced else None
        if probe is not None:
            probe.emit("io_start", txn, {"sub": sub, "node": index})
        self.node.io(entities * model.params.iotime, self)

    # -- completion target (called by the node's servers) ----------------

    def succeed(self):
        probe = self.probe
        demand = self.cpu_demand
        if demand is None:
            if probe is not None:
                probe.emit(
                    "cpu_end", self.txn, {"sub": self.sub, "node": self.index}
                )
            self.join.succeed()
            return
        if probe is not None:
            txn = self.txn
            sub = self.sub
            index = self.index
            probe.emit("io_end", txn, {"sub": sub, "node": index})
            probe.emit("cpu_start", txn, {"sub": sub, "node": index})
        self.cpu_demand = None
        self.node.compute(demand, self)

    def fail(self, exception):
        if not isinstance(exception, ProcessorDown):
            self.join.fail(exception)
            return
        if self.probe is not None:
            self.probe.emit(
                "sub_fail", self.txn, {"sub": self.sub, "node": exception.index}
            )
        self.join.value = False
        self.join.succeed()


def simulate(params=None, fault_plan=None, backoff=None, **overrides):
    """Run one simulation and return its result.

    Accepts a prebuilt :class:`SimulationParameters`, keyword overrides
    applied to the defaults, or both.  ``fault_plan`` and ``backoff``
    are run-harness inputs, not simulation parameters, so they never
    enter the result-cache address.
    """
    if params is None:
        params = SimulationParameters(**overrides)
    elif overrides:
        params = params.replace(**overrides)
    return LockingGranularityModel(
        params, fault_plan=fault_plan, backoff=backoff
    ).run()


def simulate_replications(params, replications=5, base_seed=None):
    """Run independent replications and aggregate them.

    Seeds are ``base_seed, base_seed + 1, ...`` (default: start at the
    seed in *params*).  Returns a
    :class:`~repro.core.results.ReplicatedResult`.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    start = params.seed if base_seed is None else base_seed
    results = []
    for i in range(replications):
        run_params = params.replace(seed=start + i)
        results.append(LockingGranularityModel(run_params).run())
    return aggregate(results)
