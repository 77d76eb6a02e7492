"""Seeded fault injector: turns a plan into scheduled fault processes.

The injector owns its own :class:`~repro.des.rng.RandomStreams`
instance, with one named stream per fault process (for example
``fault_crash[0]@2`` for crash spec 0 acting on node 2).  Two
consequences:

* a given (plan, seed) pair yields an identical fault schedule on
  every run, independent of what the workload is doing;
* the model's own streams are never touched, so enabling faults
  perturbs the simulation only through the faults themselves.
"""

from repro.des.rng import RandomStreams


class FaultInjector:
    """Drives the fault processes described by a plan.

    Parameters
    ----------
    env:
        The run's environment.
    machine:
        The run's :class:`~repro.engine.machine.Machine`.
    plan:
        A :class:`~repro.faults.plan.FaultPlan`.
    seed:
        Fallback seed when the plan carries none (normally the run's
        own seed, so one seed reproduces workload *and* faults).
    observer:
        Optional callable ``observer(kind, details)`` told of every
        fault transition: ``proc_crash``, ``proc_recover``,
        ``disk_slow``, ``disk_recover``, ``lockmgr_stall``,
        ``lockmgr_resume``, ``partition``, ``heal``, ``link_delay``
        and ``link_recover``.  In a model run it is the run's probe
        (:meth:`repro.core.metrics.MetricsCollector.note_fault`).
    """

    def __init__(self, env, machine, plan, seed, observer=None):
        self.env = env
        self.machine = machine
        self.plan = plan
        self.observer = observer
        #: Optional cluster network (set by the model for distributed
        #: runs); partition/link-delay specs are skipped without one.
        self.network = None
        self._streams = RandomStreams(plan.seed if plan.seed is not None else seed)
        self.crashes_injected = 0
        self.jobs_killed = 0

    def install(self):
        """Start one process per (spec, target) pair.

        Crashes and disk slowdowns make the nodes differ, so a plan
        with either serves lock work node by node from the start
        (:meth:`~repro.engine.machine.Machine.split_lock_work`).
        """
        if self.plan.crashes or self.plan.disk_slowdowns:
            self.machine.split_lock_work()
        for si, spec in enumerate(self.plan.crashes):
            for node in self._targets(spec):
                rng = self._streams.stream("fault_crash[{}]@{}".format(si, node))
                self.env.process(self._crash_loop(spec, node, rng))
        for si, spec in enumerate(self.plan.disk_slowdowns):
            for node in self._targets(spec):
                rng = self._streams.stream("fault_disk[{}]@{}".format(si, node))
                self.env.process(self._slowdown_loop(spec, node, rng))
        for si, spec in enumerate(self.plan.lock_stalls):
            rng = self._streams.stream("fault_lock[{}]".format(si))
            self.env.process(self._stall_loop(spec, rng))
        if self.network is not None and self.network.nnodes > 1:
            for si, spec in enumerate(self.plan.partitions):
                rng = self._streams.stream("fault_partition[{}]".format(si))
                self.env.process(self._partition_loop(spec, rng))
            for si, spec in enumerate(self.plan.link_delays):
                rng = self._streams.stream("fault_link[{}]".format(si))
                self.env.process(self._link_delay_loop(spec, rng))

    def _targets(self, spec):
        if spec.processors is None:
            return range(self.machine.npros)
        return [i for i in spec.processors if 0 <= i < self.machine.npros]

    def _emit(self, kind, **details):
        if self.observer is not None:
            self.observer(kind, details)

    # -- fault processes -------------------------------------------------

    def _crash_loop(self, spec, node, rng):
        if spec.first_failure_after > 0:
            yield spec.first_failure_after
        while True:
            yield rng.expovariate(1.0 / spec.mttf)
            killed = self.machine.crash(node)
            self.crashes_injected += 1
            self.jobs_killed += killed
            self._emit("proc_crash", node=node, jobs_killed=killed)
            yield rng.expovariate(1.0 / spec.mttr)
            self.machine.recover(node)
            self._emit("proc_recover", node=node)

    def _slowdown_loop(self, spec, node, rng):
        while True:
            yield rng.expovariate(1.0 / spec.mtbf)
            self.machine.set_disk_scale(node, spec.factor)
            self._emit("disk_slow", node=node, factor=spec.factor)
            yield rng.expovariate(1.0 / spec.duration)
            self.machine.set_disk_scale(node, 1.0)
            self._emit("disk_recover", node=node)

    def _stall_loop(self, spec, rng):
        while True:
            yield rng.expovariate(1.0 / spec.mtbf)
            self.machine.set_lock_scale(spec.factor)
            self._emit("lockmgr_stall", factor=spec.factor)
            yield rng.expovariate(1.0 / spec.duration)
            self.machine.set_lock_scale(1.0)
            self._emit("lockmgr_resume")

    def _random_split(self, rng):
        """A seeded two-way split with both sides non-empty."""
        sites = rng.sample(range(self.network.nnodes), self.network.nnodes)
        cut = rng.randrange(1, self.network.nnodes)
        return (tuple(sites[:cut]), tuple(sites[cut:]))

    def _partition_loop(self, spec, rng):
        if spec.first_after > 0:
            yield spec.first_after
        while True:
            yield rng.expovariate(1.0 / spec.mtbf)
            groups = spec.groups if spec.groups is not None else self._random_split(rng)
            self.network.partition(groups)
            self._emit("partition", groups=[sorted(g) for g in groups])
            yield rng.expovariate(1.0 / spec.duration)
            self.network.heal()
            self._emit("heal")

    def _link_delay_loop(self, spec, rng):
        links = spec.links
        while True:
            yield rng.expovariate(1.0 / spec.mtbf)
            if links is None:
                self.network.set_global_delay(spec.extra)
            else:
                for a, b in links:
                    self.network.set_link_delay(a, b, spec.extra)
            self._emit("link_delay", extra=spec.extra)
            yield rng.expovariate(1.0 / spec.duration)
            if links is None:
                self.network.set_global_delay(0.0)
            else:
                for a, b in links:
                    self.network.set_link_delay(a, b, 0.0)
            self._emit("link_recover")
