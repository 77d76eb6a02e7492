"""The four pinned workloads of the end-to-end benchmark.

Each workload is built from the program's public API only.
:func:`prepare` is the set-up a user pays before anything is simulated
(build the model, or the experiment spec); it returns an object whose
``execute()`` simulates once and returns an :class:`Outcome`.  The seed
is the master seed of every simulated cell, so it changes the generated
inputs and nothing else.

Imports a workload needs beyond the core model (the experiments runner,
the observers) happen inside :func:`prepare`, so each workload's
set-up time covers exactly the import graph it uses.
"""

import time
from dataclasses import dataclass

from repro import LockingGranularityModel, SimulationParameters

#: Reporting order.
NAMES = ("fig12_heavy", "fig2_curve", "incr_explicit", "classes_traced")

#: Single-cell workloads: base parameters and the tiny ``tmax`` of
#: ``--quick`` (a self-test mode, never used for comparisons).
CELLS = {
    "fig12_heavy": (
        dict(ntrans=200, npros=20, maxtransize=500, ltot=1000, tmax=2000.0),
        60.0,
    ),
    "incr_explicit": (
        dict(
            conflict_engine="explicit",
            protocol="incremental",
            npros=2,
            ntrans=20,
            ltot=5000,
            write_fraction=0.5,
            tmax=60000.0,
        ),
        1000.0,
    ),
    "classes_traced": (
        dict(
            npros=10,
            ltot=50,
            workload="classes",
            txn_classes="oltp:0.8:50,batch:0.2:1000:prio=1",
            txn_policy="priority",
            tmax=6000.0,
        ),
        100.0,
    ),
}

#: Processor count of the Fig. 2 curve and its ``--quick`` horizon.
CURVE_NPROS = 10
CURVE_QUICK_TMAX = 100.0

#: Wall-clock budget of one simulated cell.  A cell that exceeds it
#: raises ``SimulationStalled`` (or ``SweepStalled`` through the
#: runner), so a stalled run counts as failed instead of hanging.
STALL_S = 90.0


@dataclass
class Outcome:
    """What one execution produced.

    ``results`` holds one ``SimulationResult`` per simulated cell;
    ``events`` is the kernel's ``events_dispatched`` summed over cells
    (``None`` where the runner hides the kernel); ``cell_seconds`` is
    the wall time spent simulating cells: ``model.run()`` for a single
    cell, the sum of the cell times the runner reported for the curve.
    """

    results: list
    events: int = None
    cell_seconds: float = None


class CellRun:
    """A constructed model; ``execute`` simulates it to ``tmax``."""

    def __init__(self, model):
        self.model = model

    def execute(self):
        start = time.perf_counter()
        result = self.model.run(timeout=STALL_S)
        return Outcome(
            [result],
            events=self.model.env.events_dispatched,
            cell_seconds=time.perf_counter() - start,
        )

    count_events = execute


class CurveRun:
    """A Fig. 2 curve spec; ``execute`` runs it through the experiments runner."""

    def __init__(self, spec, run_experiment):
        self.spec = spec
        self.run_experiment = run_experiment

    def execute(self):
        seconds = []
        result = self.run_experiment(
            self.spec,
            replications=1,
            jobs=1,
            cache=False,
            manifests=False,
            watchdog=STALL_S,
            watchdog_retries=0,
            cell_progress=lambda done, total, info: seconds.append(info["seconds"]),
        )
        return Outcome(
            [outcome.results[0] for outcome in result.outcomes],
            cell_seconds=sum(seconds),
        )

    def count_events(self):
        """Simulate the curve's cells directly, where each kernel is visible.

        Replication 0 of a runner cell is this same model at the same
        seed, so the results (and their digest) equal ``execute``'s.
        """
        results, events = [], 0
        for params in self.spec.configurations():
            model = LockingGranularityModel(params)
            results.append(model.run(timeout=STALL_S))
            events += model.env.events_dispatched
        return Outcome(results, events=events)


def prepare(name, seed, quick=False):
    """Set up workload *name* at *seed*: a :class:`CellRun` or :class:`CurveRun`."""
    if name == "fig2_curve":
        from repro.experiments.figures import figure2
        from repro.experiments.runner import run_experiment

        spec = figure2().scaled(replace_sweeps={"npros": (CURVE_NPROS,)}, seed=seed)
        if quick:
            spec = spec.scaled(tmax=CURVE_QUICK_TMAX)
        return CurveRun(spec, run_experiment)
    config, quick_tmax = CELLS[name]
    params = SimulationParameters(**config).replace(seed=seed)
    if quick:
        params = params.replace(tmax=quick_tmax)
    observers = {}
    if name == "classes_traced":
        # The only workload with subscribers: an in-memory trace, live
        # metrics and sampled telemetry, all attached at once.
        from repro.des.trace import Trace
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        observers = dict(
            trace=Trace(),
            metrics_registry=MetricsRegistry(),
            telemetry=Telemetry(sample_interval=10),
        )
    return CellRun(LockingGranularityModel(params, **observers))
