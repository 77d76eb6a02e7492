"""One workload in a fresh interpreter, started by ``run.py``.

Modes:

* ``--info``: import and set up every workload once (untimed; it fills
  the bytecode caches) and report the program's version facts;
* ``--setup-only``: time one set-up (first ``import repro`` to a
  constructed model or spec) and exit;
* default: time the set-up, make one untimed warm-up run (it also
  counts kernel events), time repeated runs for ``--seconds``, read
  peak RSS, and with ``--trace 1`` make one more run under cProfile.

Every run is checked against ``expected.json`` (see ``pins.py``); a run
that raises or fails its check is counted as failed and gets no
timing.  The last line of output is one JSON document.
"""

import argparse
import cProfile
import functools
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import layers
import pins

#: Fewest timed runs, whatever ``--seconds`` says, so a median exists.
MIN_REPEATS = 3
#: The timed loop stops starting runs after this long, whatever
#: ``--seconds`` says, so one child stays within its budget.
MAX_LOOP_S = 120.0


class Tally:
    """Counts attempted and failed runs and checks each outcome.

    *check* maps a run's results to ``(mode, failures)``.
    """

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mode = None
        self.digest = None
        self.sim = None

    def run(self, execute):
        """Time ``execute()``; returns ``(outcome, seconds)``, or ``(None, None)`` on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = execute()
        except Exception as exc:  # a failing run is counted, not fatal
            self._fail("{}: {}".format(type(exc).__name__, exc))
            return None, None
        seconds = time.perf_counter() - start
        self.mode, failures = self.check(outcome.results)
        digest = pins.digest(outcome.results)
        if self.digest is None:
            self.digest = digest
            self.sim = pins.sim_counters(outcome.results)
        elif digest != self.digest:
            failures.append("results differ from the first run of this seed")
        if failures:
            self._fail("; ".join(failures))
            return None, None
        return outcome, seconds

    def _fail(self, message):
        self.failed += 1
        if message not in self.errors:
            self.errors.append(message)


def info():
    import workloads
    from repro.core.model import MODEL_VERSION

    for name in workloads.NAMES:
        workloads.prepare(name, 1, quick=True)
    return {
        "model_version": MODEL_VERSION,
        "python": platform.python_version(),
        "numpy": "numpy" in sys.modules,
        "scipy": "scipy" in sys.modules,
        "min_repeats": MIN_REPEATS,
    }


def measure(args):
    start = time.perf_counter()
    import workloads

    prepared = workloads.prepare(args.workload, args.seed, args.quick)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}

    from repro.core.model import MODEL_VERSION

    expected = pins.load(args.expected)
    tally = Tally(
        functools.partial(
            pins.check, expected, MODEL_VERSION, args.quick, args.workload, args.seed
        )
    )

    def fresh():
        return workloads.prepare(args.workload, args.seed, args.quick).execute()

    warm, _ = tally.run(prepared.count_events)
    # Each timed run starts from a clean heap: the models of earlier
    # runs hold reference cycles (and, with a trace attached, hundreds
    # of MiB of records) that would otherwise be collected mid-run.
    del prepared
    walls, harness = [], []
    repeats = 1 if args.quick else MIN_REPEATS
    timed, elapsed, previous = 0, 0.0, 0.0
    loop_start = time.perf_counter()
    # Start another run only if it should end within --seconds.
    while timed < repeats or elapsed + previous <= args.seconds:
        timed += 1
        gc.collect()
        begin = time.perf_counter()
        outcome, seconds = tally.run(fresh)
        previous = time.perf_counter() - begin
        elapsed = time.perf_counter() - loop_start
        if outcome is not None:
            walls.append(seconds)
            harness.append(seconds - outcome.cell_seconds)
        if args.quick or elapsed > MAX_LOOP_S:
            break
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if walls:
        wall = statistics.median(walls)
        metrics["wall_s"] = wall
        metrics["experiments.harness_s"] = statistics.median(harness)
        metrics.update(tally.sim)
        if warm is not None:
            metrics["des.events_dispatched"] = warm.events
            metrics["des.events_per_s"] = warm.events / wall
            metrics["des.us_per_event"] = wall / warm.events * 1e6
    if args.trace and walls:
        profiler = cProfile.Profile()

        def profiled():
            profiler.enable()
            try:
                return fresh()
            finally:
                profiler.disable()

        gc.collect()
        outcome, seconds = tally.run(profiled)
        if outcome is not None:
            profiler.create_stats()
            package_dir = os.path.dirname(sys.modules["repro"].__file__)
            metrics.update(layers.split(profiler.stats, package_dir))
            metrics["trace.wall_s"] = seconds
            metrics["trace.overhead_frac"] = seconds / metrics["wall_s"] - 1.0
    return {
        "setup_s": setup_s,
        "samples": {"wall_s": walls, "experiments.harness_s": harness},
        "metrics": metrics,
        "check": {"mode": tally.mode, "digest": tally.digest, "errors": tally.errors},
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--info", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--expected", default=str(pins.EXPECTED))
    args = parser.parse_args(argv)
    document = info() if args.info else measure(args)
    print(json.dumps(document))


if __name__ == "__main__":
    main()
