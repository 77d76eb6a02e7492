"""One-shot performance suite with a committed-baseline regression gate.

Measures the two layers the reproduction's wall time depends on and
writes one JSON artifact per layer:

``BENCH_kernel.json``
    Raw DES kernel throughput (events/second) for three workloads —
    timeout drain, bare callbacks and the process path — plus a
    ``metrics_overhead`` block comparing the simulation path with and
    without the live metrics registry attached (gated at 5% by
    ``--check``).  The process path uses the bare-delay tick style
    (``yield 1.0``), the kernel's fastest dispatch path.  These are
    diagnostics of the kernel alone; the model's own end-to-end
    numbers come from ``benchmarks/e2e/run.py``.
``BENCH_sweep.json``
    A small locking-granularity sweep through the global work queue:
    per-cell wall times, queue wait, worker occupancy and total
    elapsed time — plus an ``accelerator`` block comparing the same
    single-curve sweep with and without ``accelerator="analytic"``
    (cells simulated vs pruned, measured wall-clock saved).

``--check`` compares the kernel events/second numbers against the
committed baseline under ``benchmarks/baselines/`` (one file per
mode: smoke and full) and exits non-zero when any workload regresses
by more than ``REPRO_BENCH_TOLERANCE`` (default 0.30, i.e. 30%).
Baselines are committed deliberately low (roughly half of a measured
run) so the gate trips on real regressions, not on CI runner noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_suite.py [--out DIR] [--check]

Set ``REPRO_SMOKE=1`` for the CI-sized run (fewer events, a smaller
sweep, fewer repeats).
"""

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.parameters import SimulationParameters  # noqa: E402
from repro.des import Environment  # noqa: E402
from repro.experiments.config import ExperimentSpec  # noqa: E402
from repro.experiments.runner import run_experiment, run_experiments  # noqa: E402

#: Directory holding the committed baseline files.
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def _smoke():
    return os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def _tolerance():
    return float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.30"))


# -- kernel workloads ----------------------------------------------------


def _timeout_drain(n):
    env = Environment()
    timeout = env.timeout
    for i in range(n):
        timeout(float(i % 97))
    env.run()
    return n


def _callback_drain(n):
    env = Environment()
    fired = [0]

    def tick():
        fired[0] += 1

    schedule_callback = env.schedule_callback
    for i in range(n):
        schedule_callback(tick, float(i % 97))
    env.run()
    return fired[0]


def _ticker(env, n):
    # Bare-delay sleeps ride the kernel's tick fast path: no Timeout
    # object, no callback list — the process itself is the heap entry.
    for _ in range(n):
        yield 1.0


def _process_path(n):
    env = Environment()
    n_processes = 10
    for _ in range(n_processes):
        env.process(_ticker(env, n // n_processes))
    env.run()


def _best_rate(workload, events, repeats):
    """Best-of-*repeats* events/second for one kernel workload."""
    best = 0.0
    for _ in range(repeats):
        start = perf_counter()
        workload(events)
        best = max(best, events / (perf_counter() - start))
    return best


def bench_kernel():
    """Kernel throughput measurements; returns the BENCH_kernel dict."""
    events = 20_000 if _smoke() else 200_000
    repeats = 2 if _smoke() else 3
    workloads = {
        "timeout_drain": _timeout_drain,
        "callbacks": _callback_drain,
        "process": _process_path,
    }
    rates = {
        name: round(_best_rate(workload, events, repeats))
        for name, workload in workloads.items()
    }
    return {
        "mode": "smoke" if _smoke() else "full",
        "events_per_workload": events,
        "events_per_second": rates,
        "metrics_overhead": bench_metrics_overhead(),
    }


def _timed_simulation(params, registry):
    """Best wall time of one simulation (with/without instruments)."""
    from repro.core.model import LockingGranularityModel

    start = perf_counter()
    result = LockingGranularityModel(
        params, metrics_registry=registry
    ).run()
    return perf_counter() - start, result


def bench_metrics_overhead():
    """Head-to-head cost of live metrics on the simulation path.

    Interleaves instrumented and plain runs of the same configuration
    (so thermal / scheduling drift hits both sides equally), keeps the
    best time of each, and reports the relative overhead.  The gate in
    :func:`check_kernel` fails when instrumentation costs more than
    ``REPRO_METRICS_OVERHEAD_MAX`` (default 5%).
    """
    from repro.obs.metrics import MetricsRegistry

    # The horizon must be long enough that per-run timing noise stays
    # well under the 5% gate (sub-50ms runs measure scheduler jitter,
    # not instrumentation cost).
    params = SimulationParameters(
        dbsize=500,
        ltot=20,
        ntrans=5,
        maxtransize=50,
        npros=4,
        tmax=500.0 if _smoke() else 1500.0,
        seed=7,
    )
    repeats = 8 if _smoke() else 10
    # One untimed warm-up per side, then alternate which side runs
    # first each repeat: whichever run comes second in a pair benefits
    # from warm caches, so a fixed order would bias the comparison by
    # more than the overhead being measured.
    _timed_simulation(params, None)
    _timed_simulation(params, MetricsRegistry())
    best_plain = best_instrumented = float("inf")
    plain_result = instrumented_result = None
    for i in range(repeats):
        sides = ["plain", "instrumented"]
        if i % 2:
            sides.reverse()
        for side in sides:
            if side == "plain":
                elapsed, plain_result = _timed_simulation(params, None)
                best_plain = min(best_plain, elapsed)
            else:
                elapsed, instrumented_result = _timed_simulation(
                    params, MetricsRegistry()
                )
                best_instrumented = min(best_instrumented, elapsed)
    overhead = (best_instrumented - best_plain) / best_plain
    return {
        "plain_seconds": round(best_plain, 6),
        "instrumented_seconds": round(best_instrumented, 6),
        "overhead_fraction": round(overhead, 6),
        # The instrumented run must not change the physics.
        "results_identical": (
            plain_result.as_dict() == instrumented_result.as_dict()
        ),
    }


# -- sweep workload ------------------------------------------------------


def _sweep_spec():
    base = SimulationParameters(
        dbsize=500,
        ntrans=4,
        maxtransize=30,
        npros=2,
        tmax=40.0 if _smoke() else 120.0,
        seed=11,
    )
    return ExperimentSpec(
        key="bench-sweep",
        title="bench sweep",
        base=base,
        sweeps={"ltot": (1, 20, 100), "npros": (1, 2)},
        series_fields=("npros",),
        y_fields=("throughput",),
    )


def bench_sweep():
    """Sweep harness measurement; returns the BENCH_sweep dict."""
    spec = _sweep_spec()
    cells = []

    def on_cell(done, total, info):
        if info["seconds"] is not None:
            cells.append(
                {"label": info["label"], "seconds": round(info["seconds"], 4)}
            )

    jobs = min(2, os.cpu_count() or 1)
    started = perf_counter()
    # cache=False: this must time simulations, never cache reads.
    result = run_experiments(
        [spec],
        replications=1 if _smoke() else 2,
        jobs=jobs,
        cache=False,
        cell_progress=on_cell,
    )[0]
    elapsed = perf_counter() - started
    stats = result.stats
    seconds = [cell["seconds"] for cell in cells]
    return {
        "mode": "smoke" if _smoke() else "full",
        "cells": stats.cells,
        "workers": stats.workers,
        "occupancy": round(stats.occupancy, 4),
        "queue_wait_seconds": round(stats.queue_wait_seconds, 4),
        "elapsed_seconds": round(elapsed, 4),
        "cell_seconds_max": max(seconds) if seconds else 0.0,
        "cell_seconds_total": round(sum(seconds), 4) if seconds else 0.0,
        "cell_wall_times": cells,
        "accelerator": bench_accelerated_sweep(),
    }


def _accelerator_spec():
    """One long granularity curve — enough interior points to prune."""
    base = SimulationParameters(
        dbsize=500,
        ntrans=6,
        maxtransize=50,
        npros=4,
        tmax=60.0 if _smoke() else 150.0,
        seed=11,
    )
    return ExperimentSpec(
        key="bench-accel",
        title="bench accelerated sweep",
        base=base,
        sweeps={"ltot": (2, 5, 10, 20, 50, 100, 200, 500)},
        y_fields=("throughput",),
    )


def bench_accelerated_sweep():
    """The same curve with and without the analytic accelerator.

    Both runs are uncached and inline, so the elapsed delta is the
    simulation work the pruned cells would have cost.
    """
    spec = _accelerator_spec()

    started = perf_counter()
    plain = run_experiment(spec, cache=False)
    plain_elapsed = perf_counter() - started

    started = perf_counter()
    accelerated = run_experiment(spec, cache=False, accelerator="analytic")
    accel_elapsed = perf_counter() - started

    stats = accelerated.stats
    return {
        "cells": stats.cells,
        "cells_simulated": stats.runs,
        "cells_pruned": stats.analytic_cells,
        "pruned_fraction": round(stats.pruned_fraction, 4),
        "plain_elapsed_seconds": round(plain_elapsed, 4),
        "accelerated_elapsed_seconds": round(accel_elapsed, 4),
        "wall_clock_saved_seconds": round(plain_elapsed - accel_elapsed, 4),
        "plain_throughput_optimum": max(
            outcome.mean("throughput") for outcome in plain.outcomes
        ),
        "accelerated_throughput_optimum": max(
            outcome.mean("throughput") for outcome in accelerated.outcomes
        ),
    }


# -- baseline gate -------------------------------------------------------


def check_kernel(current):
    """Compare events/second against the committed baseline.

    Returns a list of human-readable failure strings (empty = pass).
    A missing baseline file is reported but never fails the run, so
    the suite stays usable on machines without a committed baseline
    for their mode.
    """
    baseline_path = BASELINE_DIR / "kernel-{}.json".format(current["mode"])
    if not baseline_path.exists():
        print("no committed baseline at {}; gate skipped".format(baseline_path))
        return []
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    tolerance = _tolerance()
    failures = []
    rates = current["events_per_second"]
    for name, floor in baseline["events_per_second"].items():
        measured = rates.get(name)
        if measured is None:
            failures.append("workload {!r} missing from the run".format(name))
            continue
        allowed = floor * (1.0 - tolerance)
        if measured < allowed:
            failures.append(
                "{}: {:.0f} ev/s < {:.0f} (baseline {:.0f} - {:.0%})".format(
                    name, measured, allowed, floor, tolerance
                )
            )
    failures.extend(check_metrics_overhead(current.get("metrics_overhead")))
    return failures


def check_metrics_overhead(overhead):
    """Gate the live-metrics cost on the simulation path.

    Instrumentation must stay cheap enough to leave on in sweeps:
    more than ``REPRO_METRICS_OVERHEAD_MAX`` (default 0.05, i.e. 5%)
    relative slowdown — or any result divergence at all — fails.
    """
    if overhead is None:
        return []
    limit = float(os.environ.get("REPRO_METRICS_OVERHEAD_MAX", "0.05"))
    failures = []
    if not overhead["results_identical"]:
        failures.append(
            "metrics instrumentation changed simulation results "
            "(must be bit-identical)"
        )
    if overhead["overhead_fraction"] > limit:
        failures.append(
            "metrics overhead {:.1%} exceeds the {:.1%} budget "
            "({}s plain vs {}s instrumented)".format(
                overhead["overhead_fraction"], limit,
                overhead["plain_seconds"], overhead["instrumented_seconds"],
            )
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=".", help="directory for the BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on events/sec regression vs the committed baseline",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    kernel = bench_kernel()
    with open(out_dir / "BENCH_kernel.json", "w") as handle:
        json.dump(kernel, handle, indent=1, sort_keys=True)
    for name, rate in sorted(kernel["events_per_second"].items()):
        print("kernel {:16s} {:>10,} ev/s".format(name, rate))
    overhead = kernel["metrics_overhead"]
    print(
        "kernel metrics overhead {:+.1%} ({}s plain, {}s instrumented, "
        "results identical: {})".format(
            overhead["overhead_fraction"], overhead["plain_seconds"],
            overhead["instrumented_seconds"], overhead["results_identical"],
        )
    )

    sweep = bench_sweep()
    with open(out_dir / "BENCH_sweep.json", "w") as handle:
        json.dump(sweep, handle, indent=1, sort_keys=True)
    print(
        "sweep  {} cells on {} workers: occupancy {:.0%}, "
        "queue wait {:.2f}s, {:.2f}s wall".format(
            sweep["cells"],
            sweep["workers"],
            sweep["occupancy"],
            sweep["queue_wait_seconds"],
            sweep["elapsed_seconds"],
        )
    )
    print("wrote {}/BENCH_kernel.json and BENCH_sweep.json".format(out_dir))

    if args.check:
        failures = check_kernel(kernel)
        if failures:
            for failure in failures:
                print("PERF REGRESSION: {}".format(failure), file=sys.stderr)
            return 1
        print("perf gate passed ({:.0%} tolerance)".format(_tolerance()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
