"""Command-line interface: reproduce any exhibit from a terminal.

Examples
--------
List everything reproducible::

    repro-locking list

Reproduce Figure 2 quickly, with an ASCII plot and a CSV dump::

    repro-locking run fig2 --quick --plot --save fig2.csv

Run a single configuration::

    repro-locking simulate --ltot 100 --npros 10 --tmax 2000
"""

import argparse
import sys
import time

from repro.core.model import simulate
from repro.core.parameters import SimulationParameters
from repro.core.results import RESULT_FIELDS
from repro.experiments.figures import EXHIBITS, get_exhibit
from repro.experiments.report import ascii_plot, format_series_table, summarize_optima
from repro.experiments.runner import run_experiment
from repro.experiments.storage import save_rows_csv, save_rows_json
from repro.faults import (
    CrashSpec,
    FaultPlan,
    LinkDelaySpec,
    PartitionSpec,
    SlowdownSpec,
    StallSpec,
    make_backoff_policy,
)
from repro.faults.backoff import POLICIES as BACKOFF_POLICIES

#: Reduced grid used by ``--quick``.
QUICK_LTOT_GRID = (1, 10, 100, 1000, 5000)
QUICK_TMAX = 400.0

#: Short aliases for policy-selecting parameter flags: ``--cc`` is
#: ``--protocol``, ``--admission`` is ``--txn-policy``.
_FLAG_ALIASES = {"protocol": "--cc", "txn_policy": "--admission"}

#: Flags several verbs take, declared once: dest -> (flag, options).
#: A verb names the ones it takes and overrides an option only where
#: its own differs (see :func:`_add_shared`).
_SHARED_FLAGS = {
    "tmax": ("--tmax", dict(type=float, default=None, help="override horizon")),
    "replications": (
        "--replications",
        dict(type=int, default=1, help="replications per configuration"),
    ),
    "jobs": ("--jobs", dict(type=int, default=0, help="worker processes")),
    "field": ("--field", dict(default="throughput", help="output field compared")),
    "ltot_grid": (
        "--ltot-grid",
        dict(default=None, metavar="L1,L2,...", help="override the ltot sweep"),
    ),
    "save": ("--save", dict(default=None, metavar="PATH", help="write rows to CSV path")),
    "json": ("--json", dict(default=None, metavar="PATH", help="write rows to a JSON file")),
    "svg": ("--svg", dict(default=None, metavar="PATH", help="write an SVG chart")),
    "no_cache": (
        "--no-cache",
        dict(
            action="store_true",
            help="bypass the result cache entirely (no reads, no writes)",
        ),
    ),
    "cache_dir": (
        "--cache-dir",
        dict(
            default=None, metavar="DIR",
            help="result cache location (default results/.cache, or "
            "$REPRO_CACHE_DIR)",
        ),
    ),
    "journal": (
        "--journal",
        dict(
            default=None, metavar="PATH",
            help="record completed cells to this crash-safe journal",
        ),
    ),
    "resume": (
        "--resume",
        dict(
            action="store_true",
            help="resume an interrupted sweep from its journal",
        ),
    ),
    "metrics_port": (
        "--metrics-port",
        dict(
            type=int, default=None, metavar="PORT",
            help="serve /metrics (Prometheus text) and /metrics.json on "
            "this port while the sweep runs (0 picks a free port)",
        ),
    ),
}

#: ``--json`` with an optional path: bare, it writes to stdout.
_OPTIONAL_PATH = dict(nargs="?", const="-")

#: One row per :class:`~repro.faults.FaultPlan` field: the spec class
#: and ``(spec field, flag, default, help)`` for each of its fields.
#: The first flag enables the source (it defaults to off) and its
#: value is the spec's first field.  Metavar T is simulated time.
_FAULT_SOURCES = (
    ("crashes", CrashSpec, (
        ("mttf", "--mttf", None, "mean time to processor failure"),
        ("mttr", "--mttr", 10.0, "mean time to processor repair"),
        ("first_failure_after", "--first-failure-after", 0.0,
         "no crash before this simulation time"),
    )),
    ("disk_slowdowns", SlowdownSpec, (
        ("mtbf", "--disk-mtbf", None, "mean time between disk-slowdown windows"),
        ("duration", "--disk-duration", 10.0, "mean disk-slowdown window length"),
        ("factor", "--disk-factor", 2.0, "disk service-time inflation inside a window"),
    )),
    ("lock_stalls", StallSpec, (
        ("mtbf", "--stall-mtbf", None, "mean time between lock-manager stalls"),
        ("duration", "--stall-duration", 5.0, "mean lock-manager stall length"),
        ("factor", "--stall-factor", 4.0, "lock-overhead inflation during a stall"),
    )),
    ("partitions", PartitionSpec, (
        ("mtbf", "--partition-mtbf", None,
         "mean time between network partitions (needs --nnodes >= 2)"),
        ("duration", "--partition-duration", 10.0, "mean partition length"),
        ("first_after", "--partition-first-after", 0.0,
         "no partition before this simulation time"),
    )),
    ("link_delays", LinkDelaySpec, (
        ("mtbf", "--link-delay-mtbf", None, "mean time between link-delay windows"),
        ("duration", "--link-delay-duration", 10.0, "mean link-delay window length"),
        ("extra", "--link-delay-extra", 0.5, "extra per-message latency inside a window"),
    )),
)


class UsageError(Exception):
    """A flag value a verb rejects; :func:`main` exits with status 2."""


def _parameter_names():
    """Every overridable parameter name, flag-order.

    ``as_dict`` omits ``txn_classes`` when empty (digest neutrality),
    so the default instance's dict misses it; append it explicitly so
    the flag and :func:`_overrides` still see it.
    """
    names = list(SimulationParameters().as_dict())
    names.append("txn_classes")
    return names


def _add_parameter_flags(parser, skip=()):
    """Add one ``--<name>`` option per simulation parameter.

    Every subcommand that accepts a full configuration (simulate,
    trace, predict, faults) shares this generator, so new parameters
    and policy aliases appear everywhere at once.
    """
    defaults = SimulationParameters().as_dict()
    defaults.setdefault("txn_classes", "")
    for name in _parameter_names():
        if name in skip:
            continue
        value = defaults[name]
        kind = type(value)
        flags = ["--{}".format(name.replace("_", "-"))]
        if name in _FLAG_ALIASES:
            flags.append(_FLAG_ALIASES[name])
        help_text = "default: {!r}".format(value)
        if name == "txn_classes":
            help_text = (
                "comma-separated class specs name:fraction:maxtransize"
                "[:key=val]* (keys: dist, write, gran, prio, backoff, "
                "skew); requires --workload classes"
            )
        parser.add_argument(
            *flags,
            dest=name,
            type=kind if kind in (int, float) else str,
            default=None,
            help=help_text,
        )


def _add_shared(parser, *names, **overrides):
    """Add the :data:`_SHARED_FLAGS` *names* to *parser*.

    Each keyword adds one more shared flag, updating its options with
    the given dict (a verb-specific default, help text or nargs).
    """
    for name in names + tuple(overrides):
        flag, options = _SHARED_FLAGS[name]
        parser.add_argument(flag, **dict(options, **overrides.get(name, {})))


def _add_fault_flags(parser):
    """Add every :data:`_FAULT_SOURCES` flag to *parser*."""
    for _, _, fields in _FAULT_SOURCES:
        for index, (field, flag, default, help_text) in enumerate(fields):
            parser.add_argument(
                flag, type=float, default=default,
                metavar="F" if field == "factor" else "T",
                help=help_text
                + (" (enables this fault source)" if index == 0 else " (default %(default)s)"),
            )


def build_parser():
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-locking",
        description="Reproduce 'Locking Granularity in Multiprocessor "
        "Database Systems' (Dandamudi & Au, ICDE 1991).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, handler, help_text):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        return command

    verb("list", _command_list, "list reproducible exhibits")

    policies = verb(
        "policies", _command_policies,
        "list the pluggable policy layers and registered names",
    )
    policies.add_argument(
        "layer", nargs="?", default=None,
        help="only this layer (cc, admission, workload, arrival, "
        "placement, partitioning, conflict)",
    )

    run = verb("run", _command_run, "run one exhibit's full sweep")
    run.add_argument("exhibit", help="table1, fig2..fig12, 2..12, or an ablation key")
    _add_shared(
        run, "tmax", "replications", "jobs", "save", "json", "no_cache",
        "cache_dir", "resume",
        svg=dict(metavar="DIR", help="write one SVG chart per y field into DIR"),
        journal=dict(
            help="record completed cells to this crash-safe journal "
            "(default with --resume: <cache>/journals/<exhibit>.journal)",
        ),
        metrics_port=dict(
            help="also serve /metrics (Prometheus text) and /metrics.json "
            "on this port while the sweep runs (implies --metrics; 0 "
            "picks a free port)",
        ),
    )
    run.add_argument(
        "--quick", action="store_true", help="small grid and short horizon"
    )
    run.add_argument("--plot", action="store_true", help="ASCII plot per y field")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results, re-simulate and overwrite them",
    )
    run.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="per-replication wall-clock watchdog; stalled cells are "
        "killed and retried",
    )
    run.add_argument(
        "--watchdog-retries", type=int, default=2, metavar="N",
        help="retries per stalled cell before the sweep fails (default 2)",
    )
    run.add_argument(
        "--accelerator", default=None, choices=("analytic",),
        help="prune the sweep with the analytic mean-value model: "
        "simulate only curve endpoints, the predicted optimum and "
        "flagged cells; fill the rest from predictions (journalled "
        "with provenance 'analytic', never cached)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="collect live metrics (lock-wait histograms, abort "
        "causes, sweep progress); results stay bit-identical",
    )
    run.add_argument(
        "--metrics-snapshot", default=None, metavar="PATH",
        help="periodic JSON metrics snapshot file (implies --metrics; "
        "default with --journal: <journal>.metrics.json — where 'top' "
        "looks)",
    )

    top = verb(
        "top", _command_top,
        "live dashboard for a running journalled sweep "
        "(progress, ev/s, hot granules, ETA)",
    )
    top.add_argument("journal", help="the sweep's --journal path to tail")
    top.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="metrics snapshot file (default: <journal>.metrics.json)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until the sweep finishes)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (scriptable; no ANSI)",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep refreshing after the journal records a clean finish",
    )

    predict = verb(
        "predict", _command_predict,
        "analytic prediction of one configuration (no simulation)",
    )
    _add_shared(
        predict, "json",
        ltot_grid=dict(help="predict a whole granularity curve instead of one cell"),
    )
    _add_parameter_flags(predict)

    crossval = verb(
        "crossval", _command_crossval,
        "validate the analytic model against the simulator",
    )
    crossval.add_argument(
        "exhibit", nargs="?", default="ablation_analytic",
        help="exhibit grid to validate on (default ablation_analytic; "
        "use fig2 for the thorough run)",
    )
    _add_shared(
        crossval, "tmax", "replications", "jobs", "field", "ltot_grid",
        "json", "no_cache", "cache_dir",
        svg=dict(help="write the sim-vs-analytic overlay chart"),
    )
    crossval.add_argument(
        "--cc", dest="protocol", default=None,
        help="override the cc protocol (granule-level protocols "
        "switch the conflict engine to 'explicit' automatically)",
    )
    crossval.add_argument(
        "--npros-grid", default=None, metavar="N1,N2,...",
        help="override the spec's npros sweep (the exhibit must have one)",
    )
    crossval.add_argument(
        "--max-mean-error", type=float, default=None, metavar="FRAC",
        help="exit with status 1 if the mean relative error exceeds "
        "this fraction (the CI gate)",
    )
    crossval.add_argument(
        "--min-completions", type=float, default=None, metavar="N",
        help="flag cells with fewer completed transactions as "
        "low-sample and exclude them from the mean (default 25)",
    )

    faults = verb(
        "faults", _command_faults,
        "availability-vs-granularity sweep under injected faults",
    )
    _add_shared(
        faults, "jobs", "save", "journal", "resume", "metrics_port",
        ltot_grid=dict(
            default="10,100,1000",
            help="lock-count grid to sweep (default %(default)s)",
        ),
        replications=dict(default=3),
        json=dict(
            _OPTIONAL_PATH,
            help="emit the table as JSON (to PATH, or stdout when the "
            "flag is given bare) — same shape as 'report --json': a "
            "document with the plan, its digest and the rows",
        ),
    )
    _add_fault_flags(faults)
    faults.add_argument(
        "--backoff", default="uniform", choices=BACKOFF_POLICIES,
        help="retry backoff policy (default uniform)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=None, metavar="S",
        help="dedicated fault-schedule seed (default: the run seed)",
    )
    faults.add_argument(
        "--commit-grid", default=None, metavar="P1,P2,...",
        help="also sweep commit protocols (e.g. 2pc,primary-copy; "
        "needs --nnodes >= 2) — the availability-under-partition table",
    )
    _add_parameter_flags(faults, skip=("ltot",))

    one = verb("simulate", _command_simulate, "run a single configuration")
    _add_parameter_flags(one)
    one.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="print the first N transaction lifecycle events",
    )

    trace = verb(
        "trace", _command_trace,
        "run one configuration with full telemetry exported to JSONL",
    )
    trace.add_argument(
        "--out", default="telemetry.jsonl", metavar="PATH",
        help="telemetry JSONL output path (default: telemetry.jsonl)",
    )
    trace.add_argument(
        "--sample-interval", type=float, default=5.0, metavar="DT",
        help="simulated time between time-series samples (0 disables)",
    )
    trace.add_argument(
        "--print", type=int, default=0, metavar="N", dest="print_events",
        help="also print the first N lifecycle events",
    )
    _add_parameter_flags(trace)

    report = verb("report", _command_report, "summarise a telemetry JSONL file")
    report.add_argument("telemetry", help="telemetry JSONL path (from 'trace')")
    report.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-blockers / hot-granules tables",
    )
    _add_shared(
        report,
        svg=dict(help="also write the utilisation timeline as an SVG chart"),
        json=dict(
            _OPTIONAL_PATH,
            help="emit the report as JSON instead of text (to PATH, or "
            "stdout when the flag is given bare)",
        ),
    )

    compare = verb(
        "compare", _command_compare,
        "diff two result CSVs (e.g. before/after a change)",
    )
    compare.add_argument("baseline", help="baseline CSV path")
    compare.add_argument("candidate", help="candidate CSV path")
    _add_shared(compare, "field")
    compare.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative change flagged as a regression/improvement",
    )
    return parser


def _overrides(args, skip=()):
    """The simulation parameters given on the command line, by name."""
    return {
        name: getattr(args, name)
        for name in _parameter_names()
        if name not in skip and getattr(args, name, None) is not None
    }


def _grid(args, name, kind=int):
    """The comma list of ``--<name>`` as a tuple of *kind* values.

    Parsed by the verb rather than as an argparse ``type``, so the
    namespace keeps the flag's text; a malformed or empty list is a
    :class:`UsageError` naming the flag.
    """
    text = getattr(args, name)
    try:
        values = tuple(kind(v.strip()) for v in text.split(",") if v.strip())
    except ValueError:
        values = ()
    if not values:
        raise UsageError(
            "--{}: expected a comma-separated list of {} values, got {!r}".format(
                name.replace("_", "-"), kind.__name__, text
            )
        )
    return values


def _cache_arg(args):
    """The runner's ``cache`` argument for ``--no-cache``/``--cache-dir``."""
    if args.no_cache:
        return False
    if args.cache_dir:
        from repro.experiments.cache import ResultCache

        return ResultCache(args.cache_dir)
    return None  # default on-disk cache (REPRO_CACHE=0 disables)


def _sweep(args, spec, metrics, interrupted, **options):
    """Run *spec* for ``run`` or ``faults``; ``None`` when interrupted.

    Serves *metrics* on ``--metrics-port`` while the sweep runs, turns
    Ctrl-C into the *interrupted* lines (the caller exits 130), and
    reports the cells resumed from the journal.
    """
    server = None
    if args.metrics_port is not None:
        from repro.obs.exporters import MetricsServer

        server = MetricsServer(metrics, port=args.metrics_port)
        server.start()
        print(
            "Serving metrics at http://{}:{}/metrics (and /metrics.json)".format(
                server.host, server.port
            )
        )
    try:
        result = run_experiment(
            spec,
            replications=args.replications,
            jobs=args.jobs,
            resume=args.resume,
            drain_signals=True,
            metrics=metrics,
            **options
        )
    except KeyboardInterrupt:
        sys.stderr.write("\n")
        print("\n".join(interrupted))
        return None
    finally:
        if server is not None:
            server.stop()
    if result.stats.resumed:
        print(
            "Resumed {} previously completed cells from the journal.".format(
                result.stats.resumed
            )
        )
    return result


def _command_list(_args):
    print("Reproducible exhibits:")
    for key in EXHIBITS:
        spec = EXHIBITS[key]()
        points = len(spec.configurations())
        print("  {:22s} {:4d} configs  {}".format(key, points, spec.title))
    return 0


def _command_policies(args):
    """List the policy registry, layer by layer."""
    import difflib

    from repro.policies import PARAM_FIELDS, registry

    loaded = registry.load_entry_points()
    layers = registry.layers()
    if args.layer is not None and args.layer not in layers:
        message = "unknown policy layer {!r}; layers: {}".format(
            args.layer, ", ".join(layers)
        )
        close = difflib.get_close_matches(args.layer, layers, n=1, cutoff=0.5)
        if close:
            message += ". Did you mean {!r}?".format(close[0])
        print(message, file=sys.stderr)
        return 2
    for layer in layers if args.layer is None else (args.layer,):
        field = PARAM_FIELDS.get(layer)
        selector = (
            " (selected by --{}{})".format(
                field.replace("_", "-"),
                " / " + _FLAG_ALIASES[field] if field in _FLAG_ALIASES else "",
            )
            if field
            else ""
        )
        print("{}{}".format(layer, selector))
        for _layer, name, doc in registry.describe(layer):
            print("  {:14s} {}".format(name, doc))
    if loaded:
        print("({} policies loaded from entry points)".format(loaded))
    return 0


def _command_run(args):
    spec = get_exhibit(args.exhibit)
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.quick:
        spec = spec.scaled(
            tmax=args.tmax or QUICK_TMAX, ltot_grid=QUICK_LTOT_GRID, **changes
        )
    elif args.tmax is not None or changes:
        spec = spec.scaled(tmax=args.tmax, **changes)

    total = len(spec.configurations())
    print(
        "Running {} ({} configurations, tmax={}, replications={})".format(
            spec.key, total, spec.base.tmax, args.replications
        )
    )

    started = time.perf_counter()

    def cell_progress(done, of, info):
        sys.stderr.write(
            "\r  {}/{} cells  [{}: {}{}]  {:.1f}s elapsed   ".format(
                done, of, info["source"], info["label"],
                ""
                if info["seconds"] is None
                else " in {:.2f}s".format(info["seconds"]),
                time.perf_counter() - started,
            )
        )
        sys.stderr.flush()
        if done == of:
            sys.stderr.write("\n")

    journal = args.journal
    if journal is None and args.resume:
        import os

        from repro.experiments.cache import default_cache_dir

        root = args.cache_dir or default_cache_dir()
        journal = os.path.join(root, "journals", spec.key + ".journal")

    # Live metrics are purely additive: the registry never schedules
    # events or draws randomness, so --metrics cannot change results.
    metrics = None
    metrics_snapshot = args.metrics_snapshot
    if args.metrics or args.metrics_port is not None or metrics_snapshot is not None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.top import default_snapshot_path

        metrics = MetricsRegistry()
        if metrics_snapshot is None and journal is not None:
            metrics_snapshot = default_snapshot_path(journal)
        if metrics_snapshot is not None:
            print("Metrics snapshots -> {}".format(metrics_snapshot))
    result = _sweep(
        args, spec, metrics,
        (
            "Interrupted; progress drained to the journal and cache.",
            "Resume with: repro-locking run {} --resume --journal {}".format(
                args.exhibit, journal
            )
            if journal is not None
            else "Re-running the same command will reuse cached cells; "
            "pass --journal/--resume for journalled progress.",
        ),
        cell_progress=cell_progress,
        cache=_cache_arg(args),
        refresh=args.refresh,
        journal=journal,
        watchdog=args.watchdog,
        watchdog_retries=args.watchdog_retries,
        accelerator=args.accelerator,
        metrics_snapshot=metrics_snapshot,
    )
    if result is None:
        return 130
    print(result.stats.summary())
    if metrics is not None:
        from repro.obs.metrics import summarize_snapshot

        flat = summarize_snapshot(metrics.snapshot())
        counters = flat["counters"]
        commits = counters.get("repro_txn_commits_total", 0)
        if commits:
            aborts = sum(
                value for name, value in counters.items()
                if name.startswith("repro_txn_aborts_total")
            )
            print(
                "Metrics: {:.0f} commits, {:.0f} aborts, "
                "{:.0f} lock waits across the sweep.".format(
                    commits, aborts,
                    sum(
                        entry["count"]
                        for name, entry in flat["histograms"].items()
                        if name.startswith("repro_lock_wait_time")
                    ),
                )
            )
    from repro.experiments.report import accelerator_note

    note = accelerator_note(result.stats)
    if note:
        print(note)
    if result.stats.watchdog_restarts:
        print(
            "Watchdog killed and retried {} stalled cells.".format(
                result.stats.watchdog_restarts
            )
        )
    for y_field in spec.y_fields:
        print()
        print(format_series_table(result, y_field))
        print()
        print(summarize_optima(result, y_field))
        if args.plot:
            print()
            print(ascii_plot(result, y_field))
    if spec.expected_shape:
        print()
        print("Expected shape: {}".format(spec.expected_shape))
    if args.save:
        save_rows_csv(result.rows(), args.save)
        print("Rows written to {}".format(args.save))
    if args.json:
        save_rows_json(
            result.rows(), args.json, metadata={"exhibit": spec.key}
        )
        print("Rows written to {}".format(args.json))
    if args.svg:
        import os

        from repro.experiments.svg import save_result_charts

        os.makedirs(args.svg, exist_ok=True)
        for path in save_result_charts(result, args.svg):
            print("Chart written to {}".format(path))
    return 0


def _command_predict(args):
    """Analytic prediction(s) — milliseconds, no simulation."""
    from repro.analytic.mva import predict

    base = SimulationParameters(**_overrides(args))
    if args.ltot_grid:
        configs = [base.replace(ltot=ltot) for ltot in _grid(args, "ltot_grid")]
    else:
        configs = [base]
    fields = (
        "throughput", "response_time", "blocking_prob",
        "lock_overhead_frac", "effective_mpl", "attempts",
    )
    print(
        "{:>8s}".format("ltot")
        + "".join("{:>20s}".format(f) for f in fields)
        + "  {}".format("flags")
    )
    rows = []
    for params in configs:
        prediction = predict(params)
        flags = []
        if not prediction.converged:
            flags.append("not converged")
        if prediction.uncertainty >= 0.5:
            flags.append("uncertain ({:.2f})".format(prediction.uncertainty))
        print(
            "{:>8d}".format(params.ltot)
            + "".join(
                "{:>20.6g}".format(getattr(prediction, f)) for f in fields
            )
            + "  {}".format(", ".join(flags))
        )
        for entry in prediction.per_class:
            print(
                "{:>8s}  class {}: throughput={:.6g} "
                "response_time={:.6g} attempts={:.6g}".format(
                    "", entry["txn_class"], entry["throughput"],
                    entry["response_time"], entry["mean_attempts"],
                )
            )
        rows.append(prediction.as_dict())
    print(
        "(semantics: {}; analytic mean-value model — validate with "
        "'repro-locking crossval')".format(prediction.semantics)
    )
    if args.json:
        save_rows_json(rows, args.json, metadata={"provenance": "analytic"})
        print("Predictions written to {}".format(args.json))
    return 0


def _command_crossval(args):
    """Validate the analytic model against the simulator on a grid."""
    import json

    from repro.experiments.crossval import (
        MIN_COMPLETIONS,
        cross_validate_analytic,
        save_crossval_chart,
    )

    spec = get_exhibit(args.exhibit)
    changes = {}
    if args.protocol:
        from repro.policies import registry

        changes["protocol"] = args.protocol
        if getattr(registry.resolve("cc", args.protocol), "needs_granules", False):
            changes["conflict_engine"] = "explicit"
    if args.npros_grid:
        if "npros" not in spec.sweeps:
            raise UsageError(
                "--npros-grid: exhibit {} has no npros sweep to override".format(
                    spec.key
                )
            )
        changes["replace_sweeps"] = {"npros": _grid(args, "npros_grid")}
    if args.ltot_grid:
        changes["ltot_grid"] = _grid(args, "ltot_grid")
    if args.tmax is not None or changes:
        spec = spec.scaled(tmax=args.tmax, **changes)
    print(
        "Cross-validating {} ({} configurations, tmax={}) against the "
        "analytic model...".format(
            spec.key, len(spec.configurations()), spec.base.tmax
        )
    )
    crossval, _result = cross_validate_analytic(
        spec,
        field=args.field,
        replications=args.replications,
        min_completions=(
            args.min_completions
            if args.min_completions is not None
            else MIN_COMPLETIONS
        ),
        jobs=args.jobs,
        cache=_cache_arg(args),
    )
    print(crossval.format())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(crossval.as_dict(), handle, indent=2)
        print("Comparison written to {}".format(args.json))
    if args.svg:
        save_crossval_chart(crossval, args.svg)
        print("Overlay chart written to {}".format(args.svg))
    if args.max_mean_error is not None:
        if not crossval.passes(args.max_mean_error):
            print(
                "FAIL: mean relative error {:.1%} exceeds the {:.1%} "
                "bound".format(
                    crossval.mean_relative_error, args.max_mean_error
                )
            )
            return 1
        print(
            "PASS: mean relative error {:.1%} within the {:.1%} "
            "bound".format(crossval.mean_relative_error, args.max_mean_error)
        )
    return 0


def _fault_plan(args):
    """The :class:`~repro.faults.FaultPlan` the fault-source flags describe."""
    sources = {}
    for plan_field, spec_class, fields in _FAULT_SOURCES:
        values = {
            field: getattr(args, flag[2:].replace("-", "_"))
            for field, flag, _, _ in fields
        }
        enabled = values[fields[0][0]] is not None
        sources[plan_field] = (spec_class(**values),) if enabled else ()
    return FaultPlan(seed=args.fault_seed, **sources)


def _command_faults(args):
    """Availability-vs-granularity sweep under an injected fault plan.

    Faulted runs are *not* cached: the fault plan is harness input
    that deliberately stays outside the content address, so results
    go straight from the model to the table (and are reproducible
    from the seeds alone).  With ``--journal``/``--resume`` each
    cell's outputs are journalled inline instead, which is what an
    interrupted faulted sweep resumes from, bit-identically.
    """
    import json as json_module
    from dataclasses import asdict

    from repro.experiments.config import ExperimentSpec

    overrides = _overrides(args, skip=("ltot",))
    sweeps = {}
    series_fields = ()
    if args.commit_grid:
        protocols = _grid(args, "commit_grid", kind=str)
        nnodes = overrides.get("nnodes", SimulationParameters().nnodes)
        if nnodes < 2 and any(p != "local" for p in protocols):
            raise UsageError(
                "--commit-grid with distributed protocols needs --nnodes >= 2"
            )
        sweeps["commit_protocol"] = protocols
        series_fields = ("commit_protocol",)
    sweeps["ltot"] = ltots = _grid(args, "ltot_grid")
    plan = _fault_plan(args)
    if not plan.enabled():
        enablers = [fields[0][1] for _, _, fields in _FAULT_SOURCES]
        print(
            "No fault source enabled (pass {} or {}); running fault-free "
            "baseline.".format(", ".join(enablers[:-1]), enablers[-1])
        )
    backoff = make_backoff_policy(args.backoff)
    distributed = overrides.get("nnodes", 1) > 1 or bool(args.commit_grid)
    fields = (
        "throughput",
        "availability",
        "failure_aborts",
        "degraded_throughput",
        "response_time",
    )
    if distributed:
        fields += (
            "commit_aborts",
            "commit_latency",
            "messages_sent",
            "messages_dropped",
            "partition_time",
        )
    try:
        spec = ExperimentSpec(
            key="faults",
            title="Availability vs granularity under injected faults",
            base=SimulationParameters(**overrides),
            sweeps=sweeps,
            series_fields=series_fields,
            y_fields=("availability", "throughput"),
        )
        configs = spec.configurations()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(
        "Faulted sweep: ltot in {}, {} replications, backoff={}{}".format(
            list(ltots), args.replications, args.backoff,
            ", commit in {}".format(list(sweeps["commit_protocol"]))
            if "commit_protocol" in sweeps else "",
        )
    )
    metrics = None
    if args.metrics_port is not None:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    interrupted = ["Interrupted; progress drained to the journal."]
    if args.journal is not None:
        interrupted.append(
            "Resume by re-running the same command with --resume "
            "--journal {}".format(args.journal)
        )
    result = _sweep(
        args, spec, metrics, interrupted,
        cache=False,
        journal=args.journal,
        fault_plan=plan,
        backoff=backoff,
    )
    if result is None:
        return 130
    label_width = max(
        (len(spec.series_label(c)) for c in configs), default=0
    )
    header = "{:>8s}".format("ltot") + "".join(
        "{:>20s}".format(f) for f in fields
    )
    if series_fields:
        header = "{:<{w}s}".format("series", w=label_width + 2) + header
    print(header)
    rows = []
    for outcome in result.outcomes:
        row = {}
        for name in series_fields:
            row[name] = getattr(outcome.params, name)
        row["ltot"] = outcome.params.ltot
        for f in fields:
            row[f] = outcome.mean(f)
        rows.append(row)
        line = "{:>8d}".format(row["ltot"]) + "".join(
            "{:>20.6g}".format(row[f]) for f in fields
        )
        if series_fields:
            line = "{:<{w}s}".format(
                spec.series_label(outcome.params), w=label_width + 2
            ) + line
        print(line)
    if args.save:
        save_rows_csv(rows, args.save)
        print("Rows written to {}".format(args.save))
    if args.json is not None:
        document = {
            "plan": asdict(plan),
            "plan_digest": plan.digest(),
            "backoff": args.backoff,
            "replications": args.replications,
            "rows": rows,
        }
        if args.json == "-":
            json_module.dump(document, sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            with open(args.json, "w") as handle:
                json_module.dump(document, handle, indent=1, sort_keys=True)
            print("JSON table written to {}".format(args.json))
    return 0


def _command_simulate(args):
    overrides = _overrides(args)
    if args.trace:
        from repro.core.model import LockingGranularityModel
        from repro.des.trace import Trace

        trace = Trace()
        model = LockingGranularityModel(
            SimulationParameters(**overrides), trace=trace
        )
        result = model.run()
        print(trace.format(limit=args.trace))
        print("({} events total)".format(len(trace)))
    else:
        result = simulate(**overrides)
    print("Parameters:")
    for key, value in sorted(result.params.as_dict().items()):
        print("  {:24s} {}".format(key, value))
    print("Outputs:")
    for name in RESULT_FIELDS:
        print("  {:24s} {}".format(name, getattr(result, name)))
    for entry in result.per_class:
        print("Class {}:".format(entry["txn_class"]))
        for key, value in entry.items():
            if key != "txn_class":
                print("  {:24s} {}".format(key, value))
    return 0


def _command_trace(args):
    from repro.core.model import MODEL_VERSION, LockingGranularityModel
    from repro.obs.manifest import build_manifest, write_manifest
    from repro.obs.sinks import JsonlTraceSink, load_trace
    from repro.obs.telemetry import Telemetry

    params = SimulationParameters(**_overrides(args))
    sink = JsonlTraceSink(
        args.out,
        params=params.as_dict(),
        model_version=MODEL_VERSION,
        seed=params.seed,
    )
    telemetry = Telemetry(sink=sink, sample_interval=args.sample_interval)
    started = time.perf_counter()
    result = LockingGranularityModel(params, telemetry=telemetry).run()
    wall = time.perf_counter() - started
    telemetry.finish(
        totcom=result.totcom,
        throughput=result.throughput,
        wall_seconds=round(wall, 4),
    )
    manifest_path = args.out + ".manifest"
    write_manifest(
        manifest_path,
        build_manifest(params, cache_hit=False, wall_seconds=wall),
    )
    if args.print_events:
        print(load_trace(args.out).to_trace().format(limit=args.print_events))
    print(
        "Telemetry written to {} ({} events, {} samples) "
        "+ manifest {}".format(
            args.out, sink.events, sink.samples, manifest_path
        )
    )
    print(
        "Run: totcom={} throughput={:.4g} in {:.2f}s".format(
            result.totcom, result.throughput, wall
        )
    )
    return 0


def _command_report(args):
    from repro.obs.report import format_report, report_json, save_report_chart
    from repro.obs.sinks import load_trace

    tracefile = load_trace(args.telemetry)
    if args.json is not None:
        import json

        document = report_json(tracefile, top=args.top)
        if args.json == "-":
            json.dump(document, sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            with open(args.json, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
            print("JSON report written to {}".format(args.json))
    else:
        print(format_report(tracefile, top=args.top))
    if args.svg:
        path = save_report_chart(tracefile, args.svg)
        print()
        print("Timeline chart written to {}".format(path))
    return 0


def _command_top(args):
    from repro.obs.top import run_top

    try:
        journal = run_top(
            args.journal,
            snapshot_path=args.snapshot,
            interval=args.interval,
            frames=args.frames,
            once=args.once,
            follow=args.follow,
        )
    except KeyboardInterrupt:
        print()
        return 130
    return 0 if journal.get("cells") is not None else 1


def _command_compare(args):
    from repro.experiments.storage import load_rows_csv

    def key_of(row):
        return tuple(
            (name, row.get(name))
            for name in ("ltot", "npros", "placement", "maxtransize",
                         "partitioning", "ntrans", "liotime")
            if name in row
        )

    baseline = {key_of(row): row for row in load_rows_csv(args.baseline)}
    candidate = {key_of(row): row for row in load_rows_csv(args.candidate)}
    shared = [key for key in baseline if key in candidate]
    if not shared:
        print("No overlapping configurations between the two files.")
        return 1
    flagged = 0
    print("{:>60s}  {:>10s}  {:>10s}  {:>8s}".format(
        "configuration", "baseline", "candidate", "delta"))
    for key in shared:
        base_value = baseline[key].get(args.field)
        cand_value = candidate[key].get(args.field)
        if base_value in (None, 0) or cand_value is None:
            continue
        delta = (cand_value - base_value) / abs(base_value)
        label = ", ".join("{}={}".format(k, v) for k, v in key)
        mark = ""
        if abs(delta) >= args.threshold:
            flagged += 1
            mark = "  <-- {}".format("improved" if delta > 0 else "regressed")
        print("{:>60s}  {:>10.4g}  {:>10.4g}  {:>+7.1%}{}".format(
            label[-60:], base_value, cand_value, delta, mark))
    print("{} of {} shared configurations changed by >= {:.0%} in {}.".format(
        flagged, len(shared), args.threshold, args.field))
    return 0


def main(argv=None):
    """Entry point of the ``repro-locking`` console script.

    An unknown policy name (``--cc wond-wait``) or a flag value the
    verb rejects (``--ltot-grid 1,x``) exits with status 2 and a
    one-line error instead of a traceback.
    """
    from repro.policies import UnknownPolicyError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UnknownPolicyError, UsageError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        if isinstance(exc, UnknownPolicyError):
            print(
                "Run 'repro-locking policies' to list every registered "
                "policy.",
                file=sys.stderr,
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
