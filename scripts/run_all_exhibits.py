"""Regenerate every exhibit's data (the EXPERIMENTS.md source).

Runs all exhibits at a configurable horizon and writes one CSV and one
JSON per exhibit under ``results/``, plus a combined summary JSON.

Every selected exhibit is batched into ONE global work queue
(:func:`repro.experiments.runner.run_experiments`): all (cell,
replication) jobs across all exhibits are deduplicated by content
address — so figures 2–4, which share one grid, simulate it once — and
ordered longest-first, then run inline (``--jobs 0``) or packed onto
one worker pool (``--jobs N``), so cores never idle at exhibit
boundaries.  Either way the rows are identical.

``--check`` simulates nothing: it reads ``DIR/*.json`` and prints one
row per paper claim (exhibit, claim, verdict, the numbers compared),
exiting 1 when any claim fails.

Usage::

    python scripts/run_all_exhibits.py [--tmax 600] [--out results]
        [--npros-grid 1,10,30] [--only fig7,fig9] [--jobs 8]
    python scripts/run_all_exhibits.py --check [--out results]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.figures import EXHIBITS, FAILS, check_claims
from repro.experiments.runner import ExperimentResult, run_experiments
from repro.experiments.storage import load_rows_json, save_rows_csv, save_rows_json


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=float, default=600.0)
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--npros-grid", default="1,10,30",
        help="comma list replacing the npros sweep of figs 2-5 and 8",
    )
    parser.add_argument(
        "--only", default="",
        help="comma list of exhibit keys to run (default: all)",
    )
    parser.add_argument(
        "--svg", action="store_true",
        help="also write one SVG chart per exhibit y-field",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = inline)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results, re-simulate and overwrite them",
    )
    parser.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="per-replication wall-clock watchdog (stalled cells are "
        "killed and retried)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume interrupted sweeps from their journals",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="simulate nothing; check every paper claim against --out's JSON rows",
    )
    return parser.parse_args(argv)


def _format(value):
    if isinstance(value, float):
        return "{:.4g}".format(value)
    if isinstance(value, (list, tuple)):
        return "[{}]".format(", ".join(_format(v) for v in value))
    if isinstance(value, dict):
        return "{{{}}}".format(
            ", ".join("{}: {}".format(k, _format(v)) for k, v in value.items())
        )
    return str(value)


def check(out_dir):
    """Print every claim's verdict on the rows persisted in *out_dir*."""
    results = {}
    for key, builder in EXHIBITS.items():
        path = out_dir / "{}.json".format(key)
        if path.exists():
            rows = load_rows_json(path)["rows"]
            results[key] = ExperimentResult.from_rows(builder(), rows)
    failed = False
    for claim, verdict, numbers in check_claims(results):
        numbers = _format(numbers)[1:-1]  # a dict: drop its braces
        print("{:20s} {:38s} {:8s} {}".format(
            claim.exhibit, claim.name, verdict, numbers
        ).rstrip())
        failed = failed or verdict == FAILS
    return 1 if failed else 0


def _write_exhibit(key, spec, result, out_dir, summary, svg):
    """Persist one exhibit's rows, series and summary entry."""
    # Summed simulation time of the cells this exhibit ran; a cell
    # shared with an earlier exhibit of the batch counts there.
    compute = round(sum(config.seconds for config in result.stats.per_config), 1)
    rows = result.rows()
    save_rows_csv(rows, out_dir / "{}.csv".format(key))
    save_rows_json(
        rows,
        out_dir / "{}.json".format(key),
        metadata={
            "exhibit": key,
            "title": spec.title,
            "tmax": spec.base.tmax,
            "compute_seconds": compute,
            "cache_hits": result.stats.cache_hits,
            "simulated_runs": result.stats.runs,
        },
    )
    series = {
        y: {
            label: points
            for label, points in result.series(y).items()
        }
        for y in spec.y_fields
    }
    summary[key] = {
        "title": spec.title,
        "series": series,
        "compute_seconds": compute,
    }
    if svg:
        from repro.experiments.svg import save_result_charts

        save_result_charts(result, str(out_dir), prefix=key)


def main(argv=None):
    args = parse_args(argv)
    out_dir = Path(args.out)
    if args.check:
        return check(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    npros_grid = tuple(int(x) for x in args.npros_grid.split(","))
    only = {key.strip() for key in args.only.split(",") if key.strip()}

    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        with open(summary_path) as handle:
            summary = json.load(handle)
    else:
        summary = {}

    selected = []
    for key, builder in EXHIBITS.items():
        if only and key not in only:
            continue
        spec = builder().scaled(tmax=args.tmax)
        if "npros" in spec.sweeps and len(spec.sweeps["npros"]) > 3:
            spec = spec.scaled(replace_sweeps={"npros": npros_grid})
        selected.append((key, spec))

    started = time.time()
    try:
        results = run_experiments(
            [spec for _, spec in selected],
            jobs=args.jobs,
            cache=False if args.no_cache else None,
            refresh=args.refresh,
            # One crash-safe journal per exhibit: an interrupted
            # regeneration resumes with --resume.
            journals=[
                str(out_dir / ".journals" / (key + ".journal"))
                for key, _ in selected
            ],
            resume=args.resume,
            watchdog=args.watchdog,
            drain_signals=True,
            # Live per-replication progress: every resolved cell (cache
            # hit or finished run) updates the line.
            cell_progress=lambda done, total, info: print(
                "\r  {} {}/{} cells [{}: {}]   ".format(
                    info["spec"], done, total, info["source"], info["label"]
                ),
                end="", file=sys.stderr, flush=True,
            ),
        )
    except KeyboardInterrupt:
        print(file=sys.stderr)
        print(
            "interrupted; progress journalled per exhibit — rerun "
            "with --resume to continue"
        )
        return 130
    print(file=sys.stderr)
    elapsed = time.time() - started
    for (key, spec), result in zip(selected, results):
        _write_exhibit(key, spec, result, out_dir, summary, args.svg)
        print("done {} ({})".format(key, result.stats.summary()))
    if results:
        stats = results[0].stats
        print(
            "global queue: {} workers, occupancy {:.0%}, {:.0f}s wall".format(
                stats.workers, stats.occupancy, elapsed
            )
        )
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print("wrote {}/summary.json".format(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
