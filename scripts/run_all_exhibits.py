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

Usage::

    python scripts/run_all_exhibits.py [--tmax 600] [--out results]
        [--npros-grid 1,10,30] [--only fig7,fig9] [--jobs 8]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.figures import EXHIBITS
from repro.experiments.runner import run_experiments
from repro.experiments.storage import save_rows_csv, save_rows_json


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
    return parser.parse_args(argv)


def _write_exhibit(key, spec, result, elapsed, out_dir, summary, svg):
    """Persist one exhibit's rows, series and summary entry."""
    rows = result.rows()
    save_rows_csv(rows, out_dir / "{}.csv".format(key))
    save_rows_json(
        rows,
        out_dir / "{}.json".format(key),
        metadata={
            "exhibit": key,
            "title": spec.title,
            "tmax": spec.base.tmax,
            "elapsed_seconds": round(elapsed, 1),
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
        "elapsed_seconds": round(elapsed, 1),
    }
    if svg:
        from repro.experiments.svg import save_result_charts

        save_result_charts(result, str(out_dir), prefix=key)


def main(argv=None):
    args = parse_args(argv)
    out_dir = Path(args.out)
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
        _write_exhibit(key, spec, result, elapsed, out_dir, summary, args.svg)
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
