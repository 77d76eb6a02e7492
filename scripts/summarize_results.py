"""Print per-exhibit key numbers from results/*.json (EXPERIMENTS.md helper).

Usage::

    python scripts/summarize_results.py [--dir results] [exhibit ...]
"""

import argparse
import sys
from pathlib import Path

from repro.experiments.figures import EXHIBITS
from repro.experiments.runner import ExperimentResult
from repro.experiments.storage import load_rows_json


def describe(key, directory):
    path = directory / "{}.json".format(key)
    if not path.exists():
        print("{}: no data file".format(key))
        return
    spec = EXHIBITS[key]()
    result = ExperimentResult.from_rows(spec, load_rows_json(path)["rows"])
    print("== {} ==".format(key))
    for y_field in spec.y_fields:
        for label, points in sorted(result.series(y_field).items()):
            values = {x: y for x, y in points if y is not None}
            if not values:
                continue
            best_x = max(values, key=values.get)
            worst_x = min(values, key=values.get)
            xs = sorted(values)
            print(
                "  {:12s} {:28s} first({}={:.4g}) best({}={:.4g}) "
                "worst({}={:.4g}) last({}={:.4g})".format(
                    y_field, label,
                    xs[0], values[xs[0]],
                    best_x, values[best_x],
                    worst_x, values[worst_x],
                    xs[-1], values[xs[-1]],
                )
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="results")
    parser.add_argument("exhibits", nargs="*", default=[])
    args = parser.parse_args(argv)
    directory = Path(args.dir)
    keys = args.exhibits or list(EXHIBITS)
    for key in keys:
        describe(key, directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
