"""Compare two ``run.py --json`` documents under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the reference (the parent commit), B the candidate.  One row per
(workload, end-to-end metric), where the change is B's median against
A's, signed so that positive is worse:

* ``unresolved``: either side's spread, (q3 - q1) / median, is wider
  than the bound, so the runs cannot tell;
* ``worse`` / ``better``: the change is beyond the bound;
* ``within``: otherwise.

B must also keep every ``sim.*`` counter and every output digest
identical, and must not fail a larger fraction of its runs.  The exit
code is 1 on any ``worse`` row or any such mismatch, else 0.  A
document inside ``baseline.json`` is named ``baseline.json#N``, the
N-th entry of its ``runs``.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(name):
    path, _, index = name.partition("#")
    with open(path) as handle:
        document = json.load(handle)
    return document["runs"][int(index)] if index else document


def relative_spread(metric):
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a, b, better, bound):
    """``(verdict, change)`` of metric *b* against reference *a*."""
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        change = -change
    if max(relative_spread(a), relative_spread(b)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def failed_frac(entry):
    return entry["failed"] / max(entry["attempted"], 1)


def compare(a, b, bench):
    """Rows ``(workload, metric, verdict, change, a, b, bound)`` and mismatch messages."""
    rows, problems = [], []
    for key in ("seed", "quick"):
        if a["header"][key] != b["header"][key]:
            problems.append("the documents differ in {}".format(key))
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            problems.append("{}: missing from B".format(name))
            continue
        for metric in bench["end_to_end"]:
            ma = wa["metrics"].get(metric["name"])
            mb = wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                problems.append("{}: {} not measured".format(name, metric["name"]))
                continue
            outcome, change = verdict(ma, mb, metric["better"], metric["bound"])
            rows.append(
                (name, metric["name"], outcome, change, ma["value"], mb["value"], metric["bound"])
            )
        for key in sorted(k for k in wa["metrics"] if k.startswith("sim.")):
            if wa["metrics"][key]["value"] != wb["metrics"].get(key, {}).get("value"):
                problems.append("{}: {} differs".format(name, key))
        if (wa["check"] or {}).get("digest") != (wb["check"] or {}).get("digest"):
            problems.append("{}: output digest differs".format(name))
        if failed_frac(wb) > failed_frac(wa):
            problems.append(
                "{}: failed runs {}/{} against {}/{}".format(
                    name, wb["failed"], wb["attempted"], wa["failed"], wa["attempted"]
                )
            )
    return rows, problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    rows, problems = compare(load(argv[0]), load(argv[1]), bench)
    for name, metric, outcome, change, a, b, bound in rows:
        print(
            "{:<16} {:<12} {:<10} {:+7.1%}  A={:<10.4g} B={:<10.4g} bound={:.0%}".format(
                name, metric, outcome, change, a, b, bound
            )
        )
    for problem in problems:
        print("MISMATCH " + problem)
    worse = any(row[2] == "worse" for row in rows)
    return 1 if worse or problems else 0


if __name__ == "__main__":
    sys.exit(main())
