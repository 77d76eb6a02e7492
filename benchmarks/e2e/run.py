"""End-to-end benchmark of real exhibit cells, with a traced per-layer split.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload a,b] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--json OUT] [--quick]

Each workload runs in its own fresh child interpreter (``child.py``),
one child at a time, as a single-threaded closed loop: the next run
starts when the previous one ends.  The children get a hermetic
environment: no ``REPRO_*`` or other ``PYTHON*`` variable, only
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``.  An untimed child first
imports everything so the bytecode caches exist before any timing.

The output starts with a header (git SHA, ``MODEL_VERSION``, Python,
numpy/scipy presence, nproc, seed and repeat counts), then every metric
of every workload by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
its metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones; with several workloads each key is
``<workload>/<metric>``.  ``--json OUT`` writes the full document
(per-repeat samples, quartiles, check modes) that ``compare.py`` reads.
The exit code is 0 only if every run passed its output check.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Fresh interpreters whose set-up time is measured per workload: the
#: measuring child plus ``SETUPS - 1`` set-up-only children.
SETUPS = 5
#: Budget of one set-up-only child, and of a measuring child beyond
#: ``--seconds``.
PROBE_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 150.0


def child_env():
    """The parent's environment without ``REPRO_*`` and ``PYTHON*`` settings."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON")) or key == "PYTHONHOME"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(arguments, env, timeout):
    """Run ``child.py`` to completion; returns ``(document, None)`` or ``(None, error)``."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *arguments],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, "child timed out after {:.0f} s".format(timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, "child exited {}: {}".format(proc.returncode, tail[0])
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "child printed no JSON result"


def git_sha():
    """HEAD's commit, read from ``.git`` directly (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values):
    """Quartiles, count and raw samples of *values*."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_workload(name, args, env):
    """Measure one workload; returns its entry of the result document."""
    arguments = [
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", str(Path(args.expected).resolve()),
    ] + (["--quick"] if args.quick else [])
    attempted = failed = 0
    errors, setups = [], []
    for _ in range(0 if args.quick else SETUPS - 1):
        attempted += 1
        doc, error = spawn(arguments + ["--setup-only"], env, PROBE_TIMEOUT_S)
        if doc is None:
            failed += 1
            errors.append(error)
        else:
            setups.append(doc["setup_s"])
    doc, error = spawn(arguments, env, args.seconds + CHILD_TIMEOUT_S)
    metrics, check = {}, None
    if doc is None:
        attempted += 1
        failed += 1
        errors.append(error)
    else:
        attempted += doc["attempted"]
        failed += doc["failed"]
        errors.extend(doc["check"]["errors"])
        check = doc["check"]
        setups.append(doc["setup_s"])
        for metric, value in doc["metrics"].items():
            metrics[metric] = {"value": value}
            if doc["samples"].get(metric):
                metrics[metric].update(spread(doc["samples"][metric]))
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), **spread(setups)}
    return {
        "metrics": metrics,
        "check": check,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def print_workload(name, entry, declared):
    check = entry["check"] or {}
    print(
        "{}  check={}  attempted={} failed={}".format(
            name, check.get("mode"), entry["attempted"], entry["failed"]
        )
    )
    for error in entry["errors"]:
        print("  FAILED: " + error)
    for metric, unit in declared.items():
        measured = entry["metrics"].get(metric)
        if measured is None:
            continue
        line = "  {:<30} {:>14.6g} {:<6}".format(metric, measured["value"], unit)
        if "n" in measured:
            line += " q1={:.6g} q3={:.6g} n={}".format(
                measured["q1"], measured["q3"], measured["n"]
            )
        print(line)
    sys.stdout.flush()


def main(argv=None):
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the running child, instead of dying and orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "run.py: no src/repro package under {}; run from a full checkout".format(ROOT),
            file=sys.stderr,
        )
        return 2
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", default=",".join(names),
        help="comma-separated workloads (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--json", help="write the full result document here")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny horizon and one repeat: a self-test, never for comparisons",
    )
    parser.add_argument(
        "--expected", default=str(HERE / "expected.json"), help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    selected = args.workloads.split(",")
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error("unknown workload(s): {}".format(", ".join(unknown)))

    env = child_env()
    info, error = spawn(["--info"], env, PROBE_TIMEOUT_S)
    if info is None:
        print("run.py: the program does not import: " + error, file=sys.stderr)
        return 2
    header = {
        "git_sha": git_sha(),
        "model_version": info["model_version"],
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "setups": 1 if args.quick else SETUPS,
        "warmups": 1,
        "seconds": args.seconds,
        "min_repeats": info["min_repeats"],
        "trace": args.trace,
        "quick": args.quick,
    }
    print("# e2e benchmark " + " ".join("{}={}".format(k, v) for k, v in header.items()))
    sys.stdout.flush()

    declared = {
        metric["name"]: metric["unit"]
        for group in ("end_to_end", "per_layer")
        for metric in bench[group]
    }
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    results = {}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        entry = results[name] = run_workload(name, args, env)
        for metric, measured in entry["metrics"].items():
            measured["unit"] = declared.get(metric)
        print_workload(name, entry, declared)
        summary["attempted"] += entry["attempted"]
        summary["failed"] += entry["failed"]
        prefix = "" if len(selected) == 1 else name + "/"
        for metric in wanted:
            if metric not in entry["metrics"]:
                summary["correct"] = False
                continue
            summary["metrics"][prefix + metric] = {
                "value": entry["metrics"][metric]["value"],
                "unit": declared[metric],
            }
    summary["correct"] = summary["correct"] and summary["failed"] == 0
    if args.json:
        document = dict(
            header=header,
            workloads=results,
            correct=summary["correct"],
            attempted=summary["attempted"],
            failed=summary["failed"],
        )
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
