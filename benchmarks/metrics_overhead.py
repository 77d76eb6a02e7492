"""Live-metrics overhead gate on the Fig. 12 end-to-end cell.

Run from the repository root::

    python3 benchmarks/metrics_overhead.py

Simulates the ``fig12_heavy`` cell of ``benchmarks/e2e/`` (parameters
imported from its ``workloads.CELLS``, seed 1) in alternating pairs: a
fresh bare model against a fresh model with a ``MetricsRegistry``
attached.  After one untimed warm-up per side, each of the ``PAIRS``
pairs times both sides (construction plus ``run()``), alternating which
side runs first so warm caches favour neither.

Exit status 1 when either

* the two sides' ``as_dict()`` results differ in any pair (metrics must
  never change a result), or
* the subscribed side is slower in at least 9 of the 10 pairs *and* its
  median exceeds the bare median by more than both ``BUDGET`` and the
  bare side's interquartile range.

This is the alternating-pair rule of every other perf gate: a single
run, or a best-of-N, at this cell's size measures scheduler jitter.
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro import LockingGranularityModel, SimulationParameters  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from workloads import CELLS  # noqa: E402

PAIRS = 10
#: Pairs the subscribed side must lose before the gate can fail.
LOSSES_TO_FAIL = 9
#: Relative median overhead allowed for live metrics.
BUDGET = 0.05


def timed(params, subscribed):
    """``(seconds, result dict)`` of one fresh model run."""
    observers = {"metrics_registry": MetricsRegistry()} if subscribed else {}
    start = time.perf_counter()
    result = LockingGranularityModel(params, **observers).run()
    return time.perf_counter() - start, result.as_dict()


def main():
    params = SimulationParameters(**CELLS["fig12_heavy"][0]).replace(seed=1)
    timed(params, False)
    timed(params, True)
    bare, subscribed = [], []
    for pair in range(PAIRS):
        sides = (False, True) if pair % 2 == 0 else (True, False)
        runs = {side: timed(params, side) for side in sides}
        if runs[False][1] != runs[True][1]:
            print("pair {}: live metrics changed the result".format(pair + 1))
            return 1
        bare.append(runs[False][0])
        subscribed.append(runs[True][0])

    losses = sum(s > b for b, s in zip(bare, subscribed))
    bare_median = statistics.median(bare)
    overhead = statistics.median(subscribed) - bare_median
    q1, _, q3 = statistics.quantiles(bare, n=4)
    print(
        "fig12_heavy, {} alternating pairs: bare median {:.4f} s "
        "(IQR {:.4f} s), live metrics {:+.1%}, slower in {}/{}".format(
            PAIRS, bare_median, q3 - q1, overhead / bare_median, losses, PAIRS
        )
    )
    if (
        losses >= LOSSES_TO_FAIL
        and overhead > BUDGET * bare_median
        and overhead > q3 - q1
    ):
        print("FAIL: live metrics cost more than {:.0%}".format(BUDGET))
        return 1
    print("PASS: results identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
