"""Pick a lock granularity for a described workload.

Demonstrates the intended tuning loop:

1. describe the workload as :class:`SimulationParameters`;
2. get a fast analytic bracket from :func:`optimal_ltot_estimate`;
3. refine with short simulations around the bracket;
4. confirm the winner with replications and confidence intervals.

Usage::

    python examples/granularity_tuning.py [--sequential|--random-access]
"""

import argparse

from repro import SimulationParameters, simulate, simulate_replications
from repro.analytic.granularity import optimal_ltot_estimate


def describe(params):
    access = "sequential" if params.placement == "best" else "random"
    print("Workload: {} entities, mean transaction ~{:.0f} entities, "
          "{} access, {} processors, {} concurrent users".format(
              params.dbsize, params.mean_transaction_size, access,
              params.npros, params.ntrans))


def tune(params):
    describe(params)

    # Step 1: analytic bracket (instant).
    estimate = optimal_ltot_estimate(params)
    print("Analytic estimate of the optimum: ltot ≈ {}".format(estimate))

    # Step 2: short simulations on a log grid around the estimate.
    grid = sorted({1, max(1, estimate // 10), estimate,
                   min(params.dbsize, estimate * 10), params.dbsize})
    print("Refining over {} with short runs:".format(grid))
    scores = {}
    for ltot in grid:
        result = simulate(params.replace(ltot=ltot, tmax=400.0))
        scores[ltot] = result.throughput
        print("  ltot={:>5d}: throughput {:.4f}, denial rate {:.0%}, "
              "lock overhead {:.0f}".format(
                  ltot, result.throughput, result.denial_rate,
                  result.lock_overhead))
    winner = max(scores, key=scores.get)

    # Step 3: confirm with replications.
    confirmed = simulate_replications(
        params.replace(ltot=winner, tmax=400.0), replications=5
    )
    print("Chosen granularity: ltot = {} "
          "(throughput {:.4f} ± {:.4f}, 95% CI over 5 replications)".format(
              winner, confirmed.mean("throughput"),
              confirmed.half_width("throughput")))
    print()
    return winner


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--random-access", action="store_true",
        help="tune for randomly-accessing transactions instead of "
        "sequential ones",
    )
    args = parser.parse_args()

    if args.random_access:
        # Small transactions touching random entities: the paper's §4
        # case where fine granularity (entity locks) wins.
        params = SimulationParameters(
            placement="random", maxtransize=50, npros=10, seed=5
        )
    else:
        # Sequential scans (best placement): coarse-ish is enough.
        params = SimulationParameters(placement="best", npros=10, seed=5)

    winner = tune(params)
    if args.random_access:
        print("Random access to small parts of the database favours fine")
        print("granularity — the tuned ltot should be near dbsize "
              "(got {}).".format(winner))
    else:
        print("Sequential access favours coarse granularity — the tuned")
        print("ltot should be far below 200 (got {}).".format(winner))


if __name__ == "__main__":
    main()
