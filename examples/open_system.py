"""Open-system study: where is the saturation knee?

The paper's model is closed (a fixed terminal population).  Real OLTP
front-ends look open: requests arrive whether or not earlier ones
finished.  This example uses the open-arrival extension to find the
saturation knee — the arrival rate beyond which response times explode
— and shows how the lock granularity moves that knee.

Usage::

    python examples/open_system.py
"""

from repro import SimulationParameters, simulate
from repro.analytic.queueing import throughput_upper_bound

ARRIVAL_RATES = (0.05, 0.10, 0.14, 0.17, 0.19, 0.22)


def sweep(params):
    print("  {:>8s} {:>11s} {:>10s} {:>9s} {:>9s}".format(
        "lambda", "throughput", "response", "backlog", "denied"))
    knee = None
    for rate in ARRIVAL_RATES:
        result = simulate(
            params.replace(arrival_process="open", arrival_rate=rate)
        )
        backlog = result.mean_blocked + result.mean_pending
        print("  {:>8.2f} {:>11.4f} {:>10.1f} {:>9.1f} {:>8.0%}".format(
            rate, result.throughput, result.response_time, backlog,
            result.denial_rate))
        if knee is None and result.throughput < 0.9 * rate:
            knee = rate
    return knee


def main():
    base = SimulationParameters(npros=10, tmax=800.0, seed=21)

    good = base.replace(ltot=20)
    print("Well-chosen granularity (ltot = 20):")
    print("  analytic capacity bound: {:.3f} txn/unit".format(
        throughput_upper_bound(good)))
    knee_good = sweep(good)
    print()

    bad = base.replace(ltot=5000)
    print("Record-level locking (ltot = 5000):")
    print("  analytic capacity bound: {:.3f} txn/unit".format(
        throughput_upper_bound(bad)))
    knee_bad = sweep(bad)
    print()

    print("Saturation knees: ltot=20 -> {} | ltot=5000 -> {}".format(
        "~{:.2f}/unit".format(knee_good) if knee_good else "beyond sweep",
        "~{:.2f}/unit".format(knee_bad) if knee_bad else "beyond sweep"))
    print()
    print("The closed-model conclusion carries over: lock overhead at fine")
    print("granularity consumes real capacity, so the open system saturates")
    print("at a visibly lower arrival rate.")


if __name__ == "__main__":
    main()
