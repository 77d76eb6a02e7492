"""Output check of every benchmark run, against ``expected.json``.

``expected.json`` pins, per ``MODEL_VERSION``, mode (``full`` or
``quick``), workload and seed, the SHA-256 of the canonical
``as_dict()`` of every simulated cell plus the ``sim.*`` counters.  A
run is checked in one of three modes:

* ``exact``: the running ``MODEL_VERSION`` has a pin for this seed, and
  the digest must match it;
* ``band``: the version is unknown but another version pinned this
  seed, and ``sim.throughput`` / ``sim.response_time`` must be within
  :data:`BAND` of the newest such pin;
* ``invariants``: nothing pinned for this seed.

The invariants (:func:`invariant_failures`) are checked in every mode.

Run this file to (re)pin the current ``MODEL_VERSION`` at seeds 1 and 2:
``PYTHONPATH=src python benchmarks/e2e/pins.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"
PINNED_SEEDS = (1, 2)
#: Relative tolerance of the band mode (the MVA cross-validation gate's).
BAND = 0.15
#: Float slack of the invariant inequalities.
SLACK = 1e-9


def digest(results):
    """SHA-256 of the canonical JSON of every cell's ``as_dict()``."""
    canonical = json.dumps(
        [result.as_dict() for result in results],
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def sim_counters(results):
    """The simulated-time counters, summed over cells."""

    def total(field):
        return sum(getattr(result, field) for result in results)

    requests = total("lock_requests")
    return {
        "sim.totcom": total("totcom"),
        "sim.throughput": total("throughput"),
        "sim.response_time": total("response_time"),
        "sim.lock_requests": requests,
        "sim.lock_overhead": total("lock_overhead"),
        "sim.mean_blocked": total("mean_blocked"),
        "sim.grant_frac": (
            (requests - total("lock_denials")) / requests if requests else 1.0
        ),
    }


def invariant_failures(results):
    """Conservation checks every cell must pass, as failure messages."""
    failures = []
    for index, r in enumerate(results):
        cap = r.params.npros * r.params.tmax * (1 + SLACK)
        checks = (
            ("totcom >= 1", r.totcom >= 1),
            (
                "lockcpus <= totcpus <= npros*tmax",
                r.lockcpus <= r.totcpus * (1 + SLACK) + SLACK and r.totcpus <= cap,
            ),
            (
                "lockios <= totios <= npros*tmax",
                r.lockios <= r.totios * (1 + SLACK) + SLACK and r.totios <= cap,
            ),
            ("lock_denials <= lock_requests", r.lock_denials <= r.lock_requests),
        )
        failures.extend(
            "cell {}: {} violated".format(index, text)
            for text, ok in checks
            if not ok
        )
    return failures


def load(path=EXPECTED):
    with open(path) as handle:
        return json.load(handle)


def check(pins, model_version, quick, workload, seed, results):
    """Check one run's *results*; returns ``(mode, failures)``."""
    failures = invariant_failures(results)
    kind = "quick" if quick else "full"
    versions = pins["model_versions"]

    def pin(version):
        return versions[version].get(kind, {}).get(workload, {}).get(str(seed))

    if str(model_version) in versions:
        entry = pin(str(model_version))
        if entry is None:
            return "invariants", failures
        if digest(results) != entry["digest"]:
            failures.append(
                "digest mismatch at MODEL_VERSION {} seed {}".format(model_version, seed)
            )
        return "exact", failures
    pinned = [v for v in sorted(versions, key=int) if pin(v) is not None]
    if not pinned:
        return "invariants", failures
    reference = pin(pinned[-1])["sim"]
    measured = sim_counters(results)
    for field in ("sim.throughput", "sim.response_time"):
        want, got = reference[field], measured[field]
        if abs(got - want) > BAND * abs(want):
            failures.append(
                "{} = {:.6g} is outside {:.0%} of {:.6g} pinned at MODEL_VERSION {}".format(
                    field, got, BAND, want, pinned[-1]
                )
            )
    return "band", failures


def main():
    import workloads
    from repro.core.model import MODEL_VERSION

    pins = load() if EXPECTED.exists() else {"model_versions": {}}
    entries = {}
    for kind, quick in (("full", False), ("quick", True)):
        for name in workloads.NAMES:
            for seed in PINNED_SEEDS:
                results = workloads.prepare(name, seed, quick).execute().results
                if invariant_failures(results):
                    sys.exit("{} seed {} ({}) fails its invariants".format(name, seed, kind))
                entries.setdefault(kind, {}).setdefault(name, {})[str(seed)] = {
                    "digest": digest(results),
                    "sim": sim_counters(results),
                }
                print("pinned", kind, name, seed, file=sys.stderr)
    pins["model_versions"][str(MODEL_VERSION)] = entries
    with open(EXPECTED, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
