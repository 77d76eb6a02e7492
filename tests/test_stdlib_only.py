"""The package runs on the standard library alone.

``import repro``, a single run, an observed run and a small sweep must
never pull in numpy or scipy: the simulator needs neither, and
importing them would cost every interpreter that builds a model over a
second of set-up and tens of MiB.  Nor may they pull in the HTTP
exporter, the report and SVG stack, cross-validation, the MVA solver
or the process pool: a run imports only the modules it uses.  A
removed policy name must fail in ``validate()``, before any simulation
starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.parameters import SimulationParameters
from repro.policies import UnknownPolicyError

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro
from repro import SimulationParameters, simulate
from repro.core.model import LockingGranularityModel
from repro.des.trace import Trace
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

base = SimulationParameters(
    dbsize=100, ltot=5, ntrans=2, maxtransize=10, npros=2, tmax=50.0, seed=1
)
single = simulate(base)
observed = LockingGranularityModel(
    base,
    trace=Trace(),
    metrics_registry=MetricsRegistry(),
    telemetry=Telemetry(sample_interval=10),
).run()
spec = ExperimentSpec(
    key="stdlib", title="stdlib", base=base, sweeps={"ltot": (1, 20)}
)
sweep = run_experiment(spec, jobs=1, cache=False)
print(json.dumps({
    "totcom": [single.totcom, observed.totcom],
    "cells": len(sweep.rows()),
    "loaded": sorted(m for m in UNUSED if m in sys.modules),
}))
"""

#: Modules that none of the probe's runs uses, so none may be loaded.
UNUSED = (
    "numpy",
    "scipy",
    "http.server",
    "concurrent.futures",
    "repro.obs.exporters",
    "repro.obs.report",
    "repro.experiments.svg",
    "repro.experiments.crossval",
    "repro.analytic.mva",
)


@pytest.fixture(scope="module")
def probe_report():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0")
    proc = subprocess.run(
        [sys.executable, "-c", "UNUSED = {!r}\n".format(UNUSED) + PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["totcom"][0] == report["totcom"][1] >= 0
    assert report["cells"] == 2
    return report


def test_import_run_and_sweep_load_neither_numpy_nor_scipy(probe_report):
    assert not {"numpy", "scipy"} & set(probe_report["loaded"])


def test_import_runs_and_sweep_load_only_what_they_use(probe_report):
    assert probe_report["loaded"] == []


def test_removed_conflict_engine_fails_in_validate():
    with pytest.raises(UnknownPolicyError):
        SimulationParameters(conflict_engine="vectorized").validate()
