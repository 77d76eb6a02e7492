"""The package runs on the standard library alone.

``import repro``, a single run and a small sweep must never pull in
numpy or scipy: the simulator needs neither, and importing them would
cost every interpreter that builds a model over a second of set-up and
tens of MiB.  A removed policy name must fail in ``validate()``, before
any simulation starts.
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
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_experiment

base = SimulationParameters(
    dbsize=100, ltot=5, ntrans=2, maxtransize=10, npros=2, tmax=50.0, seed=1
)
single = simulate(base)
spec = ExperimentSpec(
    key="stdlib", title="stdlib", base=base, sweeps={"ltot": (1, 20)}
)
sweep = run_experiment(spec, jobs=1, cache=False)
print(json.dumps({
    "totcom": single.totcom,
    "cells": len(sweep.rows()),
    "loaded": sorted(m for m in ("numpy", "scipy") if m in sys.modules),
}))
"""


def test_import_run_and_sweep_load_neither_numpy_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["totcom"] >= 0
    assert report["cells"] == 2
    assert report["loaded"] == []


def test_removed_conflict_engine_fails_in_validate():
    with pytest.raises(UnknownPolicyError):
        SimulationParameters(conflict_engine="vectorized").validate()
