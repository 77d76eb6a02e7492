"""Self-tests of the end-to-end benchmark harness.

They use ``--quick`` (tiny horizon, one repeat), which exists for these
tests only and is never used for comparisons.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def metrics(bench):
    return [m for group in ("end_to_end", "per_layer") for m in bench[group]]


def run(*arguments):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def summary(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = run("--quick", "--traced", "--json", str(path))
    return proc, json.loads(path.read_text())


def test_metric_names_and_units_are_valid(bench, metrics):
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    assert "setup_s" in [metric["name"] for metric in bench["end_to_end"]]


def test_quick_mode_prints_every_metric_for_every_workload(quick, bench, metrics):
    proc, document = quick
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert document["correct"] and document["failed"] == 0
    for workload in bench["workloads"]:
        entry = document["workloads"][workload["name"]]
        # Seed 1 is pinned: exact at the pinned MODEL_VERSION, band after a bump.
        assert entry["check"]["mode"] in ("exact", "band"), entry["check"]
        assert [m["name"] for m in metrics if m["name"] not in entry["metrics"]] == []
    for metric in metrics:
        assert re.search(r"^  {} ".format(re.escape(metric["name"])), proc.stdout, re.M)
    result = summary(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert len(result["metrics"]) == len(bench["workloads"]) * len(bench["per_layer"])


def test_every_module_maps_to_a_layer():
    package = ROOT / "src" / "repro"
    unmapped = [
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if path.relative_to(package).as_posix() not in layers.MODULE_LAYER
    ]
    assert unmapped == []


def test_tampered_pin_fails_the_run(tmp_path):
    pins = json.loads((HERE / "expected.json").read_text())
    for version in pins["model_versions"].values():
        entry = version["quick"]["incr_explicit"]["1"]
        entry["digest"] = "0" * 64
        entry["sim"]["sim.throughput"] *= 10
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(pins))
    proc = run("--quick", "--workload", "incr_explicit", "--expected", str(path))
    assert proc.returncode == 1
    result = summary(proc)
    assert not result["correct"] and result["failed"] >= 1


def document(bench, wall):
    measured = {
        metric["name"]: {"value": 1.0, "q1": 0.99, "q3": 1.01, "n": 9}
        for metric in bench["end_to_end"]
    }
    measured["wall_s"] = {"value": wall, "q1": wall * 0.99, "q3": wall * 1.01, "n": 9}
    measured["sim.totcom"] = {"value": 166}
    entry = {"metrics": measured, "check": {"digest": "d"}, "attempted": 10, "failed": 0}
    return {"header": {"seed": 1, "quick": False}, "workloads": {"fig12_heavy": entry}}


def test_compare_flags_a_regression_and_passes_identical_files(tmp_path, capsys, bench):
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    paths = {}
    for name, wall in (("a", 1.0), ("same", 1.0), ("slow", 1.0 + 2 * bound)):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(document(bench, wall)))
    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["a"]), str(paths["slow"])]) == 1
    assert "wall_s       worse" in capsys.readouterr().out
