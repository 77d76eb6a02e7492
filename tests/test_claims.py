"""The paper's claims: held on their check grids, and read off ``results/``.

Every claim is a predicate in :mod:`repro.experiments.figures`.  One
batched sweep runs every exhibit's check spec; each claim is then one
test.  The evaluator tests build results by hand and simulate nothing.
EXPERIMENTS.md's verdicts must equal ``run_all_exhibits.py --check`` on
the committed ``results/``.
"""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.figures import (
    CHECK_GRIDS,
    CLAIMS,
    EXHIBITS,
    FAILS,
    HOLDS,
    NO_DATA,
    check_claims,
    check_spec,
)
from repro.experiments.runner import ExperimentResult, run_experiments
from repro.experiments.storage import save_rows_json

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_all_exhibits.py"
CHECK_ROW = re.compile(r"(\S+)\s+(\S+)\s+(holds|fails|no data)\s*(.*)$")


@pytest.fixture(scope="module")
def check_results():
    specs = [check_spec(key) for key in EXHIBITS]
    return dict(zip(EXHIBITS, run_experiments(specs, cache=False)))


@pytest.fixture(scope="module")
def verdicts(check_results):
    return {
        str(claim): (verdict, numbers)
        for claim, verdict, numbers in check_claims(check_results)
    }


@pytest.mark.parametrize("claim", CLAIMS, ids=str)
def test_claim(claim, verdicts):
    verdict, numbers = verdicts[str(claim)]
    assert verdict == HOLDS, "{} {}: {}".format(claim.text, verdict, numbers)


def test_every_exhibit_runs_its_check_spec(check_results):
    for key, result in check_results.items():
        assert len(result) == len(check_spec(key).configurations()) > 0, key


# -- the evaluator, on hand-built results -------------------------------


def result(key, y_field, curves):
    """Exhibit *key*'s result whose *y_field* is ``{series value: {x: y}}``."""
    spec = EXHIBITS[key]()
    (name,) = spec.series_fields
    rows = [
        {name: value, spec.x_field: x, y_field: y}
        for value, curve in curves.items()
        for x, y in curve.items()
    ]
    return ExperimentResult.from_rows(spec, rows)


def verdict_of(name, results):
    (found,) = [v for claim, v, _ in check_claims(results) if str(claim) == name]
    return found


FIG7 = {0.2: {100: 0.17, 5000: 0.03}, 0.1: {100: 0.17, 5000: 0.07},
        0.0: {100: 0.17, 5000: 0.16}}


def test_broken_curve_fails():
    flat = result("fig7", "throughput", FIG7)
    assert verdict_of("fig7:zero_lock_io_flat", {"fig7": flat}) == HOLDS
    broken = {**FIG7, 0.0: {100: 0.17, 5000: 0.10}}
    assert verdict_of(
        "fig7:zero_lock_io_flat", {"fig7": result("fig7", "throughput", broken)}
    ) == FAILS


def test_missing_point_reads_no_data():
    coarse_only = {value: {100: curve[100]} for value, curve in FIG7.items()}
    results = {"fig7": result("fig7", "throughput", coarse_only)}
    assert verdict_of("fig7:zero_lock_io_flat", results) == NO_DATA
    assert verdict_of("fig2:optimum_below_200_locks", results) == NO_DATA


def test_cross_exhibit_claim_reads_the_other_exhibit():
    name = "fig5:small_txns_more_overhead_when_coarse"
    small = result("fig5", "lock_overhead", {10: {10: 400.0}})
    for large, expected in ((50.0, HOLDS), (500.0, FAILS)):
        results = {
            "fig5": small,
            "fig4": result("fig4", "lock_overhead", {10: {10: large}}),
        }
        assert verdict_of(name, results) == expected
    assert verdict_of(name, {"fig5": small}) == NO_DATA


def test_every_exhibit_has_a_check_spec():
    assert {claim.exhibit for claim in CLAIMS} == set(CHECK_GRIDS)
    assert set(CHECK_GRIDS) <= set(EXHIBITS)
    # The analytic cross-validation grid is judged by crossval's error
    # bound, not by a claim.
    assert set(EXHIBITS) - set(CHECK_GRIDS) == {"ablation_analytic"}
    assert len({str(claim) for claim in CLAIMS}) == len(CLAIMS)
    for key in EXHIBITS:
        spec = check_spec(key)
        assert spec.key == key and spec.base.seed == 1
        if key not in CHECK_GRIDS:
            assert len(spec.configurations()) == 1


def run_check(directory):
    """``run_all_exhibits.py --check`` on *directory*: (exit code, rows)."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", "--out", str(directory)],
        capture_output=True, text=True, check=False, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    rows = [CHECK_ROW.match(line).groups() for line in done.stdout.splitlines()]
    return done.returncode, rows


def test_check_reads_one_exhibit_json(tmp_path):
    save_rows_json(result("fig7", "throughput", FIG7).rows(), tmp_path / "fig7.json")
    code, rows = run_check(tmp_path)
    assert [row[1] for row in rows] == [claim.name for claim in CLAIMS]
    fig7 = [row for row in rows if row[0] == "fig7"]
    assert [row[1:3] for row in fig7] == [
        ("zero_lock_io_flat", HOLDS),
        ("lock_io_punishes_fine", HOLDS),
        ("intermediate_cost_between", HOLDS),
        ("memory_table_no_higher_peak", NO_DATA),
    ]
    assert fig7[0][3] == "ltot 100/5000: [0.17, 0.16]"
    assert {row[2] for row in rows if row[0] != "fig7"} == {NO_DATA}
    assert code == 0


# -- EXPERIMENTS.md ------------------------------------------------------


def tally(rows):
    counts = Counter(verdict for _, _, verdict, _ in rows)
    if not counts:
        return "no claims"
    icon = "❌" if counts[FAILS] else "✅"
    return icon + " " + ", ".join(
        "{} {}".format(verdict, counts[verdict])
        for verdict in (HOLDS, FAILS, NO_DATA) if counts[verdict]
    )


def test_experiments_md_verdicts_match_check_on_results():
    code, rows = run_check(ROOT / "results")
    assert code == (1 if any(row[2] == FAILS for row in rows) else 0)
    text = (ROOT / "EXPERIMENTS.md").read_text()
    exhibits, claims = text.split("## Claim checks", 1)
    claims = claims.split("\n## ", 1)[0]

    def table(section):
        return [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| Exhibit")
            and not line.startswith("| Ablation")
        ]

    assert [
        (exhibit.strip("`"), claim.strip("`"), verdict, numbers)
        for exhibit, claim, verdict, numbers in table(claims)
    ] == rows
    stated = {
        cells[0].replace("Table ", "table").replace("Fig ", "fig").strip("`"): cells[-1]
        for cells in table(exhibits)
    }
    assert set(stated) == set(EXHIBITS)
    for key, cell in stated.items():
        assert cell == tally([row for row in rows if row[0] == key]), key
