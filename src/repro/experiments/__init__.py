"""Experiment harness: every table and figure of the paper's evaluation.

:mod:`repro.experiments.config`
    :class:`ExperimentSpec` — a declarative sweep definition — and the
    common grids (``LTOT_GRID``, ``NPROS_GRID``).
:mod:`repro.experiments.figures`
    One spec builder per paper exhibit: ``table1()`` and ``figure2()``
    … ``figure12()``, plus the ablation specs, all in the
    :data:`~repro.experiments.figures.EXHIBITS` registry.
:mod:`repro.experiments.runner`
    Runs a spec's configurations (optionally replicated and in
    parallel) into an :class:`ExperimentResult`.
:mod:`repro.experiments.report`
    Paper-style series tables and quick ASCII plots.
:mod:`repro.experiments.storage`
    CSV/JSON persistence of result rows.
"""

from repro.experiments.config import LTOT_GRID, NPROS_GRID, ExperimentSpec
from repro.experiments.crossval import CrossValidation, cross_validate_engines
from repro.experiments.figures import EXHIBITS, get_exhibit
from repro.experiments.report import ascii_plot, format_series_table
from repro.experiments.runner import (
    ExperimentResult,
    run_experiment,
    run_experiments,
)
from repro.experiments.storage import load_rows_csv, save_rows_csv, save_rows_json
from repro.experiments.svg import SvgChart, chart_from_result, save_result_charts

__all__ = [
    "CrossValidation",
    "EXHIBITS",
    "ExperimentResult",
    "ExperimentSpec",
    "cross_validate_engines",
    "LTOT_GRID",
    "NPROS_GRID",
    "SvgChart",
    "ascii_plot",
    "chart_from_result",
    "format_series_table",
    "get_exhibit",
    "load_rows_csv",
    "run_experiment",
    "run_experiments",
    "save_result_charts",
    "save_rows_csv",
    "save_rows_json",
]
