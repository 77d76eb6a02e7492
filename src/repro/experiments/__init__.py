"""Experiment harness: every table and figure of the paper's evaluation.

Nothing is imported here; import from the submodules, e.g.
``from repro.experiments.runner import run_experiment``.

:mod:`repro.experiments.config`
    ``ExperimentSpec``, a declarative sweep, and the common grids.
:mod:`repro.experiments.figures`
    One spec builder per paper exhibit, with its claims, in the
    :data:`~repro.experiments.figures.EXHIBITS` registry.
:mod:`repro.experiments.runner`
    ``run_experiment``/``run_experiments``, backed by the result
    ``cache``, the sweep ``journal`` and the analytic ``accelerator``.
:mod:`repro.experiments.report`, :mod:`~repro.experiments.svg`, :mod:`~repro.experiments.storage`
    Series tables and ASCII plots, SVG charts, CSV/JSON rows.
:mod:`repro.experiments.crossval`
    Engine-vs-engine and simulator-vs-analytic cross-validation.
"""
