"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the cartesian product of parameter
sweeps applied to a base :class:`SimulationParameters`, plus metadata
saying which field is the x-axis, which field(s) distinguish the
curves (series), and which outputs the exhibit plots.
"""

import itertools
from dataclasses import dataclass, field

from repro.core.parameters import SimulationParameters

#: The lock-count grid used throughout the paper (log-spaced, 1..dbsize).
LTOT_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Processor counts of §3.1 (Figures 2–5, 8).
NPROS_GRID = (1, 2, 5, 10, 20, 30)

#: Default horizon for harness runs.  The paper's own ``tmax`` is not
#: recoverable from the text; 2000 time units completes hundreds of
#: transactions per configuration while keeping a full-figure sweep in
#: the minutes range (see DESIGN.md).
DEFAULT_TMAX = 2000.0


@dataclass
class ExperimentSpec:
    """One exhibit's sweep definition.

    Attributes
    ----------
    key:
        Short id (``"fig2"``, ``"table1"``).
    title:
        The paper's caption, abbreviated.
    base:
        Parameters shared by every configuration.
    sweeps:
        Mapping of parameter name → values; configurations are the
        cartesian product in declaration order.
    x_field:
        The swept parameter used as the x-axis (usually ``ltot``).
    series_fields:
        Swept parameter(s) that distinguish curves.
    y_fields:
        Output fields the exhibit reports.
    expected_shape:
        One-sentence acceptance criterion from the paper's prose,
        recorded in EXPERIMENTS.md.
    """

    key: str
    title: str
    base: SimulationParameters
    sweeps: dict = field(default_factory=dict)
    x_field: str = "ltot"
    series_fields: tuple = ()
    y_fields: tuple = ("throughput",)
    expected_shape: str = ""

    def configurations(self):
        """All :class:`SimulationParameters` in the sweep product."""
        if not self.sweeps:
            return [self.base]
        names = list(self.sweeps)
        configs = []
        for values in itertools.product(*(self.sweeps[n] for n in names)):
            configs.append(self.base.replace(**dict(zip(names, values))))
        return configs

    def series_key(self, params):
        """The tuple of series-field values identifying one curve."""
        return tuple(getattr(params, name) for name in self.series_fields)

    def series_label(self, params):
        """Human-readable label of the curve *params* belongs to.

        *params* is a :class:`SimulationParameters` or a result row.
        """
        if not isinstance(params, dict):
            params = {name: getattr(params, name) for name in self.series_fields}
        parts = [
            "{}={}".format(name, params[name]) for name in self.series_fields
        ]
        return ", ".join(parts) if parts else "all"

    def scaled(self, tmax=None, ltot_grid=None, replace_sweeps=None, **base_changes):
        """A cheaper copy for quick runs and benchmarks.

        ``tmax`` shortens the horizon; ``ltot_grid`` substitutes the
        lock-count sweep; ``replace_sweeps`` overrides whole sweep
        entries; extra keywords patch the base parameters.
        """
        base = self.base
        if tmax is not None:
            base = base.replace(tmax=tmax)
        if base_changes:
            base = base.replace(**base_changes)
        sweeps = dict(self.sweeps)
        if ltot_grid is not None and "ltot" in sweeps:
            sweeps["ltot"] = tuple(ltot_grid)
        if replace_sweeps:
            sweeps.update(replace_sweeps)
        return ExperimentSpec(
            key=self.key,
            title=self.title,
            base=base,
            sweeps=sweeps,
            x_field=self.x_field,
            series_fields=self.series_fields,
            y_fields=self.y_fields,
            expected_shape=self.expected_shape,
        )
