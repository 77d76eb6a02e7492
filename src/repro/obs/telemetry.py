"""The telemetry bundle a model run carries.

One :class:`Telemetry` object groups everything observability-related
for a run: the trace sink lifecycle events go to, and the optional
sampled time-series recorder.  The model accepts it as
``LockingGranularityModel(params, telemetry=...)``; with no telemetry
(the default) every emit site reduces to a single ``None`` check and
results are bit-identical to an uninstrumented run.
"""

from repro.obs.timeseries import TimeSeriesRecorder


class Telemetry:
    """Telemetry configuration and collected state for one run.

    Parameters
    ----------
    sink:
        Optional trace sink (``emit(time, kind, subject, details)``,
        *details* one dict it must only read); receives every lifecycle
        event.
    sample_interval:
        Simulated time between time-series samples; ``0`` disables
        sampling.
    """

    def __init__(self, sink=None, sample_interval=0.0):
        self.sink = sink
        self.timeseries = (
            TimeSeriesRecorder(sample_interval) if sample_interval > 0 else None
        )

    def install(self, model):
        """Attach the samplers to *model* (called by ``model.run``)."""
        if self.timeseries is not None:
            self.timeseries.install(model)

    def finish(self, **footer):
        """Flush samples into the sink and close it (if closable)."""
        sink = self.sink
        if sink is None:
            return
        if self.timeseries is not None and hasattr(sink, "emit_sample"):
            self.timeseries.export(sink)
        if hasattr(sink, "close"):
            sink.close(**footer)
