"""Observability: structured trace export, time-series telemetry,
run provenance, and offline reporting.

The paper's conclusions rest on internal, time-resolved quantities —
lock waits, blocking populations, per-processor utilisation — that
end-of-run aggregates cannot explain.  This package turns every run
into an explainable artifact:

* :mod:`repro.obs.sinks` — the pluggable trace-sink protocol, the
  JSONL export backend, and the schema-versioned replay loader;
* :mod:`repro.obs.timeseries` — a sampled recorder of machine and
  population state;
* :mod:`repro.obs.telemetry` — the bundle a model run carries;
* :mod:`repro.obs.manifest` — run provenance records;
* :mod:`repro.obs.report` — the ``repro report`` analysis;
* :mod:`repro.obs.metrics` — the live metrics registry
  (counters/gauges/histograms instrumenting kernel, lock manager,
  transaction model and sweep harness);
* :mod:`repro.obs.exporters` — Prometheus text / JSON snapshot
  exporters and the ``--metrics-port`` HTTP endpoint;
* :mod:`repro.obs.top` — the ``repro-locking top`` live sweep monitor.

Nothing is imported here, so tracing loads neither the HTTP exporter
nor the report stack; import from the submodules.

Quick tour::

    from repro.core.model import LockingGranularityModel
    from repro.core.parameters import SimulationParameters
    from repro.obs.sinks import JsonlTraceSink, load_trace
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry(
        sink=JsonlTraceSink("run.jsonl"), sample_interval=5.0
    )
    params = SimulationParameters(tmax=200.0)
    result = LockingGranularityModel(params, telemetry=telemetry).run()
    telemetry.finish()

    replay = load_trace("run.jsonl")
    assert len(replay.records) > 0
"""
