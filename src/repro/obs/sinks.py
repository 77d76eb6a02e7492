"""Trace sinks: pluggable backends for structured trace export.

The simulation model emits lifecycle events through whatever object is
passed as its ``trace`` — anything implementing the :class:`TraceSink`
protocol (an ``emit(time, kind, subject, details)`` method, *details*
one dict passed positionally).  A sink must only read *details*: the
emitter builds it once, :class:`MultiSink` hands every sink the same
dict, and the in-memory trace keeps it in its record.  Two backends
are provided:

* :class:`~repro.des.trace.Trace` — the in-memory ring buffer
  (re-exported here as :data:`RingBufferSink`), for tests and
  interactive inspection;
* :class:`JsonlTraceSink` — a schema-versioned JSON-Lines file, for
  export, replay and offline reporting.

A telemetry file is a sequence of single-line JSON objects:

* exactly one ``{"type": "header", "schema": ..., ...}`` first line
  carrying the schema version, the model version and the run's
  parameters;
* any number of ``{"type": "record", "t": ..., "kind": ...,
  "txn": ..., "d": {...}}`` event lines, in emission order;
* any number of ``{"type": "sample", "t": ..., "data": {...}}``
  time-series lines (see :mod:`repro.obs.timeseries`);
* optionally one final ``{"type": "footer", ...}`` line with closing
  totals.

:func:`load_trace` replays such a file back into
:class:`~repro.des.trace.TraceRecord` objects, refusing files written
under an unknown schema version.
"""

import json

from repro.des.trace import Trace, TraceRecord

#: Version of the telemetry file layout.  Bump on any incompatible
#: change to the line format; :func:`load_trace` refuses other
#: versions instead of guessing.
TRACE_SCHEMA = 1

#: The in-memory ring-buffer backend of the sink protocol.
RingBufferSink = Trace


class TraceSchemaError(ValueError):
    """A telemetry file is malformed or from an unknown schema."""


class TraceSink:
    """Protocol stub: the interface the model emits through.

    Any object with this ``emit`` signature works as a sink; this
    class only documents the contract (duck typing is used
    throughout — :class:`~repro.des.trace.Trace` does not inherit from
    it).
    """

    def emit(self, time, kind, subject, details):
        """Record one event.

        *details* is a dict of the event's fields, shared with the
        emitter and with every other sink: read it, never mutate it.
        """
        raise NotImplementedError


class MultiSink:
    """Fan one emit stream out to several sinks."""

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def emit(self, time, kind, subject, details):
        """Forward the record, and the same *details* dict, to every sink."""
        for sink in self.sinks:
            sink.emit(time, kind, subject, details)


class JsonlTraceSink:
    """Streamed JSON-Lines trace file.

    The header line is written on construction, so even a run that
    crashes mid-way leaves a loadable (footer-less) file.  Use as a
    context manager or call :meth:`close` to append the footer.

    Parameters
    ----------
    path:
        Output file path (created/truncated).
    params:
        Optional run parameters dict stored in the header.
    model_version:
        Optional simulator version stored in the header.
    meta:
        Extra header fields (seed, exhibit key, ...).
    """

    def __init__(self, path, params=None, model_version=None, **meta):
        self.path = str(path)
        self.events = 0
        self.samples = 0
        self._handle = open(self.path, "w")
        header = {"type": "header", "schema": TRACE_SCHEMA}
        if model_version is not None:
            header["model_version"] = model_version
        if params is not None:
            header["params"] = dict(params)
        header.update(meta)
        self._write(header)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _write(self, document):
        self._handle.write(json.dumps(document, sort_keys=True))
        self._handle.write("\n")

    def emit(self, time, kind, subject, details):
        """Append one event record line."""
        line = {"type": "record", "t": time, "kind": kind, "txn": subject}
        if details:
            line["d"] = details
        self._write(line)
        self.events += 1

    def emit_sample(self, time, data):
        """Append one time-series sample line."""
        self._write({"type": "sample", "t": time, "data": data})
        self.samples += 1

    def close(self, **footer):
        """Write the footer (event totals plus *footer*) and close."""
        if self._handle.closed:
            return
        line = {"type": "footer", "events": self.events, "samples": self.samples}
        line.update(footer)
        self._write(line)
        self._handle.close()


class TraceFile:
    """A replayed telemetry file.

    Attributes
    ----------
    header:
        The header dict (``schema``, ``model_version``, ``params``, ...).
    records:
        Event :class:`~repro.des.trace.TraceRecord` list, in file order.
    samples:
        Time-series sample dicts (each with ``t`` plus the recorded
        signals), in file order.
    footer:
        The footer dict, or ``None`` for a truncated file.
    """

    def __init__(self, header, records, samples, footer=None):
        self.header = header
        self.records = records
        self.samples = samples
        self.footer = footer

    def __len__(self):
        return len(self.records)

    def to_trace(self):
        """The records re-materialised as an in-memory :class:`Trace`."""
        trace = Trace()
        for record in self.records:
            trace.emit(record.time, record.kind, record.subject, record.details)
        return trace

    @property
    def params(self):
        """The run's parameter dict from the header (may be ``None``)."""
        return self.header.get("params")


def _field(document, name, where):
    """*document*[*name*], or a :class:`TraceSchemaError` naming *where*."""
    try:
        return document[name]
    except KeyError:
        raise TraceSchemaError(
            "{}: {} line lacks field {!r}".format(where, document["type"], name)
        ) from None


def load_trace(path):
    """Replay a telemetry JSONL file into a :class:`TraceFile`.

    Blank lines are skipped; the first non-blank line must be the
    header.

    Raises
    ------
    TraceSchemaError
        When the file is empty, does not start with a header, carries
        an unknown schema version, or contains a line that is not a
        JSON object, has an unknown type or lacks a required field
        (every message but the empty-file one names the line).
    """
    header = None
    footer = None
    records = []
    samples = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = "{}:{}".format(path, line_no)
            try:
                document = json.loads(line)
            except ValueError as error:
                raise TraceSchemaError(
                    "{}: unparsable line ({})".format(where, error)
                ) from None
            if not isinstance(document, dict):
                raise TraceSchemaError(
                    "{}: expected a JSON object, got {}".format(
                        where, type(document).__name__
                    )
                )
            kind = document.get("type")
            if header is None:
                if kind != "header":
                    raise TraceSchemaError(
                        "{}: first line must be a header, got {!r}".format(
                            where, kind
                        )
                    )
                if document.get("schema") != TRACE_SCHEMA:
                    raise TraceSchemaError(
                        "{}: unsupported trace schema {!r} "
                        "(this reader understands {})".format(
                            where, document.get("schema"), TRACE_SCHEMA
                        )
                    )
                header = document
            elif kind == "record":
                records.append(
                    TraceRecord(
                        _field(document, "t", where),
                        _field(document, "kind", where),
                        _field(document, "txn", where),
                        document.get("d", {}),
                    )
                )
            elif kind == "sample":
                sample = {"t": _field(document, "t", where)}
                sample.update(document.get("data", {}))
                samples.append(sample)
            elif kind == "footer":
                footer = document
            else:
                raise TraceSchemaError(
                    "{}: unknown line type {!r}".format(where, kind)
                )
    if header is None:
        raise TraceSchemaError("{}: empty telemetry file".format(path))
    return TraceFile(header, records, samples, footer)
