"""Unit tests for the trace sinks and the JSONL replay loader."""

import json

import pytest

from repro.des.trace import Trace
from repro.obs.sinks import (
    TRACE_SCHEMA,
    JsonlTraceSink,
    MultiSink,
    RingBufferSink,
    TraceSchemaError,
    load_trace,
)


class TestRingBufferAlias:
    def test_alias_is_trace(self):
        assert RingBufferSink is Trace


class TestMultiSink:
    def test_fans_out_to_every_sink(self):
        a, b = Trace(), Trace()
        multi = MultiSink([a, b])
        multi.emit(1.0, "arrive", 7, {"nu": 3})
        assert len(a) == 1 and len(b) == 1
        assert a.records()[0].details == {"nu": 3}

    def test_trace_and_jsonl_record_the_same_run(self, tmp_path, fast_params):
        from repro.core.model import LockingGranularityModel

        path = tmp_path / "t.jsonl"
        trace = Trace()
        with JsonlTraceSink(path) as sink:
            LockingGranularityModel(
                fast_params, trace=MultiSink([trace, sink])
            ).run()
        assert len(trace) > 0
        assert list(trace) == load_trace(path).records


class TestJsonlRoundTrip:
    def test_records_survive_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path, params={"seed": 1}, model_version=2) as sink:
            sink.emit(0.0, "arrive", 1, {"nu": 5})
            sink.emit(1.5, "complete", 1, {"response": 1.5})
            sink.emit_sample(5.0, {"blocked": 2})
        loaded = load_trace(path)
        assert loaded.header["schema"] == TRACE_SCHEMA
        assert loaded.header["model_version"] == 2
        assert loaded.params == {"seed": 1}
        assert len(loaded) == 2
        assert loaded.records[0].kind == "arrive"
        assert loaded.records[0].details == {"nu": 5}
        assert loaded.records[1].details["response"] == 1.5
        assert loaded.samples == [{"t": 5.0, "blocked": 2}]
        assert loaded.footer["events"] == 2
        assert loaded.footer["samples"] == 1

    def test_to_trace_rematerialises_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit(0.0, "arrive", 1, {})
            sink.emit(2.0, "complete", 1, {})
        trace = load_trace(path).to_trace()
        assert trace.timeline(1) == [("arrive", 0.0), ("complete", 2.0)]

    def test_footer_accepts_extra_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.close(totcom=42)
        assert load_trace(path).footer["totcom"] == 42

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # second close must not append a second footer
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert sum('"footer"' in line for line in lines) == 1

    def test_truncated_file_loads_without_footer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit(1.0, "arrive", 1, {})
        sink._handle.flush()  # simulate a crash: no close, no footer
        loaded = load_trace(path)
        assert loaded.footer is None
        assert len(loaded) == 1


class TestSchemaValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceSchemaError):
            load_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "record", "t": 0, "kind": "x", "txn": 1}\n')
        with pytest.raises(TraceSchemaError, match="header"):
            load_trace(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": TRACE_SCHEMA + 1}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match="schema"):
            load_trace(path)

    def test_unparsable_line_rejected(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": TRACE_SCHEMA})
            + "\nnot json{{{\n"
        )
        with pytest.raises(TraceSchemaError, match="unparsable"):
            load_trace(path)

    def test_unknown_line_type_rejected(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": TRACE_SCHEMA})
            + "\n" + json.dumps({"type": "mystery"}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match="unknown line type"):
            load_trace(path)

    def test_blank_lines_before_header_are_skipped(self, tmp_path):
        path = tmp_path / "padded.jsonl"
        path.write_text(
            "\n   \n" + json.dumps({"type": "header", "schema": TRACE_SCHEMA})
            + "\n" + json.dumps({"type": "record", "t": 0, "kind": "x", "txn": 1})
            + "\n"
        )
        loaded = load_trace(path)
        assert loaded.header["schema"] == TRACE_SCHEMA
        assert len(loaded) == 1

    def test_record_missing_a_field_names_the_line(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": TRACE_SCHEMA})
            + "\n" + json.dumps({"type": "record", "t": 0, "txn": 1}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match=r"short\.jsonl:2: .*'kind'"):
            load_trace(path)

    def test_non_object_line_names_the_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": TRACE_SCHEMA}) + "\n[1, 2]\n"
        )
        with pytest.raises(TraceSchemaError, match=r"list\.jsonl:2: .*object"):
            load_trace(path)
