"""Unit tests for the trace collector."""

import pytest

from repro.des.trace import Trace, TraceRecord


class TestTrace:
    def test_emit_and_len(self):
        trace = Trace()
        trace.emit(1.0, "arrive", 1, {})
        trace.emit(2.0, "complete", 1, {"response": 1.0})
        assert len(trace) == 2

    def test_records_filtering(self):
        trace = Trace()
        trace.emit(1.0, "arrive", 1, {})
        trace.emit(1.5, "arrive", 2, {})
        trace.emit(2.0, "complete", 1, {})
        assert len(trace.records(kind="arrive")) == 2
        assert len(trace.records(subject=1)) == 2
        assert len(trace.records(kind="arrive", subject=2)) == 1

    def test_counts(self):
        trace = Trace()
        for _ in range(3):
            trace.emit(0.0, "a", 1, {})
        trace.emit(0.0, "b", 1, {})
        assert trace.counts() == {"a": 3, "b": 1}

    def test_timeline(self):
        trace = Trace()
        trace.emit(1.0, "arrive", 7, {})
        trace.emit(2.0, "admit", 7, {})
        trace.emit(2.0, "arrive", 8, {})
        assert trace.timeline(7) == [("arrive", 1.0), ("admit", 2.0)]

    def test_limit_drops_oldest(self):
        trace = Trace(limit=2)
        for i in range(5):
            trace.emit(float(i), "tick", i, {})
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [r.subject for r in trace] == [3, 4]

    def test_default_details_are_empty_and_read_only(self):
        record = TraceRecord(0.0, "x", 1)
        assert dict(record.details) == {}
        with pytest.raises(TypeError):
            record.details["leak"] = 1
        assert TraceRecord(1.0, "y", 2).details == {}

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Trace(limit=-1)

    def test_format_and_str(self):
        trace = Trace()
        trace.emit(1.25, "lock_deny", 3, {"blocker": 9})
        text = trace.format()
        assert "lock_deny" in text
        assert "txn#3" in text
        assert "blocker=9" in text
        assert str(TraceRecord(0.0, "x", 1)) .startswith("[")

    def test_format_limit(self):
        trace = Trace()
        for i in range(10):
            trace.emit(float(i), "tick", i, {})
        assert len(trace.format(limit=3).splitlines()) == 3


class TestModelTracing:
    @pytest.fixture
    def traced_run(self, fast_params):
        from repro.core.model import LockingGranularityModel

        trace = Trace()
        model = LockingGranularityModel(fast_params, trace=trace)
        result = model.run()
        return trace, result

    def test_every_completion_traced(self, traced_run):
        trace, result = traced_run
        assert len(trace.records(kind="complete")) == result.totcom

    def test_every_denial_traced(self, traced_run):
        trace, result = traced_run
        assert len(trace.records(kind="lock_deny")) == result.lock_denials
        assert len(trace.records(kind="lock_request")) == result.lock_requests

    def test_lifecycle_order_per_transaction(self, traced_run):
        trace, _ = traced_run
        order = {
            "arrive": 0, "admit": 1, "lock_request": 2, "lock_deny": 3,
            "block": 4, "wake": 5, "lock_grant": 6, "exec": 7,
            "fork": 8, "io_start": 9, "io_end": 10, "cpu_start": 11,
            "cpu_end": 12, "join": 13, "commit": 14, "complete": 15,
        }
        completed = {r.subject for r in trace.records(kind="complete")}
        for tid in completed:
            timeline = trace.timeline(tid)
            kinds = [kind for kind, _ in timeline]
            times = [time for _, time in timeline]
            # Time never regresses within a transaction.
            assert times == sorted(times), tid
            # First and last events are fixed.
            assert kinds[0] == "arrive"
            assert kinds[-1] == "complete"
            # Exactly one grant and one exec before completion.
            assert kinds.count("lock_grant") == 1
            assert kinds.count("exec") == 1
            assert kinds.index("lock_grant") < kinds.index("exec")
            # Denials strictly precede the grant.
            grant_at = kinds.index("lock_grant")
            deny_positions = [i for i, k in enumerate(kinds) if k == "lock_deny"]
            assert all(position < grant_at for position in deny_positions)
            # Attempts = denials + 1 for preclaim.
            requests = kinds.count("lock_request")
            denials = kinds.count("lock_deny")
            assert requests == denials + 1, tid
            # The structural order map is total on observed kinds.
            assert all(k in order for k in kinds), kinds

    def test_blocker_references_are_real_transactions(self, traced_run):
        trace, _ = traced_run
        seen = {r.subject for r in trace}
        for record in trace.records(kind="lock_deny"):
            assert record.details["blocker"] in seen

    def test_tracing_does_not_change_results(self, fast_params):
        from repro.core.model import LockingGranularityModel

        plain = LockingGranularityModel(fast_params).run()
        traced = LockingGranularityModel(fast_params, trace=Trace()).run()
        assert plain.totcom == traced.totcom
        assert plain.response_time == traced.response_time
        assert plain.lockios == traced.lockios
