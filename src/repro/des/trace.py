"""Structured event tracing.

A :class:`Trace` is an append-only log of ``(time, kind, subject,
details)`` records.  The simulation model emits one record per
transaction lifecycle step (arrival, lock request/grant/denial,
sub-transaction fork, per-device service, join, completion, ...),
which gives users a replayable account of a run and gives the tests a
way to assert causal ordering invariants that aggregate metrics cannot
express.

Tracing is off by default (zero overhead beyond one ``None`` check per
emit site).  :class:`Trace` is the in-memory *ring-buffer* backend of
the :class:`~repro.obs.sinks.TraceSink` protocol, whose one method is
``emit(time, kind, subject, details)``: *details* is one dict, built
once by the emitter and passed positionally, which a sink only reads
(a :class:`~repro.obs.sinks.MultiSink` hands every sink the same
dict, and :class:`Trace` keeps it in the record as it is).  The JSONL
file backend and the schema-versioned export/replay loader live in
:mod:`repro.obs.sinks`.
"""

from collections import Counter, deque
from itertools import islice
from types import MappingProxyType
from typing import NamedTuple


class TraceRecord(NamedTuple):
    """One traced event.

    A tuple, so a record carries no ``__dict__``, and one whose
    *details* hold only atomic values drops out of the cyclic
    collector.  The default *details* is a read-only empty mapping,
    safe to share.
    """

    time: float
    kind: str
    subject: int
    details: dict = MappingProxyType({})

    def __str__(self):
        extras = " ".join(
            "{}={}".format(key, value) for key, value in self.details.items()
        )
        return "[{:10.3f}] {:<14s} txn#{:<6d} {}".format(
            self.time, self.kind, self.subject, extras
        ).rstrip()


class Trace:
    """An in-memory, optionally bounded event log.

    Bounded traces are backed by a ``deque(maxlen=...)`` so eviction at
    the limit is O(1) per emit (a list's ``del records[0]`` is O(n),
    which turns a long capped trace into a quadratic accident).

    Parameters
    ----------
    limit:
        Maximum records retained (oldest dropped beyond it); ``0``
        keeps everything.
    """

    def __init__(self, limit=0):
        if limit < 0:
            raise ValueError("limit must be >= 0")
        self.limit = limit
        self._records = deque(maxlen=limit or None)
        self._dropped = 0

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def dropped(self):
        """Records discarded due to the retention limit."""
        return self._dropped

    def emit(self, time, kind, subject, details):
        """Append one record; *details* is kept as it is, not copied."""
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self._dropped += 1
        records.append(TraceRecord(time, kind, subject, details))

    def records(self, kind=None, subject=None):
        """Records filtered by *kind* and/or *subject*."""
        out = self._records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if subject is not None:
            out = [r for r in out if r.subject == subject]
        return list(out)

    def counts(self):
        """Mapping kind → number of records."""
        return dict(Counter(record.kind for record in self._records))

    def timeline(self, subject):
        """The (kind, time) sequence of one subject, in order."""
        return [
            (record.kind, record.time)
            for record in self._records
            if record.subject == subject
        ]

    def format(self, limit=None):
        """Human-readable dump (optionally only the first *limit* rows)."""
        rows = self._records if limit is None else islice(self._records, limit)
        return "\n".join(str(record) for record in rows)
