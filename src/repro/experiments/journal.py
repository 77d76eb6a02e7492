"""Crash-safe sweep journal: append-only record of completed cells.

A sweep is identified by the ordered content addresses (cache keys) of
all its ``(configuration, replication)`` cells — :func:`sweep_id`
hashes them, so the same spec with the same replication count always
maps to the same id, and *any* change to the grid maps to a different
one.  While the sweep runs, the journal appends one JSON line per
completed cell and flushes immediately, so a ``kill -9`` at any
instant leaves a valid prefix on disk.

On ``--resume`` the journal is reloaded tolerantly: a torn final line
(the usual crash artefact) is skipped, and a journal written for a
*different* sweep id is discarded wholesale rather than poisoning the
resume.  The journal records progress only; the results themselves
live in the content-addressed cache, which is what a resumed sweep
reads them back from.

File format (JSONL)::

    {"sweep": "<id>", "cells": 12, "label": "table1"}   # header
    {"done": "<cache key>"}                             # one per cell
    {"done": "<cache key>", "provenance": "analytic"}   # accelerator fill
    {"done": "<cache key>", "result": {...}}            # faulted sweeps
    {"finished": true}                                  # clean end

Faulted sweeps (a :class:`~repro.faults.plan.FaultPlan` in force)
never touch the result cache, so their cells journal the full output
record inline — ``load_results`` reads them back on resume, and the
JSON float round-trip is exact, so a resumed faulted sweep is
bit-identical to an uninterrupted one.
"""

import hashlib
import json
import os


def _parse(line):
    """One journal line as a dict; ``{}`` for a torn or foreign line."""
    try:
        entry = json.loads(line)
    except ValueError:
        return {}
    return entry if isinstance(entry, dict) else {}


def sweep_id(cell_keys):
    """Stable identity of a sweep: hash of its ordered cell addresses."""
    digest = hashlib.sha256("\n".join(cell_keys).encode("ascii"))
    return digest.hexdigest()[:16]


class SweepJournal:
    """Append-only progress journal for one sweep file.

    Parameters
    ----------
    path:
        Journal file location; parent directories are created on
        :meth:`begin`.
    """

    def __init__(self, path):
        self.path = str(path)
        self._handle = None
        self._sweep = None

    def __repr__(self):
        return "<SweepJournal {!r}>".format(self.path)

    # -- reading ---------------------------------------------------------

    def load(self, sweep):
        """Completed cell keys journalled for sweep id *sweep*.

        Tolerant: a missing file, a journal for another sweep, or an
        unparsable header yields an empty set; unparsable body lines
        (torn tail writes) are skipped individually.
        """
        return {entry["done"] for entry in (self._read(sweep) or ()) if "done" in entry}

    def load_results(self, sweep):
        """Inline result documents journalled for sweep id *sweep*.

        Returns ``{cell key: output dict}`` for every ``done`` entry
        that carried a ``result`` payload (faulted sweeps).  Same
        tolerance rules as :meth:`load`.
        """
        return {
            entry["done"]: entry["result"]
            for entry in (self._read(sweep) or ())
            if "done" in entry and "result" in entry
        }

    def finished(self, sweep):
        """True when the journal records a clean end of sweep *sweep*."""
        return any(entry.get("finished") for entry in (self._read(sweep) or ()))

    def _read(self, sweep):
        """The body entries on disk, or ``None`` if not *sweep*'s journal.

        The one reader behind every query: a missing or empty file, an
        unparsable header, or a header naming another sweep yields
        ``None``; unparsable body lines (torn writes at a crash point)
        are skipped one by one.
        """
        try:
            with open(self.path) as handle:
                if _parse(handle.readline()).get("sweep") != sweep:
                    return None
                return [entry for entry in map(_parse, handle) if entry]
        except OSError:
            return None

    # -- writing ---------------------------------------------------------

    def begin(self, sweep, cells, label=None, keep=False):
        """Open the journal for appending under sweep id *sweep*.

        With ``keep=True`` an existing journal for the *same* sweep is
        preserved and appended to (the resume path); otherwise, and
        always when the on-disk journal belongs to a different sweep,
        the file is rewritten with a fresh header.
        """
        preserve = keep and self._read(sweep) is not None
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if preserve:
            self._handle = open(self.path, "a")
        else:
            self._handle = open(self.path, "w")
            header = {"sweep": sweep, "cells": cells}
            if label is not None:
                header["label"] = label
            self._write(header)
        self._sweep = sweep

    def record(self, key, provenance=None, result=None):
        """Append one completed cell and flush it to disk.

        *provenance* tags cells not produced by the simulator (the
        analytic accelerator records ``"analytic"``); plain simulated
        or cached cells omit the field.  :meth:`load` treats both as
        done.  *result* (an output dict) is stored inline for faulted
        sweeps, whose results never reach the cache.
        """
        if self._handle is not None:
            entry = {"done": key}
            if provenance is not None:
                entry["provenance"] = provenance
            if result is not None:
                entry["result"] = result
            self._write(entry)

    def finish(self):
        """Append the clean-completion marker."""
        if self._handle is not None:
            self._write({"finished": True})

    def close(self):
        """Flush and close the journal file (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            self._handle.close()
            self._handle = None

    def _write(self, entry):
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
