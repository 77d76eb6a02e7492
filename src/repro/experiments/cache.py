"""Content-addressed cache of single simulation runs.

Every completed simulation is a pure function of its
:class:`~repro.core.parameters.SimulationParameters` (the master seed
is one of them) and of the simulator's semantics, versioned by
:data:`repro.core.model.MODEL_VERSION`.  That makes results safe to
memoise on disk: an entry's address is a SHA-256 over the canonical
JSON of ``(schema, model-version, parameters)``, so any change to a
parameter, to the seed, or to the model version lands on a different
address and old entries are simply never read again.

Entries are stored one JSON file per run under
``results/.cache/<aa>/<hash>.json`` (``aa`` is the first hash byte,
keeping directories small).  The environment variables
``REPRO_CACHE_DIR`` (relocate the cache) and ``REPRO_CACHE=0``
(disable the default cache entirely) are honoured by
:func:`default_cache_dir` / :func:`cache_enabled`, which
:func:`repro.experiments.runner.run_experiment` consults.

The cache is deliberately forgiving: a missing, corrupted, truncated
or version-mismatched file is treated as a miss (and overwritten on
the next store), and I/O errors while writing are swallowed — caching
must never be able to fail a sweep.
"""

import hashlib
import json
import os
import tempfile

from repro.core.model import MODEL_VERSION
from repro.core.results import RESULT_FIELDS, SimulationResult

#: On-disk layout version; bump when the entry format itself changes.
CACHE_SCHEMA = 1

#: Output fields added after entries may already have been written.
#: Entries from before a field existed stay readable by assuming the
#: field's no-fault value, instead of silently invalidating the whole
#: cache on every result-schema extension.
_COMPAT_DEFAULTS = {
    "failure_aborts": 0,
    "availability": 1.0,
    "degraded_throughput": 0.0,
    "commit_aborts": 0,
    "commit_latency": 0.0,
    "messages_sent": 0,
    "messages_dropped": 0,
    "partition_time": 0.0,
}

#: Distributed-cluster parameters added after cache entries (and the
#: committed golden digests) already existed.  At their single-node
#: defaults they are dropped from the canonical params document, so
#: every pre-existing address and entry stays byte-identical; any
#: non-default value is kept and lands on a fresh address.
_SINGLE_NODE_DEFAULTS = {
    "nnodes": 1,
    "commit_protocol": "local",
    "net_latency": 0.0,
    "net_jitter": 0.0,
    "commit_timeout": 5.0,
}


def params_document(params):
    """Canonical params dict for addressing and entry comparison.

    ``params.as_dict()`` minus any distributed field still at its
    single-node default (see :data:`_SINGLE_NODE_DEFAULTS`) — the same
    omit-when-default trick :func:`repro.policies.policy_versions`
    uses, applied to parameters instead of policies.
    """
    document = params.as_dict()
    for name, default in _SINGLE_NODE_DEFAULTS.items():
        if document.get(name) == default:
            del document[name]
    return document


def result_from_document(params, outputs):
    """Rebuild a :class:`SimulationResult` from a stored output dict.

    Missing fields fall back to :data:`_COMPAT_DEFAULTS` (entries
    written before a field existed); any other absence raises
    ``KeyError``.  Shared by cache reads and journal-resumed faulted
    sweeps, so both paths reconstruct results identically.
    """
    values = {}
    for name in RESULT_FIELDS:
        if name in outputs:
            values[name] = outputs[name]
        elif name in _COMPAT_DEFAULTS:
            values[name] = _COMPAT_DEFAULTS[name]
        else:
            raise KeyError(name)
    # Multi-class breakdowns are stored only when present (the
    # single-class entry format is unchanged); absent means empty.
    per_class = tuple(
        dict(entry) for entry in outputs.get("per_class", ())
    )
    return SimulationResult(params=params, per_class=per_class, **values)

#: Default location, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


def default_cache_dir():
    """Cache root: ``$REPRO_CACHE_DIR`` or ``results/.cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def cache_enabled():
    """False when caching is globally disabled via ``REPRO_CACHE=0``."""
    return os.environ.get("REPRO_CACHE", "") not in ("0", "no", "off")


def cache_key(params, model_version=MODEL_VERSION):
    """Stable content address of one run: hex SHA-256 digest.

    The address covers the full parameter set (seed included), the
    model version and the cache schema, canonicalised as
    sorted-key/compact JSON so it is independent of dict ordering,
    Python version and process.

    When a selected policy declares a behavioural ``version`` other
    than 1 (see :func:`repro.policies.policy_versions`), the versions
    are folded into the address too — so evolving one protocol forks
    only *its* cache entries.  For all-default versions the document
    is byte-identical to the historical format, keeping every
    previously written address (and the committed golden digests)
    valid.
    """
    from repro.policies import policy_versions

    document = {
        "schema": CACHE_SCHEMA,
        "model_version": model_version,
        "params": params_document(params),
    }
    versions = policy_versions(params)
    if versions is not None:
        document["policy_versions"] = versions
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent map ``SimulationParameters -> SimulationResult``.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first store);
        defaults to :func:`default_cache_dir`.
    model_version:
        Simulator version baked into every address; defaults to
        :data:`repro.core.model.MODEL_VERSION`.  Entries written under
        a different version are invisible.
    """

    def __init__(self, root=None, model_version=MODEL_VERSION):
        self.root = str(root) if root is not None else default_cache_dir()
        self.model_version = model_version

    def __repr__(self):
        return "<ResultCache root={!r} model_version={}>".format(
            self.root, self.model_version
        )

    def path_for(self, params):
        """Entry file path for *params* (whether or not it exists)."""
        key = cache_key(params, self.model_version)
        return os.path.join(self.root, key[:2], key + ".json")

    def manifest_path_for(self, params):
        """Provenance manifest path for *params*' entry.

        The ``.manifest`` suffix (not ``.json``) keeps manifests out
        of :meth:`__len__` / :meth:`clear`, which count cache entries.
        """
        key = cache_key(params, self.model_version)
        return os.path.join(self.root, key[:2], key + ".manifest")

    def put_manifest(self, params, manifest):
        """Store a provenance *manifest* dict next to the entry.

        Best-effort, like :meth:`put`: returns the path or ``None``.
        """
        from repro.obs.manifest import write_manifest

        return write_manifest(self.manifest_path_for(params), manifest)

    def get_manifest(self, params):
        """The stored manifest dict, or ``None``."""
        from repro.obs.manifest import load_manifest

        return load_manifest(self.manifest_path_for(params))

    def get(self, params):
        """The cached :class:`SimulationResult`, or ``None`` on a miss.

        Any unreadable, unparsable or inconsistent entry counts as a
        miss — the caller just re-simulates and overwrites it.  A file
        that exists but cannot be decoded (truncated write, disk
        corruption) is additionally *quarantined*: renamed to
        ``<entry>.corrupt`` with a logged warning, so the damaged
        bytes are kept for inspection and can never shadow the fresh
        entry the recompute will store.
        """
        path = self.path_for(params)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError:
            return None  # plain miss: no entry on disk
        except ValueError:
            self._quarantine(path, "undecodable JSON")
            return None
        try:
            if document.get("schema") != CACHE_SCHEMA:
                return None
            if document.get("model_version") != self.model_version:
                return None
            if document.get("params") != params_document(params):
                return None  # hash collision or hand-edited entry
            return result_from_document(params, document["result"])
        except (ValueError, TypeError, KeyError, AttributeError):
            self._quarantine(path, "malformed entry structure")
            return None

    def _quarantine(self, path, reason):
        """Move a corrupt entry aside as ``<entry>.corrupt``."""
        try:
            os.replace(path, path + ".corrupt")
            import logging

            logging.getLogger(__name__).warning(
                "quarantined corrupt cache entry %s (%s); will recompute",
                path,
                reason,
            )
        except OSError:
            pass  # caching must never be able to fail a sweep

    def put(self, params, result):
        """Store *result* for *params*; best-effort (errors swallowed).

        The entry is written to a temporary file and atomically
        renamed, so concurrent readers and writers never observe a
        half-written entry.
        """
        path = self.path_for(params)
        document = {
            "schema": CACHE_SCHEMA,
            "model_version": self.model_version,
            "params": params_document(params),
            "result": {
                name: getattr(result, name) for name in RESULT_FIELDS
            },
        }
        if result.per_class:
            document["result"]["per_class"] = [
                dict(entry) for entry in result.per_class
            ]
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(document, handle, sort_keys=True)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            return path
        except OSError:
            return None

    def delete(self, params):
        """Drop the entry for *params*; True if one existed."""
        try:
            os.unlink(self.path_for(params))
            return True
        except OSError:
            return False

    def clear(self):
        """Remove every entry under the root; returns the count."""
        removed = 0
        for directory, _subdirs, files in os.walk(self.root):
            for name in files:
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(directory, name))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __len__(self):
        """Number of entries currently on disk (any model version)."""
        total = 0
        for _directory, _subdirs, files in os.walk(self.root):
            total += sum(1 for name in files if name.endswith(".json"))
        return total
