"""Run provenance: what produced a result, recorded next to it.

A manifest answers, months later, "which code and which inputs made
this number?": the content-address of the parameters (the same hash
the result cache uses), the seed, the simulator's
``MODEL_VERSION``, the git commit of the working tree, interpreter
and platform, wall-clock cost, and whether the result came from the
cache or from a fresh simulation.

Everything is best-effort: provenance must never be able to fail a
run, so the git lookup degrades to ``None`` outside a repository and
manifest writes swallow I/O errors (mirroring the result cache's
contract).
"""

import json
import os
import platform
import sys
import time

#: Manifest file layout version.
#:
#: 2: added the optional ``metrics`` block (final counter snapshot +
#:    histogram summaries of the run's live metrics).  Schema-1
#:    manifests (no block) are still loaded.
MANIFEST_SCHEMA = 2

#: Schema versions :func:`load_manifest` accepts.
_COMPATIBLE_SCHEMAS = frozenset({1, 2})

#: Memoised git HEAD (one lookup per process; ``False`` = not probed).
_GIT_SHA = False


def git_sha():
    """The working tree's HEAD commit, or ``None`` when unavailable."""
    global _GIT_SHA
    if _GIT_SHA is False:
        import subprocess

        try:
            _GIT_SHA = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = None
    return _GIT_SHA


def build_manifest(
    params,
    cache_hit=False,
    wall_seconds=None,
    model_version=None,
    metrics=None,
    **extra,
):
    """A provenance dict for one run of *params*.

    Parameters
    ----------
    params:
        The run's :class:`~repro.core.parameters.SimulationParameters`.
    cache_hit:
        Whether the result was answered from the cache.
    wall_seconds:
        Wall-clock cost of producing the result (simulation time for a
        miss; lookup cost is negligible and may be ``None`` for hits).
    model_version:
        Simulator version; defaults to the current
        :data:`repro.core.model.MODEL_VERSION`.
    metrics:
        Optional live-metrics summary for the run (the
        :func:`repro.obs.metrics.summarize_snapshot` shape: flattened
        counters/gauges plus per-histogram count/sum/mean/p50/p95).
        Omitted from the manifest when ``None`` so un-instrumented
        runs keep their schema-1-shaped payload.
    extra:
        Additional fields merged into the manifest (e.g. ``exhibit``).
    """
    from repro.core.model import MODEL_VERSION
    from repro.experiments.cache import cache_key
    from repro.policies import active_policies

    if model_version is None:
        model_version = MODEL_VERSION
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "params_hash": cache_key(params, model_version),
        "seed": params.seed,
        "model_version": model_version,
        "policies": active_policies(params),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "created_unix": time.time(),
        "cache_hit": bool(cache_hit),
        "wall_seconds": wall_seconds,
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    manifest.update(extra)
    return manifest


def write_manifest(path, manifest):
    """Write *manifest* as JSON at *path*; best-effort (None on error)."""
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        return path
    except OSError:
        return None


def load_manifest(path):
    """Read a manifest back, or ``None`` when missing/corrupt.

    Loading is version-tolerant: every schema in
    :data:`_COMPATIBLE_SCHEMAS` is accepted (older manifests simply
    lack the newer optional fields); unknown schemas return ``None``.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("schema") not in _COMPATIBLE_SCHEMAS:
        return None
    return document
