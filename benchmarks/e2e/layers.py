"""Layer map of ``src/repro`` and the cProfile split of the traced run.

Every module of the package is assigned to one layer by its path
relative to ``src/repro``; code outside the package (the standard
library, this harness) is the ``python`` layer.  A C builtin has no
module of its own, and neither has code generated from a string (a
dataclass ``__init__``), so their self time goes to the layer of each
caller, in proportion to the time spent under that caller:
``heappush`` called from the kernel is kernel time.
"""

import os

LAYERS = {
    "des.engine": (
        "des/__init__.py",
        "des/calendar.py",
        "des/engine.py",
        "des/errors.py",
        "des/rng.py",
    ),
    "des.events": ("des/events.py", "des/resource.py", "des/store.py"),
    "des.process": ("des/process.py",),
    "des.server": ("des/server.py",),
    "engine": (
        "engine/__init__.py",
        "engine/cluster.py",
        "engine/machine.py",
        "engine/processor.py",
        "engine/txn_scheduler.py",
        "faults/__init__.py",
        "faults/injector.py",
        "faults/plan.py",
        "net/__init__.py",
        "net/network.py",
    ),
    "core.model": (
        "__init__.py",
        "core/__init__.py",
        "core/model.py",
        "core/parameters.py",
        "core/partitioning.py",
        "core/placement.py",
        "core/transaction.py",
        "core/txnclass.py",
        "core/workload.py",
    ),
    "core.conflict": ("core/conflict.py", "core/hierarchy_engine.py"),
    "lockmgr": (
        "lockmgr/__init__.py",
        "lockmgr/deadlock.py",
        "lockmgr/hierarchy.py",
        "lockmgr/manager.py",
        "lockmgr/modes.py",
        "lockmgr/table.py",
    ),
    "policies": (
        "faults/backoff.py",
        "policies/__init__.py",
        "policies/admission.py",
        "policies/arrival.py",
        "policies/cc.py",
        "policies/commit.py",
        "policies/conflict.py",
        "policies/placement.py",
        "policies/registry.py",
        "policies/workload.py",
    ),
    "collect": (
        "core/metrics.py",
        "core/results.py",
        "des/monitor.py",
        "stats/__init__.py",
        "stats/batchmeans.py",
        "stats/student_t.py",
    ),
    "obs": (
        "des/trace.py",
        "obs/__init__.py",
        "obs/exporters.py",
        "obs/manifest.py",
        "obs/metrics.py",
        "obs/report.py",
        "obs/sinks.py",
        "obs/telemetry.py",
        "obs/timeseries.py",
        "obs/top.py",
    ),
    "experiments": (
        "analytic/__init__.py",
        "analytic/granularity.py",
        "analytic/mva.py",
        "analytic/queueing.py",
        "analytic/yao.py",
        "cli.py",
        "experiments/__init__.py",
        "experiments/accelerator.py",
        "experiments/cache.py",
        "experiments/config.py",
        "experiments/crossval.py",
        "experiments/figures.py",
        "experiments/journal.py",
        "experiments/report.py",
        "experiments/runner.py",
        "experiments/search.py",
        "experiments/sensitivity.py",
        "experiments/storage.py",
        "experiments/svg.py",
    ),
    "python": (),
}

MODULE_LAYER = {
    module: layer for layer, modules in LAYERS.items() for module in modules
}

#: Exact call counts: metric name -> (module, function name).
CALLS = {
    "engine.lock_overhead.calls": ("engine/machine.py", "lock_overhead"),
    "engine.lock_work.calls": ("engine/processor.py", "lock_work"),
    "des.server.submit.calls": ("des/server.py", "submit"),
    "des.events.all_of.calls": ("des/engine.py", "all_of"),
    "des.process.spawn.calls": ("des/engine.py", "process"),
    "core.conflict.request.calls": ("core/conflict.py", "request"),
    "lockmgr.acquire.calls": ("lockmgr/manager.py", "acquire"),
    "lockmgr.deadlock.calls": ("lockmgr/deadlock.py", "resolve_once"),
}
#: Calls to any function named ``emit`` in an ``obs`` module.
EMIT_CALLS = "obs.emit.calls"


def module_of(filename, package_dir):
    """*filename* relative to the package as ``a/b.py``, or ``None`` outside it."""
    relative = os.path.relpath(filename, package_dir)
    if relative.startswith(".."):
        return None
    return relative.replace(os.sep, "/")


def layer_of(filename, package_dir):
    """The layer *filename* belongs to (``python`` outside the package)."""
    module = module_of(filename, package_dir)
    if module is None:
        return "python"
    return MODULE_LAYER.get(module, "python")


def split(stats, package_dir):
    """Per-layer shares of self time and call counts from cProfile *stats*.

    *stats* is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``(file, line, function) -> (cc, nc, tt, ct, callers)``, where
    ``callers`` maps each caller to ``(nc, cc, tt, ct)``.  Returns
    ``{metric name: value}`` with every ``<layer>.self_frac`` (the
    layer's share of all self time) and every call count.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(CALLS, 0)
    calls[EMIT_CALLS] = 0
    wanted = {target: name for name, target in CALLS.items()}
    layers = {}

    def layer(key):
        filename = key[0]
        if filename not in layers:
            layers[filename] = layer_of(filename, package_dir)
        return layers[filename]

    for key, (_, ncalls, tottime, _, callers) in stats.items():
        if key[0] == "~" or key[0].startswith("<"):
            shared = sum(entry[2] for entry in callers.values())
            for caller, entry in callers.items():
                self_s[layer(caller)] += entry[2]
            self_s["python"] += tottime - shared
            continue
        owner = layer(key)
        self_s[owner] += tottime
        module = module_of(key[0], package_dir)
        name = wanted.get((module, key[2]))
        if name is not None:
            calls[name] += ncalls
        if owner == "obs" and key[2] == "emit":
            calls[EMIT_CALLS] += ncalls
    total = sum(self_s.values()) or 1.0
    metrics = {name + ".self_frac": seconds / total for name, seconds in self_s.items()}
    metrics.update(calls)
    return metrics
