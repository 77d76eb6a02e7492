"""Package-level quality gates: API surface and documentation."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"

MODULES = [
    "repro",
    "repro.analytic",
    "repro.analytic.granularity",
    "repro.analytic.mva",
    "repro.analytic.queueing",
    "repro.analytic.yao",
    "repro.cli",
    "repro.core",
    "repro.core.conflict",
    "repro.core.hierarchy_engine",
    "repro.core.metrics",
    "repro.core.model",
    "repro.core.parameters",
    "repro.core.partitioning",
    "repro.core.placement",
    "repro.core.results",
    "repro.core.transaction",
    "repro.core.txnclass",
    "repro.core.workload",
    "repro.des",
    "repro.des.engine",
    "repro.des.errors",
    "repro.des.events",
    "repro.des.monitor",
    "repro.des.process",
    "repro.des.rng",
    "repro.des.server",
    "repro.des.trace",
    "repro.engine",
    "repro.engine.cluster",
    "repro.engine.machine",
    "repro.engine.processor",
    "repro.experiments",
    "repro.experiments.accelerator",
    "repro.experiments.cache",
    "repro.experiments.config",
    "repro.experiments.crossval",
    "repro.experiments.figures",
    "repro.experiments.journal",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.storage",
    "repro.experiments.svg",
    "repro.faults",
    "repro.faults.backoff",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.lockmgr",
    "repro.lockmgr.deadlock",
    "repro.lockmgr.manager",
    "repro.lockmgr.modes",
    "repro.lockmgr.table",
    "repro.net",
    "repro.net.network",
    "repro.obs",
    "repro.obs.exporters",
    "repro.obs.manifest",
    "repro.obs.metrics",
    "repro.obs.report",
    "repro.obs.sinks",
    "repro.obs.telemetry",
    "repro.obs.timeseries",
    "repro.obs.top",
    "repro.policies",
    "repro.policies.admission",
    "repro.policies.arrival",
    "repro.policies.cc",
    "repro.policies.commit",
    "repro.policies.conflict",
    "repro.policies.placement",
    "repro.policies.registry",
    "repro.policies.workload",
    "repro.stats",
    "repro.stats.batchmeans",
    "repro.stats.student_t",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, "{} lacks a module docstring".format(name)


def test_module_list_is_complete():
    """Every module under repro/ must be listed (and hence checked)."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        found.add(info.name)
    assert found == set(MODULES)


def layout_modules():
    """The dotted module names DESIGN.md §2's ``src/repro/`` tree lists."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("## 2. Repository layout", 1)[1].split("\n## ", 1)[0]
    tree = section.split("```", 2)[1]
    names, package = set(), None
    for line in tree.splitlines():
        match = re.match(r"( *)(\S+)", line)
        if match is None:
            continue
        indent, entry = len(match.group(1)), match.group(2)
        if indent == 0:
            package = "repro" if entry == "src/repro/" else None
            if package:
                names.add(package)
        elif package and indent == 2 and entry.endswith("/"):
            package = "repro." + entry[:-1]
            names.add(package)
        elif package and indent == 2 and entry.endswith(".py"):
            names.add("repro." + entry[:-3])
        elif package and indent == 4 and entry.endswith(".py"):
            names.add(package + "." + entry[:-3])
    return names


def test_design_layout_lists_every_module():
    """DESIGN.md §2 names each module under repro/, and no other."""
    listed = layout_modules()
    assert sorted(set(MODULES) - listed) == []
    assert sorted(listed - set(MODULES)) == []


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, "{}.__all__ names missing objects: {}".format(name, missing)


def iter_public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_have_docstrings(name):
    module = importlib.import_module(name)
    undocumented = []
    for obj_name, obj in iter_public_callables(module):
        if not inspect.getdoc(obj):
            undocumented.append(obj_name)
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not inspect.getdoc(member):
                    undocumented.append(
                        "{}.{}".format(obj_name, member_name)
                    )
    assert not undocumented, "undocumented in {}: {}".format(
        name, undocumented
    )


class TestPublicAPI:
    def test_top_level_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)

    def test_headline_entry_points(self):
        from repro import SimulationParameters, simulate

        result = simulate(
            SimulationParameters(
                dbsize=100, ltot=5, ntrans=2, maxtransize=10, npros=2,
                tmax=50.0,
            )
        )
        assert result.totcom >= 0
