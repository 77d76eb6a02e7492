"""Integration tests for the experiment runner."""

import json
import os

import pytest

import repro.experiments.runner as runner_module
from repro.core.parameters import SimulationParameters
from repro.des.errors import SimulationStalled
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSpec
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    ExperimentResult,
    SweepStalled,
    SweepStats,
    _retry_backoff,
    _run_single_timed,
    run_experiment,
)


def _failing_worker(params, *args):
    """Module-level replacement worker (process pools must pickle it)."""
    if params.ltot == 20:
        raise RuntimeError("injected failure ltot=20")
    return _run_single_timed(params, *args)


def _always_stalling_worker(params, *args):
    """Module-level stalling worker (process pools must pickle it)."""
    raise SimulationStalled("injected stall")


class _StallOnceWorker:
    """Inline-only worker: stalls on its first call, then recovers."""

    def __init__(self):
        self.calls = 0

    def __call__(self, params, *args):
        self.calls += 1
        if self.calls == 1:
            raise SimulationStalled("injected stall")
        return _run_single_timed(params, *args)


class _StallOncePerCellWorker:
    """Picklable worker: stalls on the first call for each cell.

    The first call per cell is recorded by creating a marker file with
    ``O_EXCL`` under *marker_dir*, so the record survives the fresh
    process pool of every retry round.
    """

    def __init__(self, marker_dir):
        self.marker_dir = str(marker_dir)

    def __call__(self, params, *args):
        marker = os.path.join(
            self.marker_dir, "{}-{}-{}".format(params.npros, params.ltot, params.seed)
        )
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return _run_single_timed(params, *args)
        raise SimulationStalled("injected stall")


@pytest.fixture
def tiny_spec():
    return ExperimentSpec(
        key="tiny",
        title="tiny sweep",
        base=SimulationParameters(
            dbsize=200, ntrans=3, maxtransize=20, npros=2, tmax=80.0, seed=1
        ),
        sweeps={"npros": (1, 2), "ltot": (1, 20)},
        series_fields=("npros",),
        y_fields=("throughput",),
    )


class TestRunExperiment:
    def test_runs_every_configuration(self, tiny_spec):
        result = run_experiment(tiny_spec)
        assert len(result) == 4
        assert all(outcome is not None for outcome in result.outcomes)

    def test_outcomes_keep_sweep_order(self, tiny_spec):
        result = run_experiment(tiny_spec)
        keys = [(o.params.npros, o.params.ltot) for o in result.outcomes]
        assert keys == [(1, 1), (1, 20), (2, 1), (2, 20)]

    def test_replications_aggregate(self, tiny_spec):
        result = run_experiment(tiny_spec, replications=2)
        assert all(len(outcome) == 2 for outcome in result.outcomes)

    def test_cell_progress_fires_per_replication(self, tiny_spec):
        seen = []
        run_experiment(
            tiny_spec,
            replications=2,
            cache=False,
            cell_progress=lambda done, total, info: seen.append(
                (done, total, info)
            ),
        )
        assert [(done, total) for done, total, _ in seen] == [
            (i + 1, 8) for i in range(8)
        ]
        infos = [info for _, _, info in seen]
        assert all(info["source"] == "run" for info in infos)
        assert all(info["seconds"] > 0 for info in infos)
        assert {(info["config"], info["replication"]) for info in infos} == {
            (i, r) for i in range(4) for r in range(2)
        }
        assert infos[0]["label"]

    def test_cell_progress_reports_cache_hits(self, tiny_spec, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(root=tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache)
        seen = []
        run_experiment(
            tiny_spec,
            cache=cache,
            cell_progress=lambda done, total, info: seen.append(info),
        )
        assert len(seen) == 4
        assert all(info["source"] == "cache" for info in seen)
        assert all(info["seconds"] is None for info in seen)

    def test_manifests_written_next_to_cache_entries(self, tiny_spec, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(root=tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache)
        for params in tiny_spec.configurations():
            manifest = cache.get_manifest(params)
            assert manifest is not None, params
            assert manifest["cache_hit"] is False
            assert manifest["seed"] == params.seed
            assert manifest["wall_seconds"] > 0

    def test_manifests_opt_out(self, tiny_spec, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(root=tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache, manifests=False)
        assert all(
            cache.get_manifest(params) is None
            for params in tiny_spec.configurations()
        )

    def test_parallel_matches_serial(self, tiny_spec):
        serial = run_experiment(tiny_spec)
        parallel = run_experiment(tiny_spec, jobs=2)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.mean("throughput") == b.mean("throughput")
            assert a.mean("totcom") == b.mean("totcom")

    def test_pool_is_bit_identical_to_inline(self, tiny_spec):
        """jobs=N must reproduce the inline run exactly, field by field,
        replication by replication (the pool parallelises replication
        runs, but aggregation stays in seed order)."""
        inline = run_experiment(tiny_spec, replications=2, cache=False)
        pooled = run_experiment(tiny_spec, replications=2, jobs=2, cache=False)
        for a, b in zip(inline.outcomes, pooled.outcomes):
            assert len(a) == len(b) == 2
            for ra, rb in zip(a.results, b.results):
                assert ra.params == rb.params
                assert ra.as_dict() == rb.as_dict()

    def test_replications_zero_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            run_experiment(tiny_spec, replications=0)

    def test_worker_exception_surfaces_inline(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_run_single_timed", _failing_worker
        )
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(tiny_spec, cache=False)

    def test_worker_exception_cancels_pool(self, tiny_spec, monkeypatch):
        """A failing worker must abort the sweep with the original
        exception instead of returning outcomes with None holes."""
        monkeypatch.setattr(
            runner_module, "_run_single_timed", _failing_worker
        )
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(tiny_spec, jobs=2, cache=False)


class TestJournalledSweeps:
    def test_journal_path_accepted_and_finished(self, tiny_spec, tmp_path):
        journal_path = tmp_path / "journals" / "tiny.journal"
        cache = ResultCache(tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache, journal=str(journal_path))
        assert journal_path.exists()
        lines = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert lines[0]["cells"] == 4
        assert lines[0]["label"] == "tiny"
        assert sum(1 for entry in lines if "done" in entry) == 4
        assert lines[-1] == {"finished": True}

    def test_resume_counts_journalled_cache_hits(self, tiny_spec, tmp_path):
        journal_path = tmp_path / "tiny.journal"
        cache = ResultCache(tmp_path / "cache")
        first = run_experiment(tiny_spec, cache=cache, journal=journal_path)
        resumed = run_experiment(
            tiny_spec, cache=cache, journal=journal_path, resume=True
        )
        assert resumed.stats.resumed == 4
        assert resumed.stats.cache_hits == 4
        assert resumed.stats.runs == 0
        for a, b in zip(first.outcomes, resumed.outcomes):
            assert a.as_dict() == b.as_dict()

    def test_partial_journal_resumes_the_rest(self, tiny_spec, tmp_path):
        journal_path = tmp_path / "tiny.journal"
        cache = ResultCache(tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache, journal=journal_path)
        # Simulate a crash after two cells: keep header + two entries.
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_experiment(
            tiny_spec, cache=cache, journal=journal_path, resume=True
        )
        assert resumed.stats.resumed == 2
        assert resumed.stats.cache_hits == 4  # the rest still hit the cache
        assert SweepJournal(journal_path).finished(
            json.loads(journal_path.read_text().splitlines()[0])["sweep"]
        )

    def test_without_resume_journal_is_rewritten(self, tiny_spec, tmp_path):
        journal_path = tmp_path / "tiny.journal"
        cache = ResultCache(tmp_path / "cache")
        run_experiment(tiny_spec, cache=cache, journal=journal_path)
        again = run_experiment(tiny_spec, cache=cache, journal=journal_path)
        assert again.stats.resumed == 0
        assert again.stats.cache_hits == 4

    def test_journal_instance_accepted(self, tiny_spec, tmp_path):
        journal = SweepJournal(tmp_path / "tiny.journal")
        result = run_experiment(tiny_spec, cache=False, journal=journal)
        assert result.stats.runs == 4
        assert journal._handle is None  # closed on the way out


class TestWatchdog:
    def test_generous_watchdog_changes_nothing(self, tiny_spec):
        plain = run_experiment(tiny_spec, cache=False)
        guarded = run_experiment(tiny_spec, cache=False, watchdog=300.0)
        assert guarded.stats.watchdog_restarts == 0
        for a, b in zip(plain.outcomes, guarded.outcomes):
            for ra, rb in zip(a.results, b.results):
                assert ra.as_dict() == rb.as_dict()

    def test_inline_stall_retries_then_succeeds(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_run_single_timed", _StallOnceWorker()
        )
        result = run_experiment(
            tiny_spec, cache=False, watchdog=1.0, watchdog_retries=2
        )
        assert result.stats.watchdog_restarts == 1
        assert all(outcome is not None for outcome in result.outcomes)

    def test_pooled_stall_retries_then_succeeds(
        self, tiny_spec, monkeypatch, tmp_path
    ):
        plain = run_experiment(tiny_spec, cache=False)
        monkeypatch.setattr(
            runner_module, "_run_single_timed",
            _StallOncePerCellWorker(tmp_path),
        )
        result = run_experiment(
            tiny_spec, cache=False, jobs=2, watchdog=1.0, watchdog_retries=2
        )
        assert result.stats.watchdog_restarts == 4  # every cell, once
        assert len(list(tmp_path.iterdir())) == 4
        assert all(outcome is not None for outcome in result.outcomes)
        for a, b in zip(plain.outcomes, result.outcomes):
            assert a.as_dict() == b.as_dict()

    def test_inline_stall_exhausts_retries(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_run_single_timed", _always_stalling_worker
        )
        with pytest.raises(SweepStalled, match="watchdog"):
            run_experiment(
                tiny_spec, cache=False, watchdog=1.0, watchdog_retries=0
            )

    def test_pooled_stall_exhausts_retries(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_run_single_timed", _always_stalling_worker
        )
        with pytest.raises(SweepStalled, match="watchdog"):
            run_experiment(
                tiny_spec, cache=False, jobs=2,
                watchdog=1.0, watchdog_retries=0,
            )

    def test_retry_backoff_is_capped_exponential(self):
        assert _retry_backoff(1) == 0.5
        assert _retry_backoff(2) == 1.0
        assert _retry_backoff(3) == 2.0
        assert _retry_backoff(4) == 4.0
        assert _retry_backoff(5) == 5.0
        assert _retry_backoff(50) == 5.0


class TestSweepStats:
    def test_uncached_run_counts_every_cell(self, tiny_spec):
        result = run_experiment(tiny_spec, replications=2, cache=False)
        stats = result.stats
        assert stats.configs == 4
        assert stats.replications == 2
        assert stats.cells == 8
        assert stats.runs == 8
        assert stats.cache_hits == 0
        assert stats.cache_misses == 8
        assert stats.hit_rate == 0.0
        assert stats.elapsed_seconds > 0

    def test_per_config_accounting(self, tiny_spec):
        result = run_experiment(tiny_spec, replications=2, cache=False)
        per_config = result.stats.per_config
        assert [c.index for c in per_config] == [0, 1, 2, 3]
        assert all(c.runs == 2 for c in per_config)
        assert all(c.seconds > 0 for c in per_config)
        assert per_config[0].label == "ltot=1, npros=1"

    def test_summary_is_one_line(self, tiny_spec):
        result = run_experiment(tiny_spec, cache=False)
        summary = result.stats.summary()
        assert "\n" not in summary
        assert "4 configs" in summary

    def test_hit_rate_empty_stats(self):
        assert SweepStats().hit_rate == 0.0

    def test_handmade_result_has_no_stats(self, tiny_spec):
        result = ExperimentResult(tiny_spec, [])
        assert result.stats is None


class TestExperimentResult:
    def test_rows_merge_params_and_outputs(self, tiny_spec):
        result = run_experiment(tiny_spec)
        rows = result.rows()
        assert len(rows) == 4
        assert {"ltot", "npros", "throughput"} <= set(rows[0])

    def test_series_grouping(self, tiny_spec):
        result = run_experiment(tiny_spec)
        curves = result.series("throughput")
        assert set(curves) == {"npros=1", "npros=2"}
        for points in curves.values():
            assert [x for x, _ in points] == [1, 20]

    def test_series_sorted_by_x(self, tiny_spec):
        result = run_experiment(tiny_spec)
        for points in result.series().values():
            xs = [x for x, _ in points]
            assert xs == sorted(xs)

    def test_optimum_picks_max(self, tiny_spec):
        result = run_experiment(tiny_spec)
        x, y = result.optimum("npros=2", "throughput")
        curve = dict(result.series("throughput")["npros=2"])
        assert y == max(curve.values())
        assert curve[x] == y

    def test_optimum_minimize(self, tiny_spec):
        result = run_experiment(tiny_spec)
        _, y = result.optimum("npros=2", "throughput", maximize=False)
        curve = dict(result.series("throughput")["npros=2"])
        assert y == min(curve.values())

    def test_empty_result_wrapping(self, tiny_spec):
        result = ExperimentResult(tiny_spec, [])
        assert len(result) == 0
        assert result.series() == {}
