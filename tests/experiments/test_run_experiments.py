"""The batched global work queue (:func:`run_experiments`)."""

import pytest

from repro.core.parameters import SimulationParameters
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import (
    _job_cost,
    run_experiment,
    run_experiments,
)


def _spec(key, **base_changes):
    base = dict(
        dbsize=200, ntrans=3, maxtransize=20, npros=2, tmax=80.0, seed=1
    )
    base.update(base_changes)
    return ExperimentSpec(
        key=key,
        title=key,
        base=SimulationParameters(**base),
        sweeps={"npros": (1, 2), "ltot": (1, 20)},
        series_fields=("npros",),
        y_fields=("throughput",),
    )


class TestBatchedQueue:
    def test_matches_individual_runs_bit_identically(self):
        spec_a = _spec("a")
        spec_b = _spec("b", tmax=60.0)
        solo = [
            run_experiment(spec_a, cache=False),
            run_experiment(spec_b, cache=False),
        ]
        batched = run_experiments([spec_a, spec_b], cache=False)
        for one, many in zip(solo, batched):
            for oa, ob in zip(one.outcomes, many.outcomes):
                for ra, rb in zip(oa.results, ob.results):
                    assert ra.params == rb.params
                    assert ra.as_dict() == rb.as_dict()

    def test_shared_cells_simulated_once(self):
        """Two specs over the same grid: every cell runs exactly once,
        the second requester sees source "shared", and both specs still
        satisfy cache_misses == runs."""
        spec_a = _spec("a")
        spec_b = _spec("b")  # identical grid -> identical cell keys
        infos = []
        results = run_experiments(
            [spec_a, spec_b],
            cache=False,
            cell_progress=lambda done, total, info: infos.append(info),
        )
        sources = [info["source"] for info in infos]
        assert sources.count("run") == 4
        assert sources.count("shared") == 4
        assert {info["spec"] for info in infos} == {"a", "b"}
        for result in results:
            assert result.stats.runs == 4
            assert result.stats.cache_misses == 4
            assert all(o is not None for o in result.outcomes)
        # Identical grids must deliver identical outcomes.
        for oa, ob in zip(results[0].outcomes, results[1].outcomes):
            assert oa.as_dict() == ob.as_dict()

    def test_shared_cells_write_cache_once(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        results = run_experiments([_spec("a"), _spec("b")], cache=cache)
        assert results[0].stats.runs == results[1].stats.runs == 4
        # A rerun answers every cell of both specs from the cache.
        again = run_experiments([_spec("a"), _spec("b")], cache=cache)
        for result in again:
            assert result.stats.cache_hits == 4
            assert result.stats.runs == 0

    def test_global_progress_counts_span_the_batch(self):
        ticks = []
        run_experiments(
            [_spec("a"), _spec("b", tmax=60.0)],
            cache=False,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks == [(i + 1, 8) for i in range(8)]

    def test_stats_gain_queue_fields(self):
        result = run_experiments([_spec("a")], cache=False)[0]
        stats = result.stats
        assert stats.workers == 1  # inline execution
        assert 0.0 < stats.occupancy <= 1.05
        assert stats.queue_wait_seconds == 0.0  # no pool, no waiting

    def test_pooled_stats_measure_queue_wait(self):
        result = run_experiments([_spec("a")], cache=False, jobs=2)[0]
        stats = result.stats
        assert stats.workers >= 1
        assert stats.occupancy > 0.0
        assert stats.queue_wait_seconds >= 0.0

    def test_journals_must_align_with_specs(self, tmp_path):
        with pytest.raises(ValueError, match="journals must align"):
            run_experiments(
                [_spec("a"), _spec("b")],
                journals=[str(tmp_path / "only-one.journal")],
            )

    def test_per_spec_journals_resume_independently(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        journals = [
            str(tmp_path / "a.journal"),
            str(tmp_path / "b.journal"),
        ]
        run_experiments([_spec("a"), _spec("b")], cache=cache, journals=journals)
        resumed = run_experiments(
            [_spec("a"), _spec("b")],
            cache=cache,
            journals=journals,
            resume=True,
        )
        for result in resumed:
            assert result.stats.resumed == 4
            assert result.stats.runs == 0


class TestQueueOrdering:
    def test_job_cost_ranks_by_expected_work(self):
        small = SimulationParameters(
            dbsize=200, ntrans=2, maxtransize=20, npros=1, tmax=50.0, seed=1
        )
        big = small.replace(npros=4, tmax=400.0)
        assert _job_cost(big) > _job_cost(small)

    def test_longest_cell_starts_first(self, monkeypatch):
        """Inline execution order follows descending job cost."""
        import repro.experiments.runner as runner_module

        started = []
        real = runner_module._run_single_timed

        def spying(params, *args):
            started.append((params.tmax, params.npros))
            return real(params, *args)

        monkeypatch.setattr(runner_module, "_run_single_timed", spying)
        spec = _spec("order")
        run_experiments([spec], cache=False)
        costs = [tmax * npros * 3 for tmax, npros in started]
        assert costs == sorted(costs, reverse=True)
