"""Unit tests for granule placement strategies."""

import random

import pytest

from repro.core.parameters import SimulationParameters
from repro.core.placement import (
    BestPlacement,
    RandomPlacement,
    WorstPlacement,
    make_placement,
)


@pytest.fixture
def rng():
    return random.Random(99)


class TestBestPlacement:
    def test_lock_count_formula(self):
        placement = BestPlacement(dbsize=5000, ltot=100)
        # A transaction touching 10% of the database needs 10% of locks.
        assert placement.lock_count(500) == 10
        assert placement.lock_count(1) == 1
        assert placement.lock_count(0) == 0

    def test_lock_count_rounds_up(self):
        placement = BestPlacement(dbsize=5000, ltot=100)
        assert placement.lock_count(501) == 11

    def test_whole_database_granule(self):
        placement = BestPlacement(dbsize=5000, ltot=1)
        assert placement.lock_count(1) == 1
        assert placement.lock_count(5000) == 1

    def test_entity_granules(self):
        placement = BestPlacement(dbsize=5000, ltot=5000)
        assert placement.lock_count(250) == 250

    def test_granules_contiguous_with_wraparound(self, rng):
        placement = BestPlacement(dbsize=100, ltot=10)
        for _ in range(50):
            granules = placement.granules(35, rng)  # needs ceil(3.5) = 4
            assert len(granules) == 4
            assert len(set(granules)) == 4
            # Contiguity mod ltot: consecutive differences are 1 (mod 10).
            for a, b in zip(granules, granules[1:]):
                assert (b - a) % 10 == 1

    def test_granules_within_range(self, rng):
        placement = BestPlacement(dbsize=100, ltot=10)
        granules = placement.granules(100, rng)
        assert set(granules) == set(range(10))

    @pytest.mark.parametrize("ltot", [1, 2, 3, 5, 8])
    def test_granules_equal_the_modulo_run(self, ltot):
        class FixedStart:
            """Returns *start* from the one ``randrange(ltot)`` draw."""

            def __init__(self, start):
                self.start = start
                self.calls = []

            def randrange(self, stop):
                self.calls.append(stop)
                return self.start

        # dbsize == ltot makes lock_count(nu) == nu, so nu is the count.
        placement = BestPlacement(dbsize=ltot, ltot=ltot)
        for start in range(ltot):
            for count in range(ltot + 1):
                draws = FixedStart(start)
                assert placement.granules(count, draws) == [
                    (start + i) % ltot for i in range(count)
                ]
                assert draws.calls == [ltot]


class TestWorstPlacement:
    def test_lock_count_min_rule(self):
        placement = WorstPlacement(dbsize=5000, ltot=100)
        assert placement.lock_count(50) == 50
        assert placement.lock_count(100) == 100
        assert placement.lock_count(500) == 100  # capped at ltot

    def test_small_transaction_locks_per_entity(self):
        placement = WorstPlacement(dbsize=5000, ltot=5000)
        assert placement.lock_count(37) == 37

    def test_granules_distinct_and_sized(self, rng):
        placement = WorstPlacement(dbsize=5000, ltot=100)
        granules = placement.granules(30, rng)
        assert len(granules) == 30
        assert len(set(granules)) == 30
        assert all(0 <= g < 100 for g in granules)

    def test_oversized_transaction_locks_everything(self, rng):
        placement = WorstPlacement(dbsize=5000, ltot=10)
        assert placement.granules(500, rng) == list(range(10))


class TestRandomPlacement:
    def test_lock_count_is_yao_expectation(self):
        placement = RandomPlacement(dbsize=5000, ltot=100)
        value = placement.lock_count(250)
        # Touching 250 of 5000 entities with 50-entity granules leaves
        # almost no granule untouched... sanity-bound the expectation.
        assert 90 < value < 100

    def test_lock_count_zero(self):
        placement = RandomPlacement(dbsize=5000, ltot=100)
        assert placement.lock_count(0) == 0.0

    def test_single_entity_one_lock(self):
        placement = RandomPlacement(dbsize=5000, ltot=100)
        assert placement.lock_count(1) == pytest.approx(1.0)

    def test_granules_mean_matches_yao(self, rng):
        placement = RandomPlacement(dbsize=500, ltot=20)
        nu = 30
        expected = placement.lock_count(nu)
        samples = [len(placement.granules(nu, rng)) for _ in range(800)]
        assert sum(samples) / len(samples) == pytest.approx(expected, rel=0.05)

    def test_full_scan_touches_all_granules(self, rng):
        placement = RandomPlacement(dbsize=500, ltot=20)
        assert placement.granules(500, rng) == list(range(20))

    def test_non_divisible_dbsize(self, rng):
        placement = RandomPlacement(dbsize=503, ltot=20)
        granules = placement.granules(100, rng)
        assert all(0 <= g < 20 for g in granules)
        value = placement.lock_count(100)
        assert 0 < value <= 20


class TestOrdering:
    """The paper's placement hierarchy: best <= random <= worst."""

    @pytest.mark.parametrize("ltot", [1, 10, 100, 1000, 5000])
    @pytest.mark.parametrize("nu", [1, 25, 250, 2500])
    def test_best_le_random_le_worst(self, ltot, nu):
        best = BestPlacement(5000, ltot).lock_count(nu)
        rand = RandomPlacement(5000, ltot).lock_count(nu)
        worst = WorstPlacement(5000, ltot).lock_count(nu)
        assert best <= rand + 1e-9
        assert rand <= worst + 1e-9

    @pytest.mark.parametrize("ltot", [1, 10, 100])
    def test_lock_count_monotone_in_nu(self, ltot):
        for strategy in (
            BestPlacement(5000, ltot),
            WorstPlacement(5000, ltot),
            RandomPlacement(5000, ltot),
        ):
            previous = 0
            for nu in (1, 10, 100, 1000, 5000):
                value = strategy.lock_count(nu)
                assert value >= previous - 1e-9
                previous = value


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("best", BestPlacement),
            ("worst", WorstPlacement),
            ("random", RandomPlacement),
        ],
    )
    def test_builds_right_class(self, name, cls):
        placement = make_placement(SimulationParameters(placement=name))
        assert isinstance(placement, cls)
        assert placement.dbsize == 5000
        assert placement.ltot == 100
