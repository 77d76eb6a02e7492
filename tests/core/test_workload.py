"""Unit tests for transaction-size distributions."""

import random

import pytest

from repro.core.parameters import SimulationParameters
from repro.core.workload import FixedSizes, MixedSizes, UniformSizes, make_size_sampler


@pytest.fixture
def rng():
    return random.Random(123)


class TestUniformSizes:
    def test_bounds(self, rng):
        sampler = UniformSizes(50)
        samples = [sampler.sample(rng) for _ in range(2000)]
        assert min(samples) >= 1
        assert max(samples) <= 50

    def test_mean_close_to_theory(self, rng):
        sampler = UniformSizes(100)
        samples = [sampler.sample(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(sampler.mean, rel=0.05)

    def test_mean_property(self):
        assert UniformSizes(500).mean == 250.5

    def test_invalid_max_rejected(self):
        with pytest.raises(ValueError):
            UniformSizes(0)

    def test_degenerate_single_size(self, rng):
        sampler = UniformSizes(1)
        assert all(sampler.sample(rng) == 1 for _ in range(10))


class TestMixedSizes:
    def test_bounds_cover_both_classes(self, rng):
        sampler = MixedSizes(0.8, 50, 500)
        samples = [sampler.sample(rng) for _ in range(5000)]
        assert min(samples) >= 1
        assert max(samples) <= 500
        assert any(s > 50 for s in samples)  # some large ones appear

    def test_mix_fraction_respected(self, rng):
        sampler = MixedSizes(0.8, 50, 500)
        samples = [sampler.sample(rng) for _ in range(10000)]
        large = sum(1 for s in samples if s > 50)
        # Large draws can only come from the 20% class, and a large
        # draw exceeds 50 with probability 0.9.
        assert large / len(samples) == pytest.approx(0.2 * 0.9, abs=0.02)

    def test_mean_matches_paper_mix(self):
        sampler = MixedSizes(0.8, 50, 500)
        assert sampler.mean == pytest.approx(0.8 * 25.5 + 0.2 * 250.5)

    def test_all_small_fraction(self, rng):
        sampler = MixedSizes(1.0, 50, 500)
        assert all(sampler.sample(rng) <= 50 for _ in range(500))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            MixedSizes(small_fraction=2.0)


class TestFixedSizes:
    def test_always_the_same(self, rng):
        sampler = FixedSizes(42)
        assert all(sampler.sample(rng) == 42 for _ in range(10))
        assert sampler.mean == 42.0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            FixedSizes(0)


class TestFactory:
    def test_uniform(self):
        sampler = make_size_sampler(SimulationParameters(workload="uniform"))
        assert isinstance(sampler, UniformSizes)
        assert sampler.maxtransize == 500

    def test_mixed(self):
        sampler = make_size_sampler(SimulationParameters(workload="mixed"))
        assert isinstance(sampler, MixedSizes)
        assert sampler.small.maxtransize == 50
        assert sampler.large.maxtransize == 500

    def test_fixed(self):
        sampler = make_size_sampler(
            SimulationParameters(workload="fixed", maxtransize=7)
        )
        assert isinstance(sampler, FixedSizes)
        assert sampler.size == 7
