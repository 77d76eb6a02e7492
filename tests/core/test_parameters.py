"""Unit tests for simulation parameters."""

import pytest

from repro.core.parameters import TABLE_1, SimulationParameters


class TestDefaults:
    def test_table1_values(self):
        # The recoverable Table 1 values (see DESIGN.md).
        assert TABLE_1.dbsize == 5000
        assert TABLE_1.ntrans == 10
        assert TABLE_1.maxtransize == 500
        assert TABLE_1.cputime == 0.05
        assert TABLE_1.iotime == 0.2
        assert TABLE_1.lcputime == 0.01
        assert TABLE_1.liotime == 0.2

    def test_default_strategies_match_paper(self):
        assert TABLE_1.placement == "best"
        assert TABLE_1.partitioning == "horizontal"
        assert TABLE_1.conflict_engine == "probabilistic"
        assert TABLE_1.protocol == "preclaim"
        assert TABLE_1.write_fraction == 1.0

    def test_mean_transaction_size_uniform(self):
        params = SimulationParameters(maxtransize=500)
        assert params.mean_transaction_size == pytest.approx(250.5)

    def test_mean_transaction_size_mixed(self):
        params = SimulationParameters(workload="mixed")
        expected = 0.8 * 25.5 + 0.2 * 250.5
        assert params.mean_transaction_size == pytest.approx(expected)

    def test_mean_transaction_size_fixed(self):
        params = SimulationParameters(workload="fixed", maxtransize=100)
        assert params.mean_transaction_size == 100.0

    def test_granule_size(self):
        params = SimulationParameters(dbsize=5000, ltot=100)
        assert params.granule_size == 50.0


class TestValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"dbsize": 0},
            {"ltot": 0},
            {"ltot": 5001},
            {"ntrans": 0},
            {"maxtransize": 0},
            {"maxtransize": 5001},
            {"npros": 0},
            {"cputime": -0.1},
            {"iotime": -1},
            {"lcputime": -1},
            {"liotime": -0.5},
            {"tmax": 0},
            {"warmup": -1},
            {"warmup": 5000.0},
            {"placement": "magic"},
            {"partitioning": "vertical"},
            {"conflict_engine": "psychic"},
            {"protocol": "optimistic"},
            {"workload": "zipf"},
            {"mix_small_fraction": 1.5},
            {"workload": "mixed", "mix_small_maxtransize": 0},
            {"workload": "mixed", "mix_large_maxtransize": 99999},
            {"write_fraction": -0.1},
            {"txn_policy": "random"},
            {"mpl_limit": -1},
            {"discipline": "lifo"},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            SimulationParameters(**changes)

    def test_incremental_requires_explicit_engine(self):
        with pytest.raises(ValueError):
            SimulationParameters(protocol="incremental")
        # With the explicit engine it is fine.
        SimulationParameters(protocol="incremental", conflict_engine="explicit")

    def test_ltot_boundaries_allowed(self):
        SimulationParameters(ltot=1)
        SimulationParameters(ltot=5000)


class TestReplace:
    def test_replace_returns_new_validated_instance(self):
        params = SimulationParameters()
        other = params.replace(ltot=10)
        assert other.ltot == 10
        assert params.ltot == 100  # original untouched

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            SimulationParameters().replace(ltot=0)

    def test_as_dict_round_trip(self):
        params = SimulationParameters(ltot=7, seed=99)
        rebuilt = SimulationParameters(**params.as_dict())
        assert rebuilt == params

    def test_frozen(self):
        params = SimulationParameters()
        with pytest.raises(Exception):
            params.ltot = 5


class TestEngineCapabilities:
    """Engine requirements are declared on the conflict factories, not
    hardcoded by name in the validator (PR 10 hardening)."""

    def test_factories_declare_capability_attributes(self):
        from repro.policies import registry

        for name in ("probabilistic", "explicit", "hierarchical"):
            engine = registry.resolve("conflict", name)
            assert isinstance(engine.needs_granules, bool)
            assert isinstance(engine.table_backed, bool)
            assert isinstance(engine.supports_granule_cc, bool)

    def test_granule_cc_needs_supporting_engine(self):
        with pytest.raises(ValueError):
            SimulationParameters(
                protocol="incremental", conflict_engine="hierarchical"
            )

    def test_skewed_placement_needs_table_backed_engine(self):
        with pytest.raises(ValueError):
            SimulationParameters(
                placement="skewed", conflict_engine="probabilistic"
            )
        SimulationParameters(
            placement="skewed", conflict_engine="explicit"
        )

    def test_hierarchical_rejects_more_files_than_database_blocks(self):
        with pytest.raises(ValueError):
            SimulationParameters(
                conflict_engine="hierarchical", dbsize=500, nfiles=501
            )

    def test_hierarchical_clamps_nfiles_to_ltot(self):
        # nfiles > ltot is a *clamp*, not an error: a fixed nfiles
        # must survive sweeps over the full ltot grid.
        SimulationParameters(
            conflict_engine="hierarchical", ltot=10, nfiles=11
        )

    def test_hierarchical_rejects_threshold_above_ltot(self):
        with pytest.raises(ValueError):
            SimulationParameters(
                conflict_engine="hierarchical", ltot=10, nfiles=5,
                escalation_threshold=11,
            )

    def test_flat_engines_skip_hierarchy_bounds(self):
        # The same nfiles value is inert outside the hierarchy engine.
        SimulationParameters(ltot=10, nfiles=11)
