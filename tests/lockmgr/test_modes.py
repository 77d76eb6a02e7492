"""Unit tests for lock modes and the compatibility matrix."""

import pytest

from repro.lockmgr import COMPATIBILITY, LockMode, compatible, supremum


class TestCompatibility:
    def test_matrix_is_complete(self):
        for held in LockMode:
            for requested in LockMode:
                assert isinstance(COMPATIBILITY[held][requested], bool)

    @pytest.mark.parametrize("held", list(LockMode))
    @pytest.mark.parametrize("requested", list(LockMode))
    def test_compatible_reads_the_matrix(self, held, requested):
        # compatible() is a bit-mask test; all 25 pairs must agree
        # with the matrix it was built from.
        assert compatible(held, requested) is COMPATIBILITY[held][requested]

    def test_matrix_is_symmetric(self):
        for a in LockMode:
            for b in LockMode:
                assert compatible(a, b) == compatible(b, a)

    def test_x_conflicts_with_everything(self):
        for mode in LockMode:
            assert not compatible(LockMode.X, mode)

    def test_is_compatible_with_all_but_x(self):
        for mode in LockMode:
            expected = mode is not LockMode.X
            assert compatible(LockMode.IS, mode) == expected

    def test_s_compatible_with_s_and_is_only(self):
        compatible_with_s = {m for m in LockMode if compatible(LockMode.S, m)}
        assert compatible_with_s == {LockMode.S, LockMode.IS}

    def test_six_compatible_with_is_only(self):
        compatible_with_six = {m for m in LockMode if compatible(LockMode.SIX, m)}
        assert compatible_with_six == {LockMode.IS}

    def test_ix_compatible_with_intentions_only(self):
        compatible_with_ix = {m for m in LockMode if compatible(LockMode.IX, m)}
        assert compatible_with_ix == {LockMode.IS, LockMode.IX}


class TestSupremum:
    def test_supremum_is_commutative(self):
        for a in LockMode:
            for b in LockMode:
                assert supremum(a, b) == supremum(b, a)

    def test_supremum_is_idempotent(self):
        for mode in LockMode:
            assert supremum(mode, mode) == mode

    def test_x_is_top(self):
        for mode in LockMode:
            assert supremum(mode, LockMode.X) == LockMode.X

    def test_s_plus_ix_is_six(self):
        assert supremum(LockMode.S, LockMode.IX) == LockMode.SIX

    def test_supremum_dominates_both(self):
        # Anything compatible with sup(a, b) must be compatible with
        # both a and b (the supremum is at least as strong).
        for a in LockMode:
            for b in LockMode:
                top = supremum(a, b)
                for other in LockMode:
                    if compatible(top, other):
                        assert compatible(a, other)
                        assert compatible(b, other)


class TestModeProperties:
    def test_intention_flags(self):
        assert LockMode.IS.is_intention
        assert LockMode.IX.is_intention
        assert LockMode.SIX.is_intention
        assert not LockMode.S.is_intention
        assert not LockMode.X.is_intention

    def test_str_is_short_name(self):
        assert str(LockMode.SIX) == "SIX"

    @pytest.mark.parametrize("mode", list(LockMode))
    def test_modes_round_trip_by_value(self, mode):
        assert LockMode(mode.value) is mode
