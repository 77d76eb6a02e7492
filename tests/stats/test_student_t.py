"""The stdlib Student-t quantile must match scipy to high precision.

Reference values below are scipy 1.x ``stats.t.ppf`` outputs, pinned
as constants so the test runs without scipy installed.
"""

import pytest

from repro.stats.student_t import t_ppf

#: (q, df) -> scipy stats.t.ppf(q, df), pinned.
REFERENCE = {
    (0.975, 1): 12.706204736432095,
    (0.975, 2): 4.302652729911275,
    (0.975, 3): 3.182446305284263,
    (0.975, 9): 2.262157162798205,
    (0.975, 29): 2.045229642132703,
    (0.95, 4): 2.1318467863266495,
    (0.95, 19): 1.7291328115213678,
    (0.995, 9): 3.2498355440153697,
    (0.05, 9): -1.8331129326536335,
    (0.5, 7): 0.0,
}


@pytest.mark.parametrize("q,df", sorted(REFERENCE))
def test_stdlib_matches_pinned_scipy_values(q, df):
    assert t_ppf(q, df) == pytest.approx(
        REFERENCE[(q, df)], rel=1e-9, abs=1e-12
    )


@pytest.mark.parametrize("q,df", sorted(REFERENCE))
def test_public_entry_point_agrees(q, df):
    # Callers in batchmeans and results do plain float arithmetic on the
    # quantile, so the public entry point must hand back a built-in float
    # as well as the pinned value.
    value = t_ppf(q, df)
    assert type(value) is float
    assert value == pytest.approx(REFERENCE[(q, df)], rel=1e-9, abs=1e-12)


def test_symmetry():
    for df in (1, 2, 3, 8, 40):
        assert t_ppf(0.975, df) == pytest.approx(
            -t_ppf(0.025, df), rel=1e-12
        )


def test_large_df_approaches_normal():
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.975)
    assert t_ppf(0.975, 10_000) == pytest.approx(z, abs=1e-3)


def test_domain_errors():
    with pytest.raises(ValueError):
        t_ppf(0.0, 5)
    with pytest.raises(ValueError):
        t_ppf(1.0, 5)
    with pytest.raises(ValueError):
        t_ppf(0.5, 0)
