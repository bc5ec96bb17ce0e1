"""Jarque-Bera normality testing and per-firm versus pooled lognormality."""

import numpy as np
import pytest

from conftest import make_directional
from patchscale.errors import NumericalError
from patchscale.lognormal import (
    ASYMPTOTIC_MIN_N,
    CHI2_CRITICAL_95,
    MIN_JB_N,
    SMALL_N_CRITICAL_95,
    _jb_from_rows,
    critical_value,
    jarque_bera,
    per_firm_lognormality,
    pooled_lognormality,
)

# The seed and trial count that generated the pinned small-sample table.
TABLE_SEED = 161803
TABLE_TRIALS = 200_000


def _mc_critical_value(n, trials, seed):
    """Monte Carlo 95th percentile of the JB statistic under normality at size n.

    This is the generator of lognormal.SMALL_N_CRITICAL_95: its entries are
    this function at (n, TABLE_TRIALS, TABLE_SEED), every digit kept.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, trials]))
    chunk = max(1, 4_000_000 // max(n, 1))
    stats = []
    remaining = trials
    while remaining > 0:
        rows = rng.standard_normal((min(chunk, remaining), n))
        stats.append(_jb_from_rows(rows))
        remaining -= len(rows)
    return float(np.quantile(np.concatenate(stats), 0.95))


def test_jb_zero_oracle():
    # Symmetric sample engineered to have skewness 0 and kurtosis exactly 3.
    c = np.sqrt(6.0 + np.sqrt(50.0))
    xs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, c, -c])
    stat, reject = jarque_bera(xs)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert reject is False


def test_jb_location_scale_invariance():
    rng = np.random.default_rng(80)
    xs = rng.normal(0.0, 1.0, 200)
    base, _ = jarque_bera(xs)
    shifted, _ = jarque_bera(5.0 * xs - 11.0)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_jb_rejects_heavy_skew():
    rng = np.random.default_rng(81)
    stat, reject = jarque_bera(rng.exponential(1.0, 200))
    assert reject is True
    assert stat > CHI2_CRITICAL_95


def test_jb_accepts_normal_sample():
    rng = np.random.default_rng(82)
    stat, reject = jarque_bera(rng.normal(10.0, 3.0, 500))
    assert reject is False
    assert stat < CHI2_CRITICAL_95


def test_jb_reject_matches_critical_value():
    rng = np.random.default_rng(83)
    for n in (30, 80, 300):
        xs = rng.normal(0.0, 1.0, n)
        stat, reject = jarque_bera(xs)
        assert reject == (stat > critical_value(n))


def test_jb_validation():
    with pytest.raises(ValueError):
        jarque_bera(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        jarque_bera([1.0, 2.0, 3.0])
    with pytest.raises(NumericalError):
        jarque_bera([4.0] * 20)


def test_critical_value_regimes():
    assert critical_value(ASYMPTOTIC_MIN_N) == CHI2_CRITICAL_95
    assert critical_value(500) == CHI2_CRITICAL_95
    assert CHI2_CRITICAL_95 == pytest.approx(5.9915, abs=5e-4)
    small = critical_value(20)
    # The finite-sample null of the statistic is lighter-tailed than chi2(2).
    assert 1.0 < small < CHI2_CRITICAL_95
    assert critical_value(20) == small


def test_chi2_critical_matches_scipy():
    # The pinned asymptotic critical value is scipy's, every digit: the closed
    # form -2 ln 0.05 differs in the last bits and would shift lognormality.csv.
    from scipy.stats import chi2

    assert CHI2_CRITICAL_95 == float(chi2.ppf(0.95, 2))


def test_critical_value_rejects_small_n():
    for n in (0, 3, MIN_JB_N - 1):
        with pytest.raises(ValueError, match="need n >= 8"):
            critical_value(n)
    assert critical_value(MIN_JB_N) == SMALL_N_CRITICAL_95[0]


def test_critical_value_table_shape():
    assert len(SMALL_N_CRITICAL_95) == ASYMPTOTIC_MIN_N - MIN_JB_N
    for n in range(MIN_JB_N, ASYMPTOTIC_MIN_N):
        value = critical_value(n)
        assert value == SMALL_N_CRITICAL_95[n - MIN_JB_N]
        assert np.isfinite(value)
        assert 1.0 < value < CHI2_CRITICAL_95


@pytest.mark.parametrize("n", [8, 20, 35, 49])
def test_pinned_critical_values_match_monte_carlo(n):
    assert critical_value(n) == _mc_critical_value(n, TABLE_TRIALS, TABLE_SEED)


def test_mc_critical_deterministic():
    a = _mc_critical_value(15, trials=20_000, seed=4)
    b = _mc_critical_value(15, trials=20_000, seed=4)
    assert a == b
    assert _mc_critical_value(15, trials=20_000, seed=5) != a


def _lognormal_firm(rng, firm_id, n, mu, sigma=0.4):
    return [
        make_directional(firm_id=firm_id, V_m=float(np.exp(rng.normal(mu, sigma))))
        for _ in range(n)
    ]


def test_per_firm_lognormality_accepts_and_rejects():
    rng = np.random.default_rng(84)
    patches = _lognormal_firm(rng, "GOOD", 60, mu=4.0)
    # Log-uniform values have strongly platykurtic logs: the test should reject.
    patches += [
        make_directional(firm_id="FLAT", V_m=float(np.exp(rng.uniform(0.0, 8.0))))
        for _ in range(500)
    ]
    patches += _lognormal_firm(rng, "TINY", 5, mu=2.0)

    summary = per_firm_lognormality(patches, "V_m", min_patches=10)
    assert summary.variable == "V_m"
    assert summary.tested == 2
    by_firm = {r.firm_id: r for r in summary.results}
    assert set(by_firm) == {"FLAT", "GOOD"}
    assert by_firm["GOOD"].reject is False
    assert by_firm["FLAT"].reject is True
    assert summary.passed == 1
    assert summary.percent == pytest.approx(50.0)
    assert [r.firm_id for r in summary.results] == sorted(by_firm)


def test_per_firm_lognormality_draws_no_random_numbers(monkeypatch):
    rng = np.random.default_rng(89)
    patches = []
    for n in (8, 30, 49):
        patches += _lognormal_firm(rng, f"N{n}", n, mu=3.0)

    def no_rng(*args, **kwargs):
        raise AssertionError("critical values must be table lookups")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    summary = per_firm_lognormality(patches, "V_m", min_patches=MIN_JB_N)
    assert sorted(r.n for r in summary.results) == [8, 30, 49]
    for r in summary.results:
        assert r.critical_value == SMALL_N_CRITICAL_95[r.n - MIN_JB_N]


def test_per_firm_lognormality_drops_nonpositive_values():
    rng = np.random.default_rng(85)
    patches = [
        make_directional(firm_id="A", T=int(np.exp(rng.normal(7.0, 0.5))))
        for _ in range(20)
    ]
    # Duration is the tested variable here; zero durations cannot enter logs.
    patches += [make_directional(firm_id="B", T=0) for _ in range(20)]
    summary = per_firm_lognormality(patches, "T", min_patches=10)
    assert [r.firm_id for r in summary.results] == ["A"]


def test_per_firm_lognormality_validation():
    patches = _lognormal_firm(np.random.default_rng(86), "A", 20, mu=3.0)
    with pytest.raises(ValueError):
        per_firm_lognormality(patches, "price")
    with pytest.raises(ValueError):
        per_firm_lognormality(patches, "V_m", min_patches=5)
    with pytest.raises(NumericalError):
        per_firm_lognormality(patches[:3], "V_m", min_patches=10)


def test_pooled_rejects_heterogeneous_mixture():
    # Each firm's values are lognormal, but their scales differ so much that
    # the pooled log-sample is far from normal: the central mechanism.
    rng = np.random.default_rng(87)
    patches = _lognormal_firm(rng, "SMALL", 100, mu=0.0, sigma=0.3)
    patches += _lognormal_firm(rng, "LARGE", 100, mu=6.0, sigma=0.3)
    stat, reject = pooled_lognormality(patches, "V_m")
    assert reject is True

    single = per_firm_lognormality(patches, "V_m", min_patches=10)
    assert single.percent == pytest.approx(100.0)


def test_pooled_validation():
    patches = _lognormal_firm(np.random.default_rng(88), "A", 5, mu=1.0)
    with pytest.raises(NumericalError):
        pooled_lognormality(patches, "V_m")
