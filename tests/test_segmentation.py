"""Maximum-t statistics, significance gating, and recursive segmentation."""

import warnings

import numpy as np
import pytest

from patchscale.segmentation import (
    DEFAULT_MC_SEED,
    SMALL_N_MC,
    SignificancePolicy,
    _max_t_rows,
    _Prefix,
    segment,
    significance,
    significance_mc,
)


def t_statistic(values, split):
    """Pooled-variance two-sample t between values[:split] and values[split:].

    The direct form, kept as the oracle for the prefix-sum scan.  When the
    variance vanishes entirely, returns +inf for distinct means and 0.0 for
    equal means (a deterministic step is maximally significant).
    """
    x = np.asarray(values, dtype=np.float64)
    n_left = split
    n_right = len(x) - split
    if n_left < 2 or n_right < 2:
        raise ValueError(f"each side needs >= 2 points, got {n_left} and {n_right}")
    left = x[:split]
    right = x[split:]
    diff = abs(float(left.mean()) - float(right.mean()))
    pooled = (left.var(ddof=0) * n_left + right.var(ddof=0) * n_right) / (n_left + n_right - 2)
    denom_sq = pooled * (1.0 / n_left + 1.0 / n_right)
    if denom_sq <= 0.0:
        return float("inf") if diff > 0.0 else 0.0
    return diff / float(np.sqrt(denom_sq))


def max_t(values):
    """(position, t) of the best split of the whole sequence."""
    x = np.asarray(values, dtype=np.float64)
    return _Prefix(x).scan(0, len(x))


def test_t_statistic_hand_oracle():
    assert t_statistic([0, 1, 2, 3], 2) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_t_statistic_zero_variance_cases():
    assert t_statistic([5, 5, 5, 5], 2) == 0.0
    assert t_statistic([0, 0, 10, 10], 2) == np.inf


def test_t_statistic_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, 40)
    base = t_statistic(x, 13)
    assert t_statistic(3.7 * x - 2.0, 13) == pytest.approx(base, abs=1e-9)
    # Flipping the sign of the data flips which side is larger, not the size.
    assert t_statistic(-x, 13) == pytest.approx(base, abs=1e-9)


def test_max_t_step_and_constant():
    assert max_t([0, 0, 10, 10]) == (2, np.inf)
    assert max_t([5, 5, 5, 5]) == (2, 0.0)


def test_max_t_tie_breaks_to_smallest_position():
    # Positions 2 and 4 give the same t on this symmetric series.
    position, t_value = max_t([0, 0, 10, 10, 0, 0])
    assert position == 2
    assert t_value == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)


def test_max_t_matches_t_statistic_oracle():
    # The prefix-sum scan must pick the split the direct formula ranks highest.
    rng = np.random.default_rng(2)
    for n in (4, 5, 17, 60):
        x = rng.normal(0.0, 1.0, n) + np.where(np.arange(n) < n // 3, 1.5, 0.0)
        direct = [t_statistic(x, split) for split in range(2, n - 1)]
        position, t_value = max_t(x)
        assert position == 2 + int(np.argmax(direct))
        assert t_value == pytest.approx(max(direct), rel=1e-9)
        assert _max_t_rows(x[None, :])[0] == pytest.approx(max(direct), rel=1e-9)


def test_range_t_matches_t_statistic_oracle():
    # The neighbour test takes the kernel's scalar path, degenerate cases included.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0.0, 1.0, 30), [2.0] * 6, [7.0] * 6])
    prefix = _Prefix(x)
    for lo, mid, hi in ((0, 12, 30), (5, 7, 36), (30, 33, 36), (30, 36, 42), (25, 30, 42)):
        expected = t_statistic(x[lo:hi], mid - lo)
        assert prefix.range_t(lo, mid, hi) == pytest.approx(expected, rel=1e-9)


def test_significance_bounds_and_monotonicity():
    n = 200
    values = [significance(t, n) for t in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)]
    assert values[0] == 0.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    assert significance(np.inf, n) == 1.0


def test_significance_saturates_below_eta_crossover():
    # For very short windows the closed form degenerates to certainty.
    assert significance(3.0, 15) == 1.0


# Closed-form values pinned from when scipy.special was imported at module
# level; the lazy import must leave every digit alone.  The tests above pin
# the infinite-t and t = 0 branches.
PINNED_SIGNIFICANCE = [
    (0.0, 15, 1.0),  # eta <= 0: saturates even at t = 0
    (2.0, 16, 0.9939138517994626),
    (2.5, 30, 0.9315241073405209),
    (3.0, 100, 0.9530728728290512),
    (4.0, 1000, 0.9958110888567948),
    (6.0, 5000, 0.9999987538106537),
]


@pytest.mark.parametrize("t_max, n, expected", PINNED_SIGNIFICANCE)
def test_significance_pinned_values(t_max, n, expected):
    assert significance(t_max, n) == expected


def test_significance_validation():
    with pytest.raises(ValueError):
        significance(1.0, 3)
    with pytest.raises(ValueError):
        significance(-0.5, 100)


def test_significance_mc_deterministic_and_bounded():
    a = significance_mc(2.5, 30, 2000, DEFAULT_MC_SEED)
    b = significance_mc(2.5, 30, 2000, DEFAULT_MC_SEED)
    assert a == b
    assert 0.0 <= a <= 1.0
    low = significance_mc(1.0, 30, 2000, DEFAULT_MC_SEED)
    high = significance_mc(5.0, 30, 2000, DEFAULT_MC_SEED)
    assert low <= a <= high


def test_policy_routes_short_windows_to_monte_carlo():
    policy = SignificancePolicy()
    n_short = SMALL_N_MC - 1
    expected = significance_mc(3.0, n_short, policy.mc_trials, policy.seed)
    assert policy.significance(3.0, n_short) == expected
    assert policy.significance(3.0, 100) == significance(3.0, 100)
    mc_policy = SignificancePolicy(mode="monte-carlo", mc_trials=2000)
    assert mc_policy.significance(3.0, 100) == significance_mc(3.0, 100, 2000, DEFAULT_MC_SEED)


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        SignificancePolicy(mode="bayes")


def test_segment_constant_series_has_no_cuts():
    assert segment([5.0] * 100, 0.99).boundaries == (0, 100)


def test_segment_iid_series_usually_uncut():
    rng = np.random.default_rng(2)
    seg = segment(rng.normal(0.0, 1.0, 500), 0.99)
    assert seg.boundaries == (0, 500)


def test_segment_clean_step_exact():
    seg = segment([0.0] * 50 + [10.0] * 50, 0.99)
    assert seg.boundaries == (0, 50, 100)


def test_segment_three_levels_recovers_both_boundaries():
    rng = np.random.default_rng(3)
    x = np.concatenate(
        [rng.normal(0, 1, 300), rng.normal(8, 1, 300), rng.normal(16, 1, 300)]
    )
    seg = segment(x, 0.99)
    inner = seg.boundaries[1:-1]
    for target in (300, 600):
        assert min(abs(b - target) for b in inner) <= 15


def test_segment_affine_invariance_of_boundaries():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(0, 1, 120), rng.normal(6, 1, 80)])
    base = segment(x, 0.99).boundaries
    assert segment(2.5 * x + 7.0, 0.99).boundaries == base


def test_segment_short_series_terminal():
    assert segment([1.0, 5.0, 9.0], 0.99).boundaries == (0, 3)


def test_segment_threshold_validation():
    with pytest.raises(ValueError):
        segment([1.0] * 10, 0.0)
    with pytest.raises(ValueError):
        segment([1.0] * 10, 1.0)


def test_segment_accepts_signed_series():
    from conftest import make_series

    series = make_series([0.0] * 50 + [10.0] * 50)
    assert segment(series, 0.99).boundaries == (0, 50, 100)


def test_segment_boundaries_strictly_increasing_and_spanning():
    rng = np.random.default_rng(5)
    levels = rng.choice([-4.0, 4.0], size=8)
    x = np.concatenate([rng.normal(mu, 1.0, rng.integers(20, 60)) for mu in levels])
    seg = segment(x, 0.99)
    bounds = seg.boundaries
    assert bounds[0] == 0 and bounds[-1] == len(x)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_segment_is_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(0, 1, 80), rng.normal(2.0, 1, 60), rng.normal(-1, 1, 70)])
    boundaries = segment(values).boundaries
    assert len(boundaries) > 2
    for power in (-1000, -60, 7, 900):
        assert segment(np.ldexp(values, power)).boundaries == boundaries


def test_segment_huge_values_do_not_overflow():
    # Squares of |x| > ~1e154 overflow unless segment rescales first.
    rng = np.random.default_rng(5)
    alternating = np.empty(400)
    alternating[0::2] = 1e200
    alternating[1::2] = 1e150 * rng.uniform(size=200)
    step = np.array([1e307] * 30 + [1.0] * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert segment(alternating).boundaries == (0, 400)
        # The step is found; the extra cuts at 2 and 32 inside the constant
        # stretches come from prefix-sum rounding (no variance floor yet).
        assert 30 in segment(step).boundaries
