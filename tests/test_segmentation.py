"""Maximum-t statistics, significance gating, and recursive segmentation."""

import functools
import warnings
from bisect import bisect_right, insort

import numpy as np
import pytest
from scipy.special import betainc, betaincinv

from conftest import make_series
from patchscale import segmentation
from patchscale.segmentation import (
    DEFAULT_MC_SEED,
    SMALL_N_MC,
    SignificancePolicy,
    _max_t_rows,
    _null_rank,
    _pooled_t,
    _scan,
    segment,
    segment_many,
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


class Prefix:
    """Prefix sums of a window's values and squares, and the one-window scan.

    The per-window form the lockstep scan replaced, kept as its oracle.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        self.sums = np.concatenate(([0.0], np.cumsum(values)))
        self.sq_sums = np.concatenate(([0.0], np.cumsum(values * values)))

    def range_t(self, lo, mid, hi):
        """t between [lo, mid) and [mid, hi), as the kernel gives it for this one triple."""
        sums, sq_sums = self.sums, self.sq_sums
        lo, mid, hi = (np.array([i]) for i in (lo, mid, hi))
        t = _pooled_t(
            sums[mid] - sums[lo], sq_sums[mid] - sq_sums[lo],
            sums[hi] - sums[mid], sq_sums[hi] - sq_sums[mid],
            mid - lo, hi - mid, hi - lo,
        )
        return float(t[0])

    def scan(self, lo, hi):
        """Position and value of the maximum t over all splits of [lo, hi); ties to the smallest."""
        sums, sq_sums = self.sums, self.sq_sums
        positions = np.arange(lo + 2, hi - 1)
        n_left = (positions - lo).astype(np.float64)
        sum_left = sums[positions] - sums[lo]
        sq_left = sq_sums[positions] - sq_sums[lo]
        t = _pooled_t(
            sum_left, sq_left,
            (sums[hi] - sums[lo]) - sum_left, (sq_sums[hi] - sq_sums[lo]) - sq_left,
            n_left, hi - lo - n_left, hi - lo,
        )
        best = int(np.argmax(t))
        return int(positions[best]), float(t[best])


def closed_form_oracle(t_value, n):
    """The closed-form significance of one pair: scipy's betainc and Python's power."""
    eta = float(4.19 * np.log(n) - 11.54)
    if eta <= 0.0 or t_value == np.inf:
        return 1.0
    nu = n - 2
    i_value = float(betainc(0.4 * nu, 0.4, nu / (nu + t_value * t_value)))
    return min(max((1.0 - i_value) ** eta, 0.0), 1.0)


def null_oracle(t_value, n, trials, seed=DEFAULT_MC_SEED):
    """The Monte Carlo significance of one pair: the share of the null table at or below t."""
    if t_value == np.inf:
        return 1.0
    table = segmentation._null_table(n, trials, seed)
    return int(np.searchsorted(table, t_value, side="right")) / trials


def score(policy, t_value, n):
    """The significance of one (t, n) pair under the policy, from the oracles."""
    if policy.uses_null(np.array([n]))[0]:
        return null_oracle(t_value, n, policy.mc_trials, policy.seed)
    return closed_form_oracle(t_value, n)


def passes(policy, t_values, n, threshold):
    """The policy's decisions for pairs of one length n."""
    t = np.array(t_values, dtype=np.float64)
    return policy.passes(t, np.full(len(t), n), threshold).tolist()


def oracle_segment(values, threshold=0.99, policy=None):
    """The one-series recursion that segment_many runs in lockstep, kept as its oracle.

    Each cut's tests run in sequence, left neighbour before right, and stop
    at the first that fails.
    """
    policy = policy or SignificancePolicy()
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 4:
        return (0, n)
    peak = float(np.abs(x).max())
    if peak > 0.0:
        x = np.ldexp(x, -np.frexp(peak)[1])
    prefix = Prefix(x - x.mean())
    boundaries = [0, n]
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 4:
            continue
        position, t_value = prefix.scan(lo, hi)
        if score(policy, t_value, hi - lo) < threshold:
            continue
        left_at = bisect_right(boundaries, lo) - 1
        if left_at > 0:
            prev = boundaries[left_at - 1]
            if lo - prev >= 2 and position - lo >= 2:
                t_neighbor = prefix.range_t(prev, lo, position)
                if score(policy, t_neighbor, position - prev) < threshold:
                    continue
        right_at = bisect_right(boundaries, hi) - 1
        if right_at < len(boundaries) - 1:
            nxt = boundaries[right_at + 1]
            if nxt - hi >= 2 and hi - position >= 2:
                t_neighbor = prefix.range_t(position, hi, nxt)
                if score(policy, t_neighbor, nxt - position) < threshold:
                    continue
        insort(boundaries, position)
        stack.append((position, hi))
        stack.append((lo, position))
    return tuple(boundaries)


def batched_scan(values, windows):
    """_scan over the given (lo, hi) windows of one sequence's unscaled prefix sums."""
    prefix = Prefix(values)
    lo, hi = (np.array(column, dtype=np.int64) for column in zip(*windows))
    cuts, t = _scan(prefix.sums, prefix.sq_sums, lo, hi)
    return list(zip(cuts.tolist(), t.tolist()))


def max_t(values):
    """(position, t) of the best split of the whole sequence."""
    return batched_scan(values, [(0, len(values))])[0]


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


def test_neighbour_t_matches_t_statistic_oracle():
    # One triple at a time or all at once, the kernel gives the same t,
    # degenerate cases included.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0.0, 1.0, 30), [2.0] * 6, [7.0] * 6])
    prefix = Prefix(x)
    triples = ((0, 12, 30), (5, 7, 36), (30, 33, 36), (30, 36, 42), (25, 30, 42))
    lo, mid, hi = (np.array(column) for column in zip(*triples))
    sums, sq_sums = prefix.sums, prefix.sq_sums
    many = _pooled_t(
        sums[mid] - sums[lo], sq_sums[mid] - sq_sums[lo],
        sums[hi] - sums[mid], sq_sums[hi] - sq_sums[mid],
        mid - lo, hi - mid, hi - lo,
    )
    for (lo, mid, hi), t_many in zip(triples, many):
        expected = t_statistic(x[lo:hi], mid - lo)
        assert prefix.range_t(lo, mid, hi) == pytest.approx(expected, rel=1e-9)
        assert t_many == prefix.range_t(lo, mid, hi)


def test_significance_bounds_and_monotonicity():
    n = 200
    values = [closed_form_oracle(t, n) for t in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)]
    assert values[0] == 0.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    assert closed_form_oracle(np.inf, n) == 1.0


def test_significance_saturates_below_eta_crossover():
    # For very short windows the closed form degenerates to certainty.
    assert closed_form_oracle(3.0, 15) == 1.0


# Closed-form values pinned from when segmentation computed them with
# scipy.special.betainc; the oracle the decisions are checked against keeps
# every digit.  The tests above pin the infinite-t and t = 0 branches.
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
    assert closed_form_oracle(t_max, n) == expected


def test_significance_validation():
    with pytest.raises(ValueError, match="n must be"):
        significance_mc(1.0, 3)
    with pytest.raises(ValueError, match="trials must be"):
        significance_mc(1.0, 10, 0)


def test_significance_rejects_nan():
    # NaN sorts after every table entry and would read as certain significance, 1.0.
    with pytest.raises(ValueError, match="t_max"):
        significance_mc(np.nan, 10, 200, 1)


def test_significance_mc_deterministic_and_bounded():
    a = significance_mc(2.5, 30, 2000, DEFAULT_MC_SEED)
    b = significance_mc(2.5, 30, 2000, DEFAULT_MC_SEED)
    assert a == b
    assert 0.0 <= a <= 1.0
    low = significance_mc(1.0, 30, 2000, DEFAULT_MC_SEED)
    high = significance_mc(5.0, 30, 2000, DEFAULT_MC_SEED)
    assert low <= a <= high


def test_policy_routes_short_windows_to_monte_carlo():
    policy = SignificancePolicy(mc_trials=2000)
    n_short = SMALL_N_MC - 1
    # Around the short window's null quantile, the null decides; the closed
    # form would pass every t there (eta < 1 keeps its significance high).
    critical = segmentation._null_table(n_short, 2000, DEFAULT_MC_SEED)[_null_rank(0.99, 2000) - 1]
    below = np.nextafter(critical, 0.0)
    assert passes(policy, [critical, below], n_short, 0.99) == [True, False]
    assert closed_form_oracle(below, n_short) >= 0.99
    # A long window is decided by the closed form in one mode, by the null in the other.
    t_values = np.linspace(2.0, 5.0, 61)
    closed = [closed_form_oracle(t, 100) >= 0.99 for t in t_values]
    null = [null_oracle(t, 100, 2000) >= 0.99 for t in t_values]
    assert closed != null
    assert passes(policy, t_values, 100, 0.99) == closed
    assert passes(SignificancePolicy(mode="monte-carlo", mc_trials=2000), t_values, 100, 0.99) == null


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


def _mixed_batch(rng, size, longest=3000):
    """Series of lengths 0-3, 4-19 and 20-longest: noise, level shifts, ties,
    flat runs, a clean step, and values scaled by 2**-900 or 2**900."""
    batch = []
    for i in range(size):
        kind = i % 6
        n = int([rng.integers(0, 4), rng.integers(4, 20), rng.integers(20, longest + 1)][rng.integers(3)])
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 1:
            x = np.repeat(rng.normal(0.0, 3.0, n // 40 + 1), 40)[:n] + rng.normal(size=n)
        elif kind == 2:
            # Few distinct values, so many tied sums.
            x = rng.integers(-2, 3, size=n) + np.repeat(rng.integers(-3, 4, n // 30 + 1), 30)[:n]
            x = x.astype(np.float64)
        elif kind == 3:
            x = np.where(np.arange(n) < n // 2, 0.0, 10.0)  # flat runs, one clean step
        elif kind == 4:
            x = np.repeat(rng.choice([-1.0, 1.0], n // 25 + 1), 25)[:n] * 5.0 + rng.normal(size=n)
            x = np.ldexp(x, int(rng.choice([-900, 900])))
        else:
            x = np.round(rng.lognormal(size=n), 1) * rng.choice([-1.0, 1.0], size=n)
        batch.append(x)
    return batch


@pytest.mark.parametrize("threshold", [0.95, 0.99])
def test_segment_many_matches_oracle_closed_form(threshold):
    rng = np.random.default_rng(20)
    policy = SignificancePolicy(mc_trials=500)
    for _ in range(4):
        batch = _mixed_batch(rng, 30)
        got = [seg.boundaries for seg in segment_many(batch, threshold, policy=policy)]
        assert got == [oracle_segment(x, threshold, policy) for x in batch]


@pytest.mark.parametrize("threshold", [0.95, 0.99])
def test_segment_many_matches_oracle_monte_carlo(threshold):
    # Every distinct window length builds a null table, so these series are shorter.
    rng = np.random.default_rng(21)
    policy = SignificancePolicy(mode="monte-carlo", mc_trials=200)
    batch = _mixed_batch(rng, 24, longest=300)
    got = [seg.boundaries for seg in segment_many(batch, threshold, policy=policy)]
    assert got == [oracle_segment(x, threshold, policy) for x in batch]


def test_segment_many_is_independent_of_its_group(monkeypatch):
    # A series' boundaries do not depend on which series share its group,
    # on their order, or on the group bound.
    rng = np.random.default_rng(22)
    batch = _mixed_batch(rng, 18, longest=600)
    alone = [segment(x).boundaries for x in batch]
    for bound in (300, 1000, 1 << 18):
        monkeypatch.setattr(segmentation, "_GROUP_ROWS", bound)
        for _ in range(3):
            order = rng.permutation(len(batch))
            got = [seg.boundaries for seg in segment_many([batch[i] for i in order])]
            assert got == [alone[i] for i in order]


def test_batched_scan_equals_oracle_scan(monkeypatch):
    # Small chunk bounds exercise long windows scanned in several chunks and
    # short windows split into several runs.
    monkeypatch.setattr(segmentation, "_SCAN_CHUNK", 64)
    monkeypatch.setattr(segmentation, "_LONG_SPLITS", 40)
    rng = np.random.default_rng(23)
    x = np.round(rng.normal(size=3000), 1)
    # Planted ties: a symmetric stretch gives equal t at mirrored splits, and
    # a long flat stretch gives t = 0 at every split inside it.
    x[100:106] = [0.0, 0.0, 10.0, 10.0, 0.0, 0.0]
    x[200:400] = 1.0
    oracle = Prefix(x)
    windows = [(100, 106), (200, 400), (0, 3000), (150, 154), (0, 130)]
    for _ in range(200):
        lo = int(rng.integers(0, 2996))
        windows.append((lo, int(rng.integers(lo + 4, min(3000, lo + 300) + 1))))
    assert batched_scan(x, windows) == [oracle.scan(lo, hi) for lo, hi in windows]
    assert batched_scan(x, [(100, 106)]) == [(102, oracle.scan(100, 106)[1])]


def test_passes_equals_oracle_decisions():
    t_values = [0.0, 1e-3, 0.7, 2.0, 3.3, 4.5, 8.0, 40.0, np.inf]
    n_values = [4, 5, 7, 11, 15, 16, 19, 20, 21, 33, 64, 100, 257, 999, 1000, 2500, 4999, 5000]
    pairs = [(a, b) for a in t_values for b in n_values]
    t, n = (np.array(column) for column in zip(*pairs))
    short = n < 200  # keeps the Monte Carlo tables small
    null = [null_oracle(a, b, 300) for a, b in zip(t[short], n[short])]
    assert [significance_mc(a, b, 300, DEFAULT_MC_SEED) for a, b in zip(t[short], n[short])] == null
    closed_policy, null_policy = SignificancePolicy(mc_trials=300), SignificancePolicy("monte-carlo", 300)
    for threshold in (0.05, 0.5, 0.95, 0.99):
        expected = [score(closed_policy, a, b) >= threshold for a, b in pairs]
        assert closed_policy.passes(t, n, threshold).tolist() == expected
        expected = [p >= threshold for p in null]
        assert null_policy.passes(t[short], n[short], threshold).tolist() == expected


def test_null_decisions_at_tied_table_entries():
    # t equal to an entry of the null table: a tie counts as covered.
    table = segmentation._null_table(11, 300, DEFAULT_MC_SEED)
    t_tied = table[[0, 1, 150, 284, 285, 299, 42]]
    t_values = np.concatenate([t_tied, np.nextafter(t_tied, 0.0), [0.0, np.inf]])
    for threshold in (0.05, 0.5, 0.95, 0.99, 0.999):
        expected = [null_oracle(a, 11, 300) >= threshold for a in t_values]
        assert passes(SignificancePolicy(mc_trials=300), t_values, 11, threshold) == expected
    # The critical entry itself passes; the value just below it does not.
    critical = table[_null_rank(0.95, 300) - 1]
    below = np.nextafter(critical, 0.0)
    assert passes(SignificancePolicy(mc_trials=300), [critical, below], 11, 0.95) == [True, False]


def test_null_rank_when_theta_times_trials_rounds_across_an_integer():
    # 0.07 * 100 is 7.000000000000001, yet 7 / 100 >= 0.07: the ceiling, 8, is one too many.
    assert 0.07 * 100 > 7 and 7 / 100 >= 0.07
    assert _null_rank(0.07, 100) == 7
    table = segmentation._null_table(12, 100, DEFAULT_MC_SEED)
    t_values = [table[5], np.nextafter(table[6], 0.0), table[6], table[7]]
    assert passes(SignificancePolicy(mc_trials=100), t_values, 12, 0.07) == [False, False, True, True]
    assert [null_oracle(a, 12, 100) >= 0.07 for a in t_values] == [False, False, True, True]
    for trials in (7, 100, 300, 10_000):
        for theta in [0.07, 0.14, 0.29, 0.56, 0.57, *np.linspace(0.01, 0.999, 97).tolist()]:
            assert _null_rank(theta, trials) == next(c for c in range(1, trials + 1) if c / trials >= theta)


SWEEP_THETAS = [0.05, 0.5, 0.9, 0.95, 0.99, 0.997, 0.999, 0.9999, 1 - 1e-7]


def critical_t_oracle(n, theta):
    """t_crit(n, theta) from scipy's betaincinv: x* solves I_x*(0.4 nu, 0.4) = 1 - theta^(1/eta)."""
    nu = n - 2.0
    eta = 4.19 * np.log(n) - 11.54
    x = betaincinv(0.4 * nu, 0.4, -np.expm1(np.log(theta) / eta))
    return np.sqrt(nu * (1.0 / x - 1.0))


@pytest.mark.parametrize("theta", SWEEP_THETAS)
def test_passes_matches_scipy_at_critical_values(theta):
    # n over [20, 2^18]: every n below 64, every grid octave's ends, random n
    # in between, and every n in [20, 2000] at 0.999, whose t_crit falls from
    # n = 27 and rises again later.  Pairs sit 1e-9, 1e-5 and 1e-2 (relative)
    # on either side of scipy's t_crit, so both the bracket and the per-n solve decide some.
    rng = np.random.default_rng(24)
    octave_ends = SMALL_N_MC * 2 ** np.arange(14)
    n = np.concatenate([
        np.arange(SMALL_N_MC, 64), octave_ends, octave_ends - 1, octave_ends + 1, [1 << 18],
        np.round(2.0 ** rng.uniform(np.log2(SMALL_N_MC), 18, 400)),
    ])
    if theta == 0.999:
        n = np.concatenate([n, np.arange(SMALL_N_MC, 2001)])
    n = np.unique(n[n >= SMALL_N_MC]).astype(np.int64)
    t_ref = critical_t_oracle(n, theta)
    # The solver is good to far better than the 1e-9 the pairs below resolve.
    assert np.abs(segmentation._solve_t_crit(n, theta) / t_ref - 1.0).max() < 1e-11
    factors = [1 - 1e-2, 1 - 1e-5, 1 - 1e-9, 1 + 1e-9, 1 + 1e-5, 1 + 1e-2]
    t = np.concatenate([t_ref * f for f in factors])
    n = np.tile(n, len(factors))
    nu = n - 2.0
    expected = (1.0 - betainc(0.4 * nu, 0.4, nu / (nu + t * t))) ** (4.19 * np.log(n) - 11.54) >= theta
    # The oracle itself puts every pair on the side of t_crit it was placed on.
    assert expected.tolist() == [f > 1 for f in factors for _ in range(len(t) // len(factors))]
    policy = SignificancePolicy()
    assert policy.passes(t, n, theta).tolist() == expected.tolist()
    # Below SMALL_N_MC the null decides: its critical entry passes, the value below it fails.
    rank = _null_rank(theta, policy.mc_trials) - 1
    for short in range(4, SMALL_N_MC):
        critical = segmentation._null_table(short, policy.mc_trials, policy.seed)[rank]
        assert passes(policy, [critical, np.nextafter(critical, 0.0), 0.0, np.inf], short, theta) == [
            True, False, False, True,
        ]


def test_critical_t_grid_grows_for_a_long_series(monkeypatch):
    # A fresh table per threshold, so this series is the first to need more octaves.
    monkeypatch.setattr(segmentation, "_critical_t", functools.cache(segmentation._CriticalT))
    top = SMALL_N_MC << segmentation._FIRST_OCTAVES
    rng = np.random.default_rng(25)
    x = np.repeat(rng.normal(0.0, 0.5, 8), 1000) + rng.normal(size=8000)
    assert len(x) > top
    boundaries = segment(x).boundaries
    table = segmentation._critical_t(0.99)
    assert table.grid[-2] >= len(x) > top
    assert len(boundaries) > 2
    assert boundaries == oracle_segment(x)
    # Grown an octave at a time or solved at once, each grid value is the same.
    assert segmentation._solve_t_crit(table.grid, 0.99).tolist() == table.values.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_segment_rejects_non_finite_values(bad):
    x = np.repeat([0.0, 5.0], 20)
    x[17] = bad
    with pytest.raises(ValueError, match=r"series 0: value at index 17 is not finite"):
        segment(x)
    with pytest.raises(ValueError, match=r"series 1: value at index 17 is not finite"):
        list(segment_many([np.ones(10), x]))
    with pytest.raises(ValueError, match=r"firm 'F9', stock 'S3': value at index 2 is not finite"):
        segment(make_series([1.0, 2.0, bad], firm_id="F9", stock_id="S3"))
