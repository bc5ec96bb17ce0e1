"""Hill tail-exponent estimation, cutoff selection, and empirical CCDFs."""

import numpy as np
import pytest

from patchscale.errors import NumericalError
from patchscale.tails import ccdf, choose_k, hill


def _pareto(rng, n, zeta=2.0, x_min=1.0):
    return x_min * (1.0 - rng.random(n)) ** (-1.0 / zeta)


def test_hill_hand_oracle():
    fit = hill([8.0, 4.0, 2.0, 1.0], 3, variable="V_m")
    expected = 3.0 / (6.0 * np.log(2.0))
    assert fit.zeta == pytest.approx(expected, abs=1e-12)
    half = 1.96 / np.sqrt(3.0)
    assert fit.ci95[0] == pytest.approx(expected * (1.0 - half), abs=1e-12)
    assert fit.ci95[1] == pytest.approx(expected * (1.0 + half), abs=1e-12)
    assert (fit.k, fit.x_k, fit.n, fit.variable) == (3, 1.0, 4, "V_m")


def test_hill_scale_invariance():
    rng = np.random.default_rng(60)
    xs = _pareto(rng, 5000)
    base = hill(xs, 500)
    scaled = hill(xs * 1000.0, 500)
    assert scaled.zeta == pytest.approx(base.zeta, abs=1e-12)
    assert scaled.x_k == pytest.approx(base.x_k * 1000.0, rel=1e-12)


def test_hill_order_independence():
    rng = np.random.default_rng(61)
    xs = _pareto(rng, 2000)
    shuffled = xs.copy()
    rng.shuffle(shuffled)
    assert hill(shuffled, 200).zeta == hill(xs, 200).zeta


def test_hill_recovers_pareto_exponent():
    rng = np.random.default_rng(62)
    fit = hill(_pareto(rng, 100_000), 1000)
    assert abs(fit.zeta - 2.0) <= 0.25


def test_hill_validation():
    with pytest.raises(NumericalError):
        hill([], 1)
    with pytest.raises(NumericalError):
        hill([1.0, -2.0, 3.0], 1)
    with pytest.raises(NumericalError):
        hill([1.0, 2.0, 3.0], 3)
    with pytest.raises(NumericalError):
        hill([[1.0, 2.0]], 1)
    with pytest.raises(NumericalError, match="degenerate"):
        hill([2.0, 2.0, 2.0, 2.0], 2)


def test_choose_k_fraction_strategy():
    xs = np.linspace(1.0, 2.0, 100)
    assert choose_k(xs, strategy="fraction", fraction=0.1) == 10
    assert choose_k(xs, strategy="fraction", fraction=0.333) == 33
    with pytest.raises(NumericalError):
        choose_k(xs[:5], strategy="fraction", fraction=0.1)
    with pytest.raises(ValueError):
        choose_k(xs, strategy="median")


def test_choose_k_needs_enough_points():
    with pytest.raises(NumericalError, match="n >= 50"):
        choose_k(np.linspace(1.0, 2.0, 49))


def test_choose_k_pure_pareto_takes_most_of_sample():
    # With no body, the best power-law fit extends deep into the sample.
    rng = np.random.default_rng(50)
    xs = _pareto(rng, 10_000)
    k = choose_k(xs)
    assert 10 <= k <= len(xs) // 2
    assert k >= len(xs) // 4


def test_choose_k_finds_splice_point():
    # Lognormal body below the 90% quantile, Pareto tail above it: the
    # selected cutoff should land within a decade of the splice.
    rng = np.random.default_rng(51)
    n = 20_000
    body = np.exp(rng.normal(0.0, 0.5, n))
    x_q = float(np.quantile(body, 0.9))
    tail = _pareto(rng, int(n * 0.1), zeta=2.0, x_min=x_q)
    xs = np.concatenate([body[body <= x_q], tail])
    k = choose_k(xs)
    x_k1 = np.sort(xs)[::-1][k]
    assert 0.1 <= x_k1 / x_q <= 10.0


def test_choose_k_scan_stays_in_contracted_range():
    rng = np.random.default_rng(64)
    xs = np.exp(rng.normal(0.0, 1.0, 6000))
    k = choose_k(xs)
    assert 10 <= k <= 3000


def test_exponent_propagation_through_power_law():
    # If N = V^1.1 and V has tail exponent 2, N has tail exponent 2/1.1.
    rng = np.random.default_rng(52)
    V = _pareto(rng, 50_000)
    fit = hill(V ** 1.1, 2000)
    target = 2.0 / 1.1
    assert fit.ci95[0] <= target <= fit.ci95[1]


def test_ccdf_hand_oracle():
    assert ccdf([1.0, 2.0, 2.0, 4.0]) == [(1.0, 1.0), (2.0, 0.75), (4.0, 0.25)]


def test_ccdf_starts_at_one_and_decreases():
    rng = np.random.default_rng(65)
    pairs = ccdf(rng.exponential(1.0, 500))
    ps = [p for _, p in pairs]
    assert ps[0] == 1.0
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert pairs == sorted(pairs)


def test_ccdf_empty_error():
    with pytest.raises(NumericalError):
        ccdf([])
