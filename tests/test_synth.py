"""Synthetic market generator: determinism, ground truth, and planted structure."""

from dataclasses import replace

import numpy as np
import pytest

from patchscale.lognormal import jarque_bera
from patchscale.patches import Patch, classify
from patchscale.segmentation import segment
from patchscale.synth import (
    SynthConfig,
    gen_firm_sizes,
    generate,
    paper_like,
    small_preset,
)
from patchscale.tails import hill
from patchscale.trades import TradeTable

SMALL = SynthConfig(n_firms=25, packages_per_firm_mean=8.0, seed=9)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_firms": 0},
        {"zipf_exponent": 0.0},
        {"packages_per_firm_mean": -1.0},
        {"value_sigma": -0.1},
        {"value_tail_exponent": 0.0},
        {"theta_target": 0.5},
        {"noise_fraction": -0.05},
        {"noise_fraction": 0.25},  # >= 1 - theta_target: planted dominance breaks
        {"direction_flip_prob": 1.5},
        {"churn_prob": -0.2},
        {"gap_mean": 0.0},
        {"start_time": -1},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        replace(SMALL, **overrides)


def _same_tape(a, b):
    columns = ("timestamps", "firm_codes", "stock_codes", "signs", "values")
    return (a.firms, a.stocks) == (b.firms, b.stocks) and all(
        np.array_equal(getattr(a, c), getattr(b, c)) for c in columns
    )


def _round_trips(table, path):
    """The tape reads back from its CSV with the same rows, bit for bit."""
    table.to_csv(path)
    back = TradeTable.from_csv(path)
    columns = ("timestamps", "signs", "values")
    return (
        all(np.array_equal(getattr(back, c), getattr(table, c)) for c in columns)
        and np.array_equal(np.array(back.firms)[back.firm_codes], np.array(table.firms)[table.firm_codes])
        and np.array_equal(np.array(back.stocks)[back.stock_codes], np.array(table.stocks)[table.stock_codes])
    )


def test_generate_is_deterministic():
    table_a, truth_a = generate(SMALL)
    table_b, truth_b = generate(SMALL)
    assert _same_tape(table_a, table_b)
    assert truth_a.to_json_dict() == truth_b.to_json_dict()
    table_c, _ = generate(replace(SMALL, seed=10))
    assert not _same_tape(table_c, table_a)


def test_tape_is_time_sorted_with_positive_values(tmp_path):
    table, _ = generate(SMALL)
    timestamps = table.timestamps
    assert (np.diff(timestamps) >= 0).all()
    # Every value is a whole number of cents, at least one.
    cents = np.round(table.values * 100)
    assert (cents >= 1).all()
    assert np.array_equal(cents / 100, table.values)
    assert _round_trips(table, tmp_path / "tape.csv")


def _series_by_firm(table):
    return {series.firm_id: series for series in table.iter_series()}


def _packages_by_firm(truth):
    grouped = {}
    for package in truth.packages:
        grouped.setdefault(package.firm_id, []).append(package)
    return grouped


# Configs that stress the vector draws: no noise trades at all, firms of one
# package (no gaps, so no churn), and children worth far below half a cent.
EDGE_CONFIGS = (
    {"noise_fraction": 0.0},
    {"packages_per_firm_mean": 0.01},
    {"value_mu0": -12.0},
)


def test_planted_indices_align_with_series():
    for overrides in ({}, *EDGE_CONFIGS):
        table, truth = generate(replace(SMALL, **overrides))
        for pkg in truth.packages:
            assert pkg.V_m > 0
            assert pkg.N_m >= 2
            assert pkg.T >= 1
            assert pkg.direction in ("buy", "sell")
        series_map = _series_by_firm(table)
        for firm_id, packages in _packages_by_firm(truth).items():
            series = series_map[firm_id]
            previous_end = 0
            for pkg in sorted(packages, key=lambda p: p.start):
                assert 0 <= pkg.start < pkg.end <= len(series)
                assert pkg.start >= previous_end
                previous_end = pkg.end


def test_one_package_firms_span_their_series():
    table, truth = generate(replace(SMALL, packages_per_firm_mean=0.01))
    series_map = _series_by_firm(table)
    for firm_id, packages in _packages_by_firm(truth).items():
        (pkg,) = packages
        assert (pkg.start, pkg.end) == (0, len(series_map[firm_id]))


def _cents(values):
    return np.round(np.abs(values) * 100)


def test_planted_packages_conserve_values():
    # Package j's raw dominant shares sum to its drawn value V and its raw
    # noise shares to noise_fraction * V.  Each share is written rounded to
    # the nearest cent, off by at most half a cent while it is worth at least
    # half a cent.  V_m is the sum of the written dominant cents, so it is
    # within N_m / 2 cents of V, and the written noise lies within
    # n_noise / 2 cents of noise_fraction * V, hence within
    # (n_noise + noise_fraction * N_m) / 2 cents of noise_fraction * V_m.
    table, truth = generate(SMALL)
    # No written value of one cent: no share fell below half a cent.
    assert table.values.min() > 0.01
    series_map = _series_by_firm(table)
    for firm_id, packages in _packages_by_firm(truth).items():
        values = series_map[firm_id].signed_values
        timestamps = series_map[firm_id].timestamps
        for pkg in packages:
            rows = values[pkg.start : pkg.end]
            sign = 1.0 if pkg.direction == "buy" else -1.0
            dominant = rows[np.sign(rows) == sign]
            opposite = rows[np.sign(rows) == -sign]
            assert len(dominant) == pkg.N_m
            v_m_cents = round(pkg.V_m * 100)
            assert _cents(dominant).sum() == v_m_cents
            noise_error = abs(_cents(opposite).sum() - SMALL.noise_fraction * v_m_cents)
            assert noise_error <= (len(opposite) + SMALL.noise_fraction * pkg.N_m) / 2
            span = timestamps[pkg.start : pkg.end]
            assert int(span.max() - span.min()) == pkg.T


def test_children_below_half_a_cent_are_written_as_one_cent(tmp_path):
    # Packages worth a fraction of a cent in all: every dominant and noise
    # child rounds to 0, and the floor keeps it a one-cent trade with a side.
    table, truth = generate(replace(SMALL, value_mu0=-12.0))
    series_map = _series_by_firm(table)
    for firm_id, packages in _packages_by_firm(truth).items():
        values = series_map[firm_id].signed_values
        for pkg in packages:
            assert (np.abs(values[pkg.start : pkg.end]) == 0.01).all()
            assert round(pkg.V_m * 100) == pkg.N_m
    assert _round_trips(table, tmp_path / "tape.csv")


def test_planted_packages_classify_directional_under_noise():
    config = replace(SMALL, noise_fraction=0.2)
    table, truth = generate(config)
    series_map = _series_by_firm(table)
    for firm_id, packages in _packages_by_firm(truth).items():
        values = series_map[firm_id].signed_values
        for pkg in packages:
            rows = values[pkg.start : pkg.end]
            buys = rows[rows > 0]
            sells = rows[rows < 0]
            patch = Patch(
                firm_id=firm_id,
                stock_id=pkg.stock_id,
                start=pkg.start,
                end=pkg.end,
                V_b=float(buys.sum()),
                V_s=float(-sells.sum()),
                V=float(abs(rows).sum()),
                n_buy=len(buys),
                n_sell=len(sells),
                t_first=0,
                t_last=pkg.T,
            )
            assert classify(patch, 0.75) == pkg.direction


def test_zero_noise_packages_are_single_signed():
    config = replace(SMALL, noise_fraction=0.0)
    table, truth = generate(config)
    series_map = _series_by_firm(table)
    for firm_id, packages in _packages_by_firm(truth).items():
        values = series_map[firm_id].signed_values
        for pkg in packages:
            rows = values[pkg.start : pkg.end]
            signs = set(np.sign(rows).tolist())
            assert signs == {1.0 if pkg.direction == "buy" else -1.0}


def test_churn_fills_gaps_between_packages():
    config = replace(SMALL, churn_prob=1.0)
    table, truth = generate(config)
    gaps = 0
    for packages in _packages_by_firm(truth).values():
        ordered = sorted(packages, key=lambda p: p.start)
        for prev, nxt in zip(ordered, ordered[1:]):
            gaps += nxt.start > prev.end
    assert gaps > 0


def test_firm_sizes_follow_zipf_tail():
    sizes = gen_firm_sizes(10_000, 1.0, 53)
    assert sizes.min() >= 1.0
    assert np.array_equal(sizes, gen_firm_sizes(10_000, 1.0, 53))
    fit = hill(sizes, 1000)
    assert 0.9 <= fit.zeta <= 1.1


def test_planted_values_are_lognormal_per_firm():
    config = SynthConfig(n_firms=50, packages_per_firm_mean=25.0, seed=8)
    _, truth = generate(config)
    passed = tested = 0
    for packages in _packages_by_firm(truth).values():
        values = np.log([pkg.V_m for pkg in packages])
        if len(values) < 10:
            continue
        tested += 1
        passed += not jarque_bera(values)[1]
    assert tested >= 40
    assert passed / tested >= 0.90


def test_segmentation_recovers_planted_boundaries():
    # Alternating directions with mild value noise keep block means far
    # apart, the regime where recursive splitting should find nearly
    # every planted edge within a tenth of the package's trade count.
    config = SynthConfig(
        n_firms=40,
        packages_per_firm_mean=12.0,
        seed=7,
        value_sigma=0.15,
        trades_sigma=0.1,
        noise_fraction=0.05,
        direction_flip_prob=1.0,
    )
    table, truth = generate(config)
    by_firm = _packages_by_firm(truth)
    total = hit = 0
    for series in table.iter_series():
        packages = by_firm.get(series.firm_id)
        if not packages:
            continue
        boundaries = np.asarray(segment(series.signed_values, 0.99).boundaries)
        for pkg in packages:
            tolerance = 0.1 * (pkg.end - pkg.start)
            for target in (pkg.start, pkg.end):
                total += 1
                hit += bool(np.min(np.abs(boundaries - target)) <= tolerance)
    assert total > 500
    assert hit / total >= 0.90


def test_presets():
    paper = paper_like()
    assert paper.n_firms >= 50
    assert paper.seed == 2001
    assert paper_like(seed=7).seed == 7
    small = small_preset()
    assert 0 < small.n_firms < paper.n_firms
