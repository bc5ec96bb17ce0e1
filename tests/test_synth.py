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


def test_generate_is_deterministic():
    table_a, truth_a = generate(SMALL)
    table_b, truth_b = generate(SMALL)
    assert _same_tape(table_a, table_b)
    assert truth_a.to_json_dict() == truth_b.to_json_dict()
    table_c, _ = generate(replace(SMALL, seed=10))
    assert not _same_tape(table_c, table_a)


def test_tape_is_time_sorted_with_positive_values():
    table, _ = generate(SMALL)
    timestamps = table.timestamps
    assert (np.diff(timestamps) >= 0).all()
    assert (table.values > 0).all()


def _series_by_firm(table):
    return {series.firm_id: series for series in table.iter_series()}


def test_planted_indices_align_with_series():
    table, truth = generate(SMALL)
    for pkg in truth.packages:
        assert pkg.V_m > 0
        assert pkg.N_m >= 2
        assert pkg.T >= 1
        assert pkg.direction in ("buy", "sell")
    series_map = _series_by_firm(table)
    for firm_id, packages in truth.by_firm().items():
        series = series_map[firm_id]
        previous_end = 0
        for pkg in sorted(packages, key=lambda p: p.start):
            assert 0 <= pkg.start < pkg.end <= len(series)
            assert pkg.start >= previous_end
            previous_end = pkg.end


def test_planted_packages_conserve_values():
    table, truth = generate(SMALL)
    series_map = _series_by_firm(table)
    for firm_id, packages in truth.by_firm().items():
        values = series_map[firm_id].signed_values
        timestamps = series_map[firm_id].timestamps
        for pkg in packages:
            rows = values[pkg.start : pkg.end]
            sign = 1.0 if pkg.direction == "buy" else -1.0
            dominant = rows[np.sign(rows) == sign]
            opposite = rows[np.sign(rows) == -sign]
            assert len(dominant) == pkg.N_m
            assert abs(dominant).sum() == pytest.approx(pkg.V_m, rel=1e-9)
            assert abs(opposite).sum() == pytest.approx(
                SMALL.noise_fraction * pkg.V_m, rel=1e-9
            )
            span = timestamps[pkg.start : pkg.end]
            assert int(span.max() - span.min()) == pkg.T


def test_planted_packages_classify_directional_under_noise():
    config = replace(SMALL, noise_fraction=0.2)
    table, truth = generate(config)
    series_map = _series_by_firm(table)
    for firm_id, packages in truth.by_firm().items():
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
    for firm_id, packages in truth.by_firm().items():
        values = series_map[firm_id].signed_values
        for pkg in packages:
            rows = values[pkg.start : pkg.end]
            signs = set(np.sign(rows).tolist())
            assert signs == {1.0 if pkg.direction == "buy" else -1.0}


def test_churn_fills_gaps_between_packages():
    config = replace(SMALL, churn_prob=1.0)
    table, truth = generate(config)
    gaps = 0
    for packages in truth.by_firm().values():
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
    for packages in truth.by_firm().values():
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
    by_firm = truth.by_firm()
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
