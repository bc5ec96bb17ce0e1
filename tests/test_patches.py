"""Patch extraction from segment boundaries and directional classification."""

import numpy as np
import pytest

from conftest import make_patch, make_series
from patchscale.errors import DataError
from patchscale.patches import (
    PatchRecord,
    as_directional,
    classify,
    cut_patches,
    record,
    select_directional,
    variables,
)
from patchscale.segmentation import Segmentation


def _series_with_mixed_signs():
    values = [10.0, -2.0, 8.0, 12.0, -30.0, -5.0]
    timestamps = [100, 160, 220, 400, 500, 520]
    return make_series(values, timestamps)


def test_cut_patches_tiles_series_with_aggregates():
    series = _series_with_mixed_signs()
    seg = Segmentation(boundaries=(0, 4, 6))
    first, second = cut_patches(series, seg)

    assert (first.start, first.end) == (0, 4)
    assert first.V_b == pytest.approx(30.0)
    assert first.V_s == pytest.approx(2.0)
    assert first.V == pytest.approx(first.V_b + first.V_s)
    assert (first.n_buy, first.n_sell) == (3, 1)
    assert (first.t_first, first.t_last) == (100, 400)

    assert (second.start, second.end) == (4, 6)
    assert second.V_s == pytest.approx(35.0)
    assert (second.n_buy, second.n_sell) == (0, 2)
    assert (second.t_first, second.t_last) == (500, 520)


def test_cut_patches_all_buy_patch_has_positive_zero_sell_volume():
    series = make_series([10.0, 2.0, -3.0], [100, 160, 220])
    first, second = cut_patches(series, Segmentation(boundaries=(0, 2, 3)))
    assert str(first.V_s) == "0.0"
    assert str(second.V_b) == "0.0"
    assert second.V_s == 3.0


@pytest.mark.filterwarnings("error")
def test_cut_patches_rejects_overflowing_aggregates():
    series = make_series([1e308, 1e308, -1e308, -1e308], firm_id="F7", stock_id="SAN")
    with pytest.raises(DataError, match=r"firm 'F7', stock 'SAN': patch \[0, 4\)"):
        cut_patches(series, Segmentation(boundaries=(0, 4)))
    with pytest.raises(DataError, match=r"patch \[0, 2\) traded value overflows: V_b=inf"):
        cut_patches(series, Segmentation(boundaries=(0, 2, 4)))


def test_cut_patches_rejects_bad_boundaries():
    series = _series_with_mixed_signs()
    for bad in ((1, 6), (0, 4), (0, 4, 4, 6), (0, 5, 3, 6)):
        with pytest.raises(ValueError):
            cut_patches(series, Segmentation(boundaries=bad))


def test_classify_directions():
    buy = make_patch(V_b=90.0, V_s=10.0)
    sell = make_patch(V_b=10.0, V_s=90.0)
    mixed = make_patch(V_b=60.0, V_s=40.0)
    assert classify(buy, 0.75) == "buy"
    assert classify(sell, 0.75) == "sell"
    assert classify(mixed, 0.75) == "none"


def test_classify_boundary_is_strict():
    # V_b is exactly theta * V: the dominance inequality must be strict.
    patch = make_patch(V_b=3.0, V_s=1.0)
    assert classify(patch, 0.75) == "none"
    assert classify(patch, 0.7) == "buy"


def test_classify_theta_validation():
    patch = make_patch()
    with pytest.raises(ValueError):
        classify(patch, 0.5)
    with pytest.raises(ValueError):
        classify(patch, 1.2)


def test_as_directional_maps_dominant_side():
    buy = as_directional(make_patch(V_b=90.0, V_s=10.0, n_buy=9, n_sell=1, t_first=50, t_last=950), "buy")
    assert (buy.T, buy.N_m, buy.V_m) == (900, 9, 90.0)
    sell = as_directional(make_patch(V_b=10.0, V_s=90.0, n_buy=1, n_sell=9, t_first=50, t_last=950), "sell")
    assert (sell.T, sell.N_m, sell.V_m) == (900, 9, 90.0)
    with pytest.raises(ValueError, match="buy or sell"):
        as_directional(make_patch(), "none")


def test_record_carries_patches_csv_columns():
    patch = make_patch(start=3, end=13, V_b=60.0, V_s=40.0, t_first=50, t_last=950)
    assert record(patch, "none") == PatchRecord("F0", "S0", 3, 13, "none", 900, None, None, 60.0, 40.0)
    assert record(patch, "buy") == PatchRecord("F0", "S0", 3, 13, "buy", 900, 9, 60.0, 60.0, 40.0)


def _directional(series, seg, theta, min_trades):
    records = [record(p, classify(p, theta)) for p in cut_patches(series, seg)]
    return select_directional(records, min_trades)


def test_directional_patches_filters_short_and_nondirectional():
    rng = np.random.default_rng(6)
    # Three blocks: long buy, long mixed, short buy (below the trade minimum).
    values = np.concatenate(
        [
            np.abs(rng.normal(10, 1, 20)),
            rng.choice([-10.0, 10.0], size=20),
            np.abs(rng.normal(10, 1, 5)),
        ]
    )
    series = make_series(values)
    seg = Segmentation(boundaries=(0, 20, 40, 45))
    out = _directional(series, seg, theta=0.75, min_trades=10)
    assert [(p.start, p.end, p.direction) for p in out] == [(0, 20, "buy")]


def test_directional_patches_theta_monotonicity():
    rng = np.random.default_rng(7)
    values = rng.normal(0.4, 1.0, 200)
    series = make_series(values)
    seg = Segmentation(boundaries=tuple(range(0, 201, 10)))
    sets = []
    for theta in (0.55, 0.65, 0.75, 0.85, 0.95):
        chosen = _directional(series, seg, theta=theta, min_trades=1)
        sets.append({(p.start, p.end) for p in chosen})
    for wider, narrower in zip(sets, sets[1:]):
        assert narrower <= wider


def test_variables_arrays_align():
    patches = [
        as_directional(make_patch(V_b=90.0, V_s=10.0, n_buy=9, t_last=900), "buy"),
        as_directional(make_patch(V_b=5.0, V_s=45.0, n_buy=1, n_sell=5, t_last=300), "sell"),
    ]
    out = variables(patches)
    assert out["T"].tolist() == [900, 300]
    assert out["N_m"].tolist() == [9, 5]
    assert out["V_m"].tolist() == [90.0, 45.0]
