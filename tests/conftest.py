"""Shared builders for trade tables, series, and patches used across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from patchscale.patches import Patch, PatchRecord
from patchscale.pipeline import RunConfig, run_pipeline
from patchscale.synth import small_preset
from patchscale.trades import SignedSeries, TradeTable


def make_table(rows) -> TradeTable:
    """Table from (timestamp, firm_id, stock_id, side, value) tuples, side B or S."""
    columns = list(zip(*rows)) or [[]] * 5
    timestamps, firm_ids, stock_ids, sides, values = (list(c) for c in columns)
    signs = [1 if side == "B" else -1 for side in sides]
    return TradeTable.from_rows(timestamps, firm_ids, stock_ids, signs, values)


def write_tape(rows, path) -> None:
    """Trade CSV at path from (timestamp, firm_id, stock_id, side, value) tuples."""
    make_table(rows).to_csv(path)


def make_series(values, timestamps=None, firm_id="F0", stock_id="S0") -> SignedSeries:
    signed = np.asarray(values, dtype=np.float64)
    if timestamps is None:
        timestamps = np.arange(len(signed), dtype=np.int64)
    else:
        timestamps = np.asarray(timestamps, dtype=np.int64)
    signed = signed.copy()
    timestamps = timestamps.copy()
    signed.setflags(write=False)
    timestamps.setflags(write=False)
    return SignedSeries(
        firm_id=firm_id, stock_id=stock_id, timestamps=timestamps, signed_values=signed
    )


def make_patch(
    firm_id="F0",
    stock_id="S0",
    start=0,
    end=10,
    V_b=90.0,
    V_s=10.0,
    n_buy=9,
    n_sell=1,
    t_first=0,
    t_last=900,
) -> Patch:
    return Patch(
        firm_id=firm_id,
        stock_id=stock_id,
        start=start,
        end=end,
        V_b=V_b,
        V_s=V_s,
        V=V_b + V_s,
        n_buy=n_buy,
        n_sell=n_sell,
        t_first=t_first,
        t_last=t_last,
    )


def make_directional(firm_id="F0", T=900, N_m=9, V_m=90.0, direction="buy") -> PatchRecord:
    V_b, V_s = (V_m, V_m / 9.0) if direction == "buy" else (V_m / 9.0, V_m)
    return PatchRecord(firm_id, "S0", 0, N_m + 1, direction, T, N_m, V_m, V_b, V_s)


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """One full pipeline run on the small synthetic preset, shared read-only."""
    out = tmp_path_factory.mktemp("small_run") / "out"
    config = RunConfig(
        output_dir=str(out),
        synth=small_preset(),
        seed=2001,
        bootstrap_samples=400,
        min_trades_per_year=0,
        min_active_days=0,
    )
    report = run_pipeline(config)
    return config, report
