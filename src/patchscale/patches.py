"""Patch construction from segmentation boundaries and directional classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .segmentation import Segmentation
from .trades import SignedSeries

DIRECTION_BUY = "buy"
DIRECTION_SELL = "sell"
NON_DIRECTIONAL = "none"

# The per-patch variables of the scaling analysis, in log-point column order.
VARIABLES = ("T", "N_m", "V_m")

DEFAULT_THETA = 0.75
DEFAULT_MIN_TRADES = 10
DEFAULT_MIN_FIRM_PATCHES = 10


@dataclass(frozen=True, slots=True)
class Patch:
    """One contiguous segment of a signed series with its trade aggregates.

    V is exactly V_b + V_s; the range is [start, end) over series indices.
    """

    firm_id: str
    stock_id: str
    start: int
    end: int
    V_b: float
    V_s: float
    V: float
    n_buy: int
    n_sell: int
    t_first: int
    t_last: int


@dataclass(frozen=True, slots=True)
class PatchRecord:
    """One patches.csv row: a classified patch and the variables the analysis reads.

    T is the time from the first to the last trade; N_m and V_m are the
    dominant side's trade count and value, and are None exactly when the
    direction is non-directional.  A record that cannot be meaningful (a
    non-finite or negative value, negative T, start >= end, or a V_m other
    than its own side's value) raises ValueError.
    """

    firm_id: str
    stock_id: str
    start: int
    end: int
    direction: str
    T: int
    N_m: int | None
    V_m: float | None
    V_b: float
    V_s: float

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_BUY, DIRECTION_SELL, NON_DIRECTIONAL):
            raise ValueError(f"direction must be buy, sell or none, got {self.direction!r}")
        directional = self.direction != NON_DIRECTIONAL
        if (self.N_m is not None, self.V_m is not None) != (directional, directional):
            raise ValueError(
                f"N_m and V_m must be given exactly for buy and sell rows, got a {self.direction!r} "
                f"row with N_m={self.N_m!r}, V_m={self.V_m!r}"
            )
        for name in ("V_b", "V_s", "V_m"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if self.start >= self.end:
            raise ValueError(f"start must be below end, got start={self.start}, end={self.end}")
        if directional:
            own = "V_b" if self.direction == DIRECTION_BUY else "V_s"
            if self.V_m != getattr(self, own):
                raise ValueError(
                    f"V_m of a {self.direction} row must equal its {own}, got V_m={self.V_m!r}, "
                    f"{own}={getattr(self, own)!r}"
                )


def cut_patches(series: SignedSeries, seg: Segmentation) -> list[Patch]:
    """One Patch per consecutive boundary pair; ranges tile the series exactly."""
    boundaries = seg.boundaries
    n = len(series)
    if not boundaries or boundaries[0] != 0 or boundaries[-1] != n:
        raise ValueError(f"boundaries {boundaries!r} do not span a series of length {n}")
    if any(b >= c for b, c in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must be strictly increasing")
    values = series.signed_values
    timestamps = series.timestamps
    # Each patch's buys and sells are contiguous slices of the series' buys
    # and sells, in series order: the same elements, summed the same way as
    # a masked patch slice.  buy_offset[i] counts the buys before row i.
    buys = values > 0
    buy_values, sell_values = values[buys], values[~buys]
    buy_offset = np.concatenate(([0], np.cumsum(buys))).tolist()
    out = []
    # An overflowing sum is reported as the DataError below, not as a numpy warning.
    with np.errstate(over="ignore"):
        for start, end in zip(boundaries[:-1], boundaries[1:]):
            b0, b1 = buy_offset[start], buy_offset[end]
            v_b = float(buy_values[b0:b1].sum())
            # not -sum: an all-buy patch has V_s = 0.0, not -0.0
            v_s = float(0.0 - sell_values[start - b0 : end - b1].sum())
            if not math.isfinite(v_b + v_s):
                raise DataError(
                    f"firm {series.firm_id!r}, stock {series.stock_id!r}: patch [{start}, {end}) "
                    f"traded value overflows: V_b={v_b!r}, V_s={v_s!r}"
                )
            out.append(
                Patch(
                    firm_id=series.firm_id,
                    stock_id=series.stock_id,
                    start=int(start),
                    end=int(end),
                    V_b=v_b,
                    V_s=v_s,
                    V=v_b + v_s,
                    n_buy=b1 - b0,
                    n_sell=int(end - start) - (b1 - b0),
                    t_first=int(timestamps[start]),
                    t_last=int(timestamps[end - 1]),
                )
            )
    return out


def classify(patch: Patch, theta: float = DEFAULT_THETA) -> str:
    """Buy iff V_b/V > theta, sell iff V_s/V > theta, otherwise non-directional.

    The inequality is strict, so a patch exactly at the threshold is
    non-directional.  theta above 0.5 makes the outcomes mutually exclusive.
    """
    if not 0.5 < theta <= 1.0:
        raise ValueError(f"theta must be in (0.5, 1], got {theta}")
    if patch.V <= 0.0:
        return NON_DIRECTIONAL
    if patch.V_b / patch.V > theta:
        return DIRECTION_BUY
    if patch.V_s / patch.V > theta:
        return DIRECTION_SELL
    return NON_DIRECTIONAL


def record(patch: Patch, direction: str) -> PatchRecord:
    """The patches.csv record of a patch classified as direction."""
    if direction == DIRECTION_BUY:
        n_m, v_m = patch.n_buy, patch.V_b
    elif direction == DIRECTION_SELL:
        n_m, v_m = patch.n_sell, patch.V_s
    else:
        n_m = v_m = None
    return PatchRecord(
        firm_id=patch.firm_id,
        stock_id=patch.stock_id,
        start=patch.start,
        end=patch.end,
        direction=direction,
        T=patch.t_last - patch.t_first,
        N_m=n_m,
        V_m=v_m,
        V_b=patch.V_b,
        V_s=patch.V_s,
    )


def as_directional(patch: Patch, direction: str) -> PatchRecord:
    """The record of an already-classified buy or sell patch."""
    if direction not in (DIRECTION_BUY, DIRECTION_SELL):
        raise ValueError(f"direction must be buy or sell, got {direction!r}")
    return record(patch, direction)


def select_directional(
    records: list[PatchRecord], min_trades: int = DEFAULT_MIN_TRADES
) -> list[PatchRecord]:
    """Buy and sell records spanning at least min_trades trades, in input order."""
    return [
        r for r in records if r.end - r.start >= min_trades and r.direction != NON_DIRECTIONAL
    ]


def variables(records: list[PatchRecord]) -> dict[str, np.ndarray]:
    """Arrays of T, N_m, V_m across directional records, keyed by variable name."""
    return {
        name: np.array([getattr(r, name) for r in records], dtype=np.float64)
        for name in VARIABLES
    }
