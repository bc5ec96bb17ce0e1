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
class PatchRecord:
    """One patches.csv row: a classified patch and the variables the analysis reads.

    T is the time from the first to the last trade; N_m and V_m are the
    dominant side's trade count and value, and are None exactly when the
    direction is non-directional.  A record that cannot be meaningful (a
    non-finite or negative value, negative T, a negative start, start >= end,
    an N_m outside [1, end - start], or a V_m that is not its own side's value
    or not above the other side's) raises ValueError.
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
        if not 0 <= self.start < self.end:
            raise ValueError(f"start must be >= 0 and below end, got start={self.start}, end={self.end}")
        if directional:
            if not 1 <= self.N_m <= self.end - self.start:
                raise ValueError(f"N_m must be in [1, end - start] = [1, {self.end - self.start}], got {self.N_m!r}")
            own, other = ("V_b", "V_s") if self.direction == DIRECTION_BUY else ("V_s", "V_b")
            # The dominant side holds more than half the value at any theta.
            if not getattr(self, other) < self.V_m == getattr(self, own):
                raise ValueError(
                    f"V_m of a {self.direction} row must equal its {own} and exceed its {other}, got "
                    f"V_m={self.V_m!r}, {own}={getattr(self, own)!r}, {other}={getattr(self, other)!r}"
                )


def _direction(v_b: float, v_s: float, theta: float) -> str:
    """Buy iff V_b/V > theta, sell iff V_s/V > theta, otherwise non-directional; V = V_b + V_s."""
    v = v_b + v_s
    if v <= 0.0:
        return NON_DIRECTIONAL
    if v_b / v > theta:
        return DIRECTION_BUY
    if v_s / v > theta:
        return DIRECTION_SELL
    return NON_DIRECTIONAL


def _check_theta(theta: float) -> None:
    if not 0.5 < theta <= 1.0:
        raise ValueError(f"theta must be in (0.5, 1], got {theta}")


def cut_patches(series: SignedSeries, seg: Segmentation, theta: float = DEFAULT_THETA) -> list[PatchRecord]:
    """The patches.csv record of each consecutive boundary pair, classified at
    theta; the ranges tile the series exactly."""
    _check_theta(theta)
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
            direction = _direction(v_b, v_s, theta)
            if direction == DIRECTION_BUY:
                n_m, v_m = b1 - b0, v_b
            elif direction == DIRECTION_SELL:
                n_m, v_m = int(end - start) - (b1 - b0), v_s
            else:
                n_m = v_m = None
            t = int(timestamps[end - 1]) - int(timestamps[start])
            out.append(
                PatchRecord(series.firm_id, series.stock_id, int(start), int(end), direction, t, n_m, v_m, v_b, v_s)
            )
    return out


def classify(patch: PatchRecord, theta: float = DEFAULT_THETA) -> str:
    """The direction of patch's V_b and V_s at theta, by the rule cut_patches applies.

    The inequality is strict, so a patch exactly at the threshold is
    non-directional.  theta above 0.5 makes the outcomes mutually exclusive.
    """
    _check_theta(theta)
    return _direction(patch.V_b, patch.V_s, theta)


def as_directional(patch: PatchRecord, direction: str) -> PatchRecord:
    """patch, once shown to be a buy or sell record of the given direction."""
    if direction not in (DIRECTION_BUY, DIRECTION_SELL) or direction != patch.direction:
        raise ValueError(
            f"direction must be buy or sell and the record's own {patch.direction!r}, got {direction!r}"
        )
    return patch


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
