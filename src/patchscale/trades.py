"""Trade-tape ingestion, firm activity filtering, and signed-series construction."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError

TRADE_CSV_HEADER = ("timestamp", "firm_id", "stock_id", "side", "value")
BUY = "B"
SELL = "S"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_SECONDS_PER_DAY = 86400


@dataclass(frozen=True, slots=True)
class SignedSeries:
    """Time-ordered signed traded values for one (firm, stock) pair.

    Buy trades carry +value, sell trades -value.  Arrays are read-only and
    aligned; ties in timestamp preserve input order.
    """

    firm_id: str
    stock_id: str
    timestamps: np.ndarray
    signed_values: np.ndarray

    def __len__(self) -> int:
        return len(self.signed_values)


@dataclass(frozen=True, slots=True)
class FirmActivity:
    firm_id: str
    trades_per_year: dict[int, int]
    active_days_per_year: dict[int, int]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _row_error(path: str | Path, fields: list[str], line_no: int) -> DataError:
    """The error naming the file, the line and the fault of a malformed trade-CSV row."""
    where = f"{path}: line {line_no}"
    if len(fields) != 5:
        return DataError(f"{where}: expected 5 fields, got {len(fields)}")
    raw_ts, _, _, side, raw_value = fields
    try:
        timestamp = int(raw_ts)
    except ValueError:
        return DataError(f"{where}: bad timestamp {raw_ts!r}")
    if timestamp < 0:
        return DataError(f"{where}: negative timestamp {timestamp}")
    if side not in (BUY, SELL):
        return DataError(f"{where}: side must be B or S, got {side!r}")
    try:
        value = float(raw_value)
    except ValueError:
        return DataError(f"{where}: bad value {raw_value!r}")
    if not math.isfinite(value):
        return DataError(f"{where}: value must be finite, got {raw_value}")
    if not value > 0:
        return DataError(f"{where}: value must be strictly positive, got {raw_value}")
    return DataError(f"{where}: malformed row")


class TradeTable:
    """Column-oriented trade tape: one aligned numpy array per trade-CSV column.

    Firm and stock identifiers are interned into code arrays; sides are
    signs (+1 buy, -1 sell).
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        firm_codes: np.ndarray,
        stock_codes: np.ndarray,
        signs: np.ndarray,
        values: np.ndarray,
        firms: list[str],
        stocks: list[str],
    ) -> None:
        self.timestamps = _frozen(timestamps)
        self.firm_codes = _frozen(firm_codes)
        self.stock_codes = _frozen(stock_codes)
        self.signs = _frozen(signs)
        self.values = _frozen(values)
        self.firms = firms
        self.stocks = stocks

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_rows(
        cls,
        timestamps: list[int],
        firm_ids: list[str],
        stock_ids: list[str],
        signs: list[int],
        values: list[float],
    ) -> TradeTable:
        firms: list[str] = []
        stocks: list[str] = []
        firm_index: dict[str, int] = {}
        stock_index: dict[str, int] = {}
        firm_codes = np.empty(len(values), dtype=np.int32)
        stock_codes = np.empty(len(values), dtype=np.int32)
        for i, (firm_id, stock_id) in enumerate(zip(firm_ids, stock_ids)):
            code = firm_index.get(firm_id)
            if code is None:
                code = firm_index[firm_id] = len(firms)
                firms.append(firm_id)
            firm_codes[i] = code
            code = stock_index.get(stock_id)
            if code is None:
                code = stock_index[stock_id] = len(stocks)
                stocks.append(stock_id)
            stock_codes[i] = code
        return cls(
            np.asarray(timestamps, dtype=np.int64),
            firm_codes,
            stock_codes,
            np.asarray(signs, dtype=np.int8),
            np.asarray(values, dtype=np.float64),
            firms,
            stocks,
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> TradeTable:
        """Parse a trade CSV; a malformed row raises DataError with its line number.

        Values must be finite and strictly positive: a signed value of 0 has
        no side.
        """
        timestamps: list[int] = []
        firm_ids: list[str] = []
        stock_ids: list[str] = []
        signs: list[int] = []
        values: list[float] = []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty input: missing trade-CSV header") from None
            if tuple(header) != TRADE_CSV_HEADER:
                raise DataError(f"{path}: bad header {header!r}")
            for line_no, fields in enumerate(reader, start=2):
                try:
                    timestamp = int(fields[0])
                    value = float(fields[4])
                    ok = (
                        len(fields) == 5
                        and timestamp >= 0
                        and 0.0 < value < math.inf
                        and fields[3] in (BUY, SELL)
                    )
                except (ValueError, IndexError):
                    ok = False
                if not ok:
                    raise _row_error(path, fields, line_no)
                timestamps.append(timestamp)
                firm_ids.append(fields[1])
                stock_ids.append(fields[2])
                signs.append(1 if fields[3] == BUY else -1)
                values.append(value)
        return cls.from_rows(timestamps, firm_ids, stock_ids, signs, values)

    def to_csv(self, path: str | Path) -> None:
        side_of = {1: BUY, -1: SELL}
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(TRADE_CSV_HEADER)
            firm_ids = [self.firms[c] for c in self.firm_codes.tolist()]
            stock_ids = [self.stocks[c] for c in self.stock_codes.tolist()]
            writer.writerows(
                zip(
                    self.timestamps.tolist(),
                    firm_ids,
                    stock_ids,
                    (side_of[s] for s in self.signs.tolist()),
                    (repr(v) for v in self.values.tolist()),
                )
            )

    def iter_series(self, firm_ids: set[str] | None = None) -> Iterator[SignedSeries]:
        """Yield one SignedSeries per (firm, stock) pair, ordered by identifier.

        Entries are time-sorted with input order preserved on ties.  When
        firm_ids is given, other firms are skipped.
        """
        if len(self) == 0:
            return
        order = np.lexsort(
            (
                np.arange(len(self)),
                self.timestamps,
                self.stock_codes,
                self.firm_codes,
            )
        )
        firm_sorted = self.firm_codes[order]
        stock_sorted = self.stock_codes[order]
        pair_change = np.flatnonzero(
            (np.diff(firm_sorted) != 0) | (np.diff(stock_sorted) != 0)
        )
        starts = np.concatenate(([0], pair_change + 1))
        ends = np.concatenate((pair_change + 1, [len(self)]))
        signed = self.values * self.signs
        pairs = sorted(
            range(len(starts)),
            key=lambda i: (self.firms[firm_sorted[starts[i]]], self.stocks[stock_sorted[starts[i]]]),
        )
        for i in pairs:
            idx = order[starts[i] : ends[i]]
            firm_id = self.firms[firm_sorted[starts[i]]]
            if firm_ids is not None and firm_id not in firm_ids:
                continue
            yield SignedSeries(
                firm_id=firm_id,
                stock_id=self.stocks[stock_sorted[starts[i]]],
                timestamps=_frozen(self.timestamps[idx]),
                signed_values=_frozen(signed[idx]),
            )

    def activity(self) -> dict[str, FirmActivity]:
        """Per-firm trade and distinct-active-day counts by calendar year (UTC)."""
        if len(self) == 0:
            return {}
        epoch_days = self.timestamps // _SECONDS_PER_DAY
        unique_days, day_inverse = np.unique(epoch_days, return_inverse=True)
        years_of_day = np.array(
            [date.fromordinal(_EPOCH_ORDINAL + int(d)).year for d in unique_days],
            dtype=np.int64,
        )
        year_min = int(years_of_day.min())
        year_span = int(years_of_day.max()) - year_min + 1
        firm_codes = self.firm_codes.astype(np.int64)

        trade_keys = firm_codes * year_span + (years_of_day[day_inverse] - year_min)
        trade_key_values, trade_counts = np.unique(trade_keys, return_counts=True)

        day_keys = np.unique(firm_codes * len(unique_days) + day_inverse)
        day_firm = day_keys // len(unique_days)
        day_year = years_of_day[day_keys % len(unique_days)]
        active_key_values, active_counts = np.unique(
            day_firm * year_span + (day_year - year_min), return_counts=True
        )

        trades_per: dict[int, dict[int, int]] = {}
        for key, count in zip(trade_key_values.tolist(), trade_counts.tolist()):
            trades_per.setdefault(key // year_span, {})[year_min + key % year_span] = count
        days_per: dict[int, dict[int, int]] = {}
        for key, count in zip(active_key_values.tolist(), active_counts.tolist()):
            days_per.setdefault(key // year_span, {})[year_min + key % year_span] = count
        return {
            firm_id: FirmActivity(
                firm_id=firm_id,
                trades_per_year=trades_per.get(code, {}),
                active_days_per_year=days_per.get(code, {}),
            )
            for code, firm_id in enumerate(self.firms)
        }

    def span(self) -> tuple[int, int]:
        if len(self) == 0:
            raise DataError("empty tape has no time span")
        return int(self.timestamps.min()), int(self.timestamps.max())


def _year_coverage(span: tuple[int, int], year: int) -> float:
    year_start = (date(year, 1, 1).toordinal() - _EPOCH_ORDINAL) * _SECONDS_PER_DAY
    year_end = (date(year + 1, 1, 1).toordinal() - _EPOCH_ORDINAL) * _SECONDS_PER_DAY
    lo = max(span[0], year_start)
    hi = min(span[1] + 1, year_end)
    return max(hi - lo, 0) / (year_end - year_start)


def filter_active_firms(
    table: TradeTable,
    min_trades_per_year: int = 1000,
    min_active_days: int = 200,
    *,
    mode: str = "strict",
) -> set[str]:
    """Firms meeting both activity thresholds in every dataset year.

    A firm qualifies only if, for each calendar year (UTC) in which the
    dataset contains any trades, it has at least min_trades_per_year trades
    and at least min_active_days distinct active days.  mode="prorated"
    scales both thresholds by the fraction of each year the dataset spans,
    for partial years at the dataset boundaries; mode="strict" applies them
    unscaled.
    """
    if mode not in ("strict", "prorated"):
        raise ValueError(f"mode must be strict or prorated, got {mode!r}")
    if len(table) == 0:
        return set()
    activity = table.activity()
    span = table.span()
    dataset_years = sorted({year for a in activity.values() for year in a.trades_per_year})
    scale = {
        year: _year_coverage(span, year) if mode == "prorated" else 1.0
        for year in dataset_years
    }
    qualified = set()
    for firm_id, firm in activity.items():
        ok = all(
            firm.trades_per_year.get(year, 0) >= min_trades_per_year * scale[year]
            and firm.active_days_per_year.get(year, 0) >= min_active_days * scale[year]
            for year in dataset_years
        )
        if ok:
            qualified.add(firm_id)
    return qualified
