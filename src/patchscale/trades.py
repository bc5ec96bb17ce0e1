"""Trade-tape ingestion, firm activity filtering, and signed-series construction."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, utf8_lines

TRADE_CSV_HEADER = ("timestamp", "firm_id", "stock_id", "side", "value")
BUY = "B"
SELL = "S"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_SECONDS_PER_DAY = 86400

# Block-wise tape I/O: bytes read per parse block (cut back to a newline)
# and rows formatted per write.
_READ_BYTES = 1 << 20
_WRITE_ROWS = 1 << 16
_HEADER_LINE = (",".join(TRADE_CSV_HEADER) + "\n").encode()
# Timestamps of up to 18 digits fit int64; longer ones take the row loop.
_MAX_TS_DIGITS = 18
# Byte lookups on zero-padded fields (a tape on this path holds no NUL, so
# 0 is padding): the digit's value, 10 for a byte that is not a digit; and
# whether a byte may appear in a value.
_DIGIT_VALUE = np.full(256, 10, dtype=np.int64)
_DIGIT_VALUE[0] = 0
_DIGIT_VALUE[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_NUMBER = np.zeros(256, dtype=bool)
_NUMBER[np.frombuffer(b"\x000123456789.eE+-", dtype=np.uint8)] = True


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


def _csv_cells(ids: list[str]) -> np.ndarray:
    """Each id as csv.writer writes it in a row's first cell, quoted if need be."""
    buffer = io.StringIO()
    # csv.writer quotes a cell that holds a character of its line terminator;
    # "\r\n" makes it quote a lone \r too, which csv.reader reads as a row end.
    writer = csv.writer(buffer, lineterminator="\r\n")
    cells = []
    for ident in ids:
        buffer.seek(0)
        buffer.truncate()
        # A second, empty cell: csv.writer quotes a row's only cell when it is empty.
        writer.writerow((ident, ""))
        cells.append(buffer.getvalue()[:-3])
    return np.array(cells, dtype=object)


class _Interner:
    """Codes for ids in order of first appearance, kept across blocks."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.codes: dict[bytes, int] = {}

    def encode(self, keys: np.ndarray) -> np.ndarray:
        """int32 codes of one block's id keys: zero-padded bytes as uint64 or S<w>.

        Raises UnicodeDecodeError on an id that is not UTF-8.
        """
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        lookup = np.empty(len(distinct), dtype=np.int32)
        for u in np.argsort(first).tolist():
            raw = distinct[u].tobytes().rstrip(b"\0")
            code = self.codes.get(raw)
            if code is None:
                self.ids.append(raw.decode("utf-8"))
                code = self.codes[raw] = len(self.ids) - 1
            lookup[u] = code
        return lookup[inverse.reshape(-1)]


def _parse_block(block: bytes, firms: _Interner, stocks: _Interner) -> tuple | None:
    """Columns of a block of whole LF-terminated tape lines, or None if any check fails.

    Raises ValueError on a value numpy cannot parse or an id that is not UTF-8.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    n = len(ends)
    if len(commas) != 4 * n:
        return None
    # Separator offsets per line: the previous line's newline, four commas,
    # the line's own newline; field k spans (seps[k], seps[k + 1]).
    seps = np.column_stack((np.concatenate(([-1], ends[:-1])), commas.reshape(n, 4), ends))
    # The offsets are sorted and there are 4n commas in all, so each line
    # holds exactly four when its first comma and its last lie inside it.
    if not ((seps[:, 1] > seps[:, 0]).all() and (seps[:, 4] < seps[:, 5]).all()):
        return None
    lengths = np.diff(seps, axis=1) - 1
    widths = lengths.max(axis=0)
    # Ids up to 8 bytes wide are interned as uint64 keys, so windows span
    # at least 8 bytes; the zeros let the last line's windows run past it.
    span = max(int(widths.max()), 8)
    windows = sliding_window_view(np.concatenate((raw, np.zeros(span, dtype=np.uint8))), span)

    def field(k: int, width: int) -> np.ndarray:
        """Field k of every line as a zero-padded (n, width) uint8 matrix."""
        matrix = windows[seps[:, k] + 1, :width]
        matrix *= np.arange(width) < lengths[:, k, None]
        return matrix

    def ids(k: int, interner: _Interner) -> np.ndarray:
        if widths[k] <= 8:
            return interner.encode(field(k, 8).view(np.uint64).reshape(n))
        return interner.encode(field(k, widths[k]).view(f"S{widths[k]}").reshape(n))

    if not 1 <= lengths[:, 0].min() <= widths[0] <= _MAX_TS_DIGITS:
        return None
    digits = _DIGIT_VALUE[field(0, widths[0])]
    if digits.max() > 9:
        return None
    # Left-aligned digits read as a widths[0]-digit number, then the
    # padding's trailing zeros divided off.
    powers = 10 ** np.arange(widths[0] - 1, -1, -1, dtype=np.int64)
    timestamps = (digits @ powers) // powers[lengths[:, 0] - 1]

    sides = raw[seps[:, 3] + 1]
    if not ((lengths[:, 3] == 1) & ((sides == ord(BUY)) | (sides == ord(SELL)))).all():
        return None
    signs = np.where(sides == ord(BUY), 1, -1).astype(np.int8)

    if lengths[:, 4].min() < 1:
        return None
    cells = field(4, widths[4])
    if not _NUMBER[cells].all():
        return None
    values = cells.view(f"S{widths[4]}").reshape(n).astype(np.float64)
    if not (np.isfinite(values) & (values > 0)).all():
        return None
    return timestamps, ids(1, firms), ids(2, stocks), signs, values


def _parse_plain(path: str | Path) -> TradeTable | None:
    """The table of an unquoted LF tape, parsed block-wise; None if the row loop must parse it.

    Accepts a strict subset of what the row loop accepts: the exact header,
    no quote, CR or NUL byte, a final newline, and per row five fields in
    the simplest form each can take.  Ids must decode as UTF-8.
    """
    firms, stocks = _Interner(), _Interner()
    columns = []
    with open(path, "rb") as handle:
        if handle.read(len(_HEADER_LINE)) != _HEADER_LINE:
            return None
        tail = b""
        while chunk := handle.read(_READ_BYTES):
            buffer = tail + chunk
            cut = buffer.rfind(b"\n") + 1
            block, tail = buffer[:cut], buffer[cut:]
            if not block:
                continue
            if b'"' in block or b"\r" in block or b"\0" in block:
                return None
            try:
                parsed = _parse_block(block, firms, stocks)
            except ValueError:  # an unparsable value, or an id that is not UTF-8
                return None
            if parsed is None:
                return None
            columns.append(parsed)
    if tail or not columns:
        return None
    timestamps, firm_codes, stock_codes, signs, values = (np.concatenate(c) for c in zip(*columns))
    return TradeTable(timestamps, firm_codes, stock_codes, signs, values, firms.ids, stocks.ids)


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
        no side.  An unquoted LF tape, the form to_csv writes, is parsed
        block-wise with numpy; anything else, and any tape that fails a
        check, goes through the row loop, which alone names a bad line.
        """
        table = _parse_plain(path)
        if table is None:
            table = cls._parse_rows(path)
        return table

    @classmethod
    def _parse_rows(cls, path: str | Path) -> TradeTable:
        timestamps: list[int] = []
        firm_ids: list[str] = []
        stock_ids: list[str] = []
        signs: list[int] = []
        values: list[float] = []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(utf8_lines(path, handle))
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
        """Write the tape as csv.writer would: ids quoted only where needed, LF line ends.

        Unlike csv.writer with an LF terminator, an id holding a \r is quoted,
        so that from_csv reads back every tape this writes.

        Rows are formatted and written in blocks, never as one whole-tape string.
        """
        firm_cells = _csv_cells(self.firms)
        stock_cells = _csv_cells(self.stocks)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(TRADE_CSV_HEADER) + "\n")
            for lo in range(0, len(self), _WRITE_ROWS):
                rows = slice(lo, lo + _WRITE_ROWS)
                columns = zip(
                    self.timestamps[rows].tolist(),
                    firm_cells[self.firm_codes[rows]].tolist(),
                    stock_cells[self.stock_codes[rows]].tolist(),
                    np.where(self.signs[rows] > 0, BUY, SELL).tolist(),
                    self.values[rows].tolist(),
                )
                handle.write("".join([f"{t},{f},{s},{d},{v!r}\n" for t, f, s, d, v in columns]))

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
