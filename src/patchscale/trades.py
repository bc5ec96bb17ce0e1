"""Trade-tape ingestion, firm activity filtering, and signed-series construction."""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, utf8_lines

TRADE_CSV_HEADER = ("timestamp", "firm_id", "stock_id", "side", "value")
BUY = "B"
SELL = "S"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_SECONDS_PER_DAY = 86400

# Block-wise tape I/O: bytes read per parse block (cut back to a newline)
# and rows formatted per write.  A block's parse temporaries (its text,
# numpy's tokenizer buffers and the parsed rows) come to ~10x its size, so
# 256 KiB blocks hold ~2.5 MB beside the columns.  Writing a 436k-row tape
# in blocks of 2^16 rows left ~25 MB of freed block arrays resident; 2^13
# leaves ~2 MB and writes as fast.
_READ_BYTES = 1 << 18
_WRITE_ROWS = 1 << 13
# Rows per block when activity() counts trades per (firm, day).
_ACTIVITY_ROWS = 1 << 16
_HEADER_LINE = (",".join(TRADE_CSV_HEADER) + "\n").encode()
# 9999-12-31T23:59:59Z: the last second with a calendar year in datetime.
_MAX_TIMESTAMP = 253402300799
# Bytes that send a tape to the row loop: a quote, CR or NUL, which numpy's
# tokenizer reads otherwise than csv.reader, and 0x1C-0x1F, which it strips
# around a number where int() and float() refuse them.
_ROW_LOOP_BYTES = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
class SeriesColumns:
    """Signed series laid end to end, ordered by (firm_id, stock_id).

    Series i is rows offsets[i]:offsets[i + 1] of timestamps and
    signed_values, and belongs to pairs[i].  Arrays are made read-only.
    """

    pairs: list[tuple[str, str]]
    offsets: np.ndarray
    timestamps: np.ndarray
    signed_values: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.offsets, self.timestamps, self.signed_values):
            _frozen(array)

    def __iter__(self) -> Iterator[SignedSeries]:
        """One SignedSeries per series, its arrays views of the flat columns."""
        bounds = self.offsets.tolist()
        for (firm_id, stock_id), lo, hi in zip(self.pairs, bounds, bounds[1:]):
            yield SignedSeries(firm_id, stock_id, self.timestamps[lo:hi], self.signed_values[lo:hi])


@dataclass(frozen=True, slots=True)
class FirmActivity:
    firm_id: str
    trades_per_year: dict[int, int]
    active_days_per_year: dict[int, int]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _parse_row(path: str | Path, fields: list[str], line_no: int) -> tuple[int, int, float]:
    """A trade-CSV row's timestamp, sign and value; DataError naming the file, the line and the fault."""
    if len(fields) != 5:
        raise DataError(f"{path}: line {line_no}: expected 5 fields, got {len(fields)}")
    raw_ts, _, _, side, raw_value = fields
    try:
        timestamp = int(raw_ts)
    except ValueError:
        raise DataError(f"{path}: line {line_no}: bad timestamp {raw_ts!r}") from None
    if timestamp < 0:
        raise DataError(f"{path}: line {line_no}: negative timestamp {timestamp}")
    if timestamp > _MAX_TIMESTAMP:
        raise DataError(f"{path}: line {line_no}: timestamp {timestamp} is past 9999-12-31")
    if side not in (BUY, SELL):
        raise DataError(f"{path}: line {line_no}: side must be B or S, got {side!r}")
    try:
        value = float(raw_value)
    except ValueError:
        raise DataError(f"{path}: line {line_no}: bad value {raw_value!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: line {line_no}: value must be finite, got {raw_value}")
    if not value > 0:
        raise DataError(f"{path}: line {line_no}: value must be strictly positive, got {raw_value}")
    return timestamp, 1 if side == BUY else -1, value


def _csv_cells(ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each id as csv.writer writes it in a row's first cell, quoted if need be, as a field."""
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
        cells.append(buffer.getvalue()[:-3].encode("utf-8"))
    return _text_matrix(cells)


# Each field of a block of rows being written is a pair of (rows, width)
# matrices: its bytes (uint8) and which of them it shows (bool).
def _text_matrix(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Byte strings as a field, left-aligned."""
    width = max(map(len, texts), default=0)
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    return (
        np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width),
        np.arange(width) < lengths[:, None],
    )


def _digits(numbers: np.ndarray, min_width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative int64s as a field of right-aligned digits, showing what str shows,
    and always the last min_width digits.
    """
    width = max(len(str(int(numbers.max()))), min_width)
    matrix = np.empty((len(numbers), width), dtype=np.uint8)
    rest = numbers
    for k in range(width - 1, -1, -1):
        quotient = rest // 10  # numpy divides by a scalar without a hardware division
        matrix[:, k] = rest - 10 * quotient
        rest = quotient
    shown = numbers[:, None] >= 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    shown[:, width - min_width :] = True
    return matrix + ord("0"), shown


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


def _tokenize(text: str, width: int) -> np.ndarray:
    """A block's rows as numpy's C tokenizer reads them, ids cut to width bytes."""
    dtype = [("timestamp", np.int64), ("firm", f"S{width}"), ("stock", f"S{width}"), ("side", "S2"), ("value", np.float64)]
    with warnings.catch_warnings():
        # A block of blank lines reads as no rows, which the row count declines.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _parse_block(block: bytes, width: int, firms: _Interner, stocks: _Interner) -> tuple | None:
    """Columns of a block of whole LF-terminated tape lines and the id width for
    the next block, or None if any check fails.

    Ids are read at width bytes; a block that has an id of that width, which
    may have been cut, is read again at its longest line.  The next block is
    read at the longest id's width plus one, and at least 8.  Raises
    ValueError on a field numpy cannot parse, or a block that is not UTF-8.
    """
    if any(byte in block for byte in _ROW_LOOP_BYTES):
        return None
    # A block must be UTF-8: under latin-1 alone a lone 0x85 or 0xA0 byte
    # reads as a space.  One that is not ASCII is then read as latin-1, one
    # character per byte, so its ids come back as their bytes.
    text = block.decode("utf-8")
    if not text.isascii():
        text = block.decode("latin-1")

    def longest_id(rows: np.ndarray) -> int:
        return int(max(np.char.str_len(rows[key]).max() for key in ("firm", "stock")))

    rows = _tokenize(text, width)
    if len(rows) != block.count(b"\n"):  # numpy skips blank lines
        return None
    longest = longest_id(rows)
    if longest == width:
        rows = _tokenize(text, max(map(len, block.split(b"\n"))))
        longest = longest_id(rows)
    timestamps, sides, values = rows["timestamp"], rows["side"], rows["value"]
    if not (timestamps.min() >= 0 and timestamps.max() <= _MAX_TIMESTAMP):
        return None
    buys = sides == BUY.encode()
    if not (buys | (sides == SELL.encode())).all():
        return None
    if not (np.isfinite(values) & (values > 0)).all():
        return None

    def ids(key: str, interner: _Interner) -> np.ndarray:
        keys = rows[key]
        return interner.encode(keys.view(np.uint64) if keys.itemsize == 8 else keys)

    signs = np.where(buys, 1, -1).astype(np.int8)
    return (timestamps, ids("firm", firms), ids("stock", stocks), signs, values), max(longest + 1, 8)


def _parse_plain(path: str | Path) -> TradeTable | None:
    """The table of an unquoted LF tape, parsed block-wise; None if the row loop must parse it.

    Accepts a subset of what the row loop accepts, with the same values:
    the exact header, valid UTF-8 without the bytes of _ROW_LOOP_BYTES, a
    final newline, no blank line, and per row five fields that numpy's
    tokenizer reads as an int64 timestamp up to _MAX_TIMESTAMP, two ids, a
    side B or S and a finite positive float64 value.

    A first pass counts the lines, so the columns are allocated once and
    each block parses into its own rows of them.
    """
    firms, stocks = _Interner(), _Interner()
    with open(path, "rb") as handle:
        if handle.read(len(_HEADER_LINE)) != _HEADER_LINE:
            return None
        n = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(_READ_BYTES), b""))
        if n == 0:
            return None
        handle.seek(len(_HEADER_LINE))
        columns = [np.empty(n, dtype) for dtype in (np.int64, np.int32, np.int32, np.int8, np.float64)]
        # Ids of up to 8 bytes are interned as uint64 keys.
        filled, tail, width = 0, b"", 8
        while chunk := handle.read(_READ_BYTES):
            buffer = tail + chunk
            cut = buffer.rfind(b"\n") + 1
            block, tail = buffer[:cut], buffer[cut:]
            if not block:
                continue
            try:
                parsed = _parse_block(block, width, firms, stocks)
            except ValueError:  # an unparsable field, or a block that is not UTF-8
                return None
            if parsed is None or filled + len(parsed[0][0]) > n:
                return None
            parts, width = parsed
            rows = slice(filled, filled + len(parts[0]))
            for column, part in zip(columns, parts):
                column[rows] = part
            filled = rows.stop
    if tail or filled != n:
        return None
    return TradeTable(*columns, firms.ids, stocks.ids)


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
        no side.  An unquoted LF tape, the form to_csv writes, is tokenized
        block-wise by numpy.loadtxt; anything else, and any tape that fails a
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
                timestamp, sign, value = _parse_row(path, fields, line_no)
                timestamps.append(timestamp)
                firm_ids.append(fields[1])
                stock_ids.append(fields[2])
                signs.append(sign)
                values.append(value)
        return cls.from_rows(timestamps, firm_ids, stock_ids, signs, values)

    def to_csv(self, path: str | Path) -> None:
        """Write the tape as csv.writer would: ids quoted only where needed, LF line ends.

        Unlike csv.writer with an LF terminator, an id holding a \r is quoted,
        so that from_csv reads back every tape this writes.  Timestamps must
        be non-negative, as from_csv requires.

        Rows are formatted and written in blocks, never as one whole-tape string.
        """
        if len(self) and self.timestamps.min() < 0:
            raise ValueError("cannot write a negative timestamp")
        firm_cells = _csv_cells(self.firms)
        stock_cells = _csv_cells(self.stocks)
        with open(path, "wb") as handle:
            handle.write(_HEADER_LINE)
            for lo in range(0, len(self), _WRITE_ROWS):
                handle.write(self._csv_block(slice(lo, lo + _WRITE_ROWS), firm_cells, stock_cells))

    def _csv_block(self, rows: slice, firm_cells: tuple, stock_cells: tuple) -> bytes:
        """The tape lines of rows, each value as repr prints it.

        A whole number of cents in (0, 1e13) is written from its int64 cent
        count: its two-decimal form has at most 15 significant digits, so no
        other decimal of as few digits reads back as the same double, and
        repr prints that form less a trailing zero (.0, .d or .dd).  Other
        values take repr.
        """
        values = self.values[rows]
        n = len(values)
        small = (values > 0) & (values < 1e13)
        cents = np.round(np.where(small, values, 0.0) * 100).astype(np.int64)
        exact = small & (cents / 100 == values)
        digits, digits_shown = _digits(np.where(exact, cents, 0), min_width=3)
        digits_shown &= exact[:, None]
        digits_shown[:, -1] &= digits[:, -1] != ord("0")
        other = np.flatnonzero(~exact)
        reprs, reprs_shown = _text_matrix([repr(v).encode() for v in values[other].tolist()])
        repr_text = np.zeros((n, reprs.shape[1]), dtype=np.uint8)
        repr_shown = np.zeros(repr_text.shape, dtype=bool)
        repr_text[other], repr_shown[other] = reprs, reprs_shown

        def byte(code: int | np.ndarray, shown: np.ndarray | bool = True) -> tuple:
            return np.broadcast_to(np.asarray(code, dtype=np.uint8), n).reshape(n, 1), shown

        firm_codes, stock_codes = self.firm_codes[rows], self.stock_codes[rows]
        fields = [
            _digits(self.timestamps[rows]),
            byte(ord(",")),
            (firm_cells[0][firm_codes], firm_cells[1][firm_codes]),
            byte(ord(",")),
            (stock_cells[0][stock_codes], stock_cells[1][stock_codes]),
            byte(ord(",")),
            byte(np.where(self.signs[rows] > 0, ord(BUY), ord(SELL))),
            byte(ord(",")),
            (digits[:, :-2], digits_shown[:, :-2]),
            byte(ord("."), exact[:, None]),
            (digits[:, -2:], digits_shown[:, -2:]),
            (repr_text, repr_shown),
            byte(ord("\n")),
        ]
        matrix = np.hstack([field for field, _ in fields])
        shown = np.hstack([np.broadcast_to(shown, field.shape) for field, shown in fields])
        return np.compress(shown.ravel(), matrix.ravel()).tobytes()

    def series_columns(self, firm_ids: set[str] | None = None) -> SeriesColumns:
        """Every (firm, stock) pair's signed series, ordered by identifier.

        Entries are time-sorted with input order preserved on ties.  When
        firm_ids is given, other firms are left out.
        """
        firms, stocks = sorted(self.firms), sorted(self.stocks)
        # One key per pair in name order, of the narrowest unsigned type that
        # holds them all: lexsort sorts a narrow key in less time and memory.
        # It is stable, so ties keep input order.
        key = np.min_scalar_type(max(len(firms) * len(stocks) - 1, 0))
        firm_rank, stock_rank = (
            np.argsort(np.argsort(np.array(names, dtype=object))).astype(key)
            for names in (self.firms, self.stocks)
        )
        pair = firm_rank[self.firm_codes] * key.type(len(stocks))
        pair += stock_rank[self.stock_codes]
        order = np.lexsort((self.timestamps, pair))
        if firm_ids is not None:
            kept = np.array([firm in firm_ids for firm in self.firms], dtype=bool)
            if not kept.all():
                order = order[kept[self.firm_codes[order]]]
        pair = pair[order]
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        pairs = [(firms[p // len(stocks)], stocks[p % len(stocks)]) for p in pair[starts].tolist()]
        del pair
        signed_values = self.values[order]
        signed_values *= self.signs[order]
        return SeriesColumns(pairs, np.append(starts, len(order)), self.timestamps[order], signed_values)

    def iter_series(self, firm_ids: set[str] | None = None) -> Iterator[SignedSeries]:
        """Yield the SignedSeries of series_columns(firm_ids) in order."""
        return iter(self.series_columns(firm_ids))

    def activity(self) -> dict[str, FirmActivity]:
        """Per-firm trade and distinct-active-day counts by calendar year (UTC)."""
        if len(self) == 0:
            return {}
        first_day, last_day = (t // _SECONDS_PER_DAY for t in self.span())
        n_days = last_day - first_day + 1
        year_min, year_max = (date.fromordinal(_EPOCH_ORDINAL + d).year for d in (first_day, last_day))
        year_span = year_max - year_min + 1
        # Trades per (firm, day) first, _ACTIVITY_ROWS trades at a time, each
        # block's counts merged into the sorted keys so far; then per (firm,
        # year) from those.
        firm_day = np.empty(0, dtype=np.int64)
        day_trades = np.empty(0, dtype=np.int64)
        for lo in range(0, len(self), _ACTIVITY_ROWS):
            rows = slice(lo, lo + _ACTIVITY_ROWS)
            keys = self.firm_codes[rows] * np.int64(n_days)
            keys += self.timestamps[rows] // _SECONDS_PER_DAY - first_day
            keys, counts = np.unique(keys, return_counts=True)
            keys = np.concatenate((firm_day, keys))
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            firm_day = keys[starts]
            day_trades = np.add.reduceat(np.concatenate((day_trades, counts))[order], starts)
        # Sorted by firm, then day, so each (firm, year) is one run of entries.
        year_starts = np.array(
            [date(year, 1, 1).toordinal() - _EPOCH_ORDINAL - first_day for year in range(year_min + 1, year_max + 1)],
            dtype=np.int64,
        )
        firm_year = firm_day // n_days * year_span
        firm_year += np.searchsorted(year_starts, firm_day % n_days, side="right")
        starts = np.flatnonzero(np.diff(firm_year, prepend=-1))
        trade_counts = np.add.reduceat(day_trades, starts)
        active_days = np.diff(np.append(starts, len(firm_year)))

        trades_per: dict[int, dict[int, int]] = {}
        days_per: dict[int, dict[int, int]] = {}
        for key, trades, days in zip(firm_year[starts].tolist(), trade_counts.tolist(), active_days.tolist()):
            firm, year = divmod(key, year_span)
            trades_per.setdefault(firm, {})[year_min + year] = trades
            days_per.setdefault(firm, {})[year_min + year] = days
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


def _year_coverage(span: Sequence[int], year: int) -> float:
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
    span = table.span() if len(table) else None
    return qualified_firms(table.activity(), span, min_trades_per_year, min_active_days, mode=mode)


def qualified_firms(
    activity: dict[str, FirmActivity],
    span: Sequence[int] | None,
    min_trades_per_year: int,
    min_active_days: int,
    *,
    mode: str = "strict",
) -> set[str]:
    """The firms of a tape's activity mapping that filter_active_firms selects.

    span is the tape's time span, None for an empty tape.
    """
    if mode not in ("strict", "prorated"):
        raise ValueError(f"mode must be strict or prorated, got {mode!r}")
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
