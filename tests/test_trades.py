"""Trade-CSV parsing, activity filtering, and signed-series construction."""

import csv
import re
import tracemalloc
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import make_table
from patchscale import trades
from patchscale.errors import DataError
from patchscale.synth import generate, small_preset
from patchscale.trades import TradeTable, filter_active_firms

HEADER = "timestamp,firm_id,stock_id,side,value\n"

ROWS = [
    (100, "F1", "SAN", "B", 50.0),
    (200, "F1", "SAN", "S", 20.0),
    (150, "F2", "SAN", "B", 75.5),
    (300, "F1", "BBVA", "B", 10.25),
]


def _columns(table):
    return (
        table.timestamps.tolist(),
        [table.firms[c] for c in table.firm_codes.tolist()],
        [table.stocks[c] for c in table.stock_codes.tolist()],
        table.signs.tolist(),
        table.values.tolist(),
    )


def _from_text(tmp_path, body):
    path = tmp_path / "tape.csv"
    path.write_text(body)
    return TradeTable.from_csv(path)


def test_parse_round_trip(tmp_path):
    text = HEADER + "".join(f"{ts},{f},{s},{side},{v!r}\n" for ts, f, s, side, v in ROWS)
    table = _from_text(tmp_path, text)
    assert _columns(table) == (
        [100, 200, 150, 300],
        ["F1", "F1", "F2", "F1"],
        ["SAN", "SAN", "SAN", "BBVA"],
        [1, -1, 1, 1],
        [50.0, 20.0, 75.5, 10.25],
    )
    out = tmp_path / "again.csv"
    table.to_csv(out)
    assert out.read_text() == text


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "header"),
        ("time,firm\n", "bad header"),
        (HEADER + "100,F1,SAN,B\n", "5 fields"),
        (HEADER + "x,F1,SAN,B,50\n", "timestamp"),
        (HEADER + "-5,F1,SAN,B,50\n", "negative timestamp"),
        (HEADER + "100,F1,SAN,Q,50\n", "side"),
        (HEADER + "100,F1,SAN,B,zero\n", "bad value"),
        (HEADER + "100,F1,SAN,B,0\n", "positive"),
        (HEADER + "100,F1,SAN,B,-3\n", "positive"),
        (HEADER + "100,F1,SAN,B,inf\n", "line 2: value must be finite"),
        (HEADER + "100,F1,SAN,B,1e400\n", "line 2: value must be finite"),
        (HEADER + "100,F1,SAN,B,nan\n", "line 2: value must be finite"),
    ],
)
def test_parse_rejects_malformed(tmp_path, body, fragment):
    with pytest.raises(DataError, match=fragment):
        _from_text(tmp_path, body)


def test_parse_reports_line_numbers(tmp_path):
    body = HEADER + "100,F1,SAN,B,50\n200,F1,SAN,B,bad\n"
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'tape.csv'}: line 3: bad value")):
        _from_text(tmp_path, body)


def test_table_csv_round_trip(tmp_path):
    table = make_table(ROWS)
    path = tmp_path / "tape.csv"
    table.to_csv(path)
    again = TradeTable.from_csv(path)
    assert _columns(again) == _columns(table)
    twice = tmp_path / "tape2.csv"
    again.to_csv(twice)
    assert path.read_bytes() == twice.read_bytes()


def test_ids_with_carriage_returns_round_trip(tmp_path):
    # A lone \r ends a row for csv.reader, so to_csv must quote such an id.
    table = make_table([(1, "F\r1", "cr\rid", "B", 1.0), (2, "F2", "crlf\r\nid", "S", 2.0)])
    path = tmp_path / "tape.csv"
    table.to_csv(path)
    assert _columns(TradeTable.from_csv(path)) == _columns(table)


COLUMNS = ("timestamps", "firm_codes", "stock_codes", "signs", "values")


def _assert_same_table(got, want):
    for name in COLUMNS:
        got_column, want_column = getattr(got, name), getattr(want, name)
        assert got_column.dtype == want_column.dtype, name
        assert got_column.tobytes() == want_column.tobytes(), name
    assert got.firms == want.firms
    assert got.stocks == want.stocks


def _tape_lines(n, seed=0):
    """n canonical tape lines over a few firms and stocks, in to_csv's form."""
    rng = np.random.default_rng(seed)
    timestamps = 1577836800 + np.sort(rng.integers(0, 10**7, n))
    firms = rng.integers(0, 40, n)
    stocks = rng.integers(0, 3, n)
    sides = rng.integers(0, 2, n)
    values = rng.lognormal(7.0, 2.0, n)
    columns = zip(timestamps.tolist(), firms.tolist(), stocks.tolist(), sides.tolist(), values.tolist())
    return [f"{t},F{f:02d},S{s},{'BS'[d]},{v!r}\n" for t, f, s, d, v in columns]


FAST_TAPES = {
    "canonical": "".join(_tape_lines(500)),
    "leading-zero timestamps": "0,F1,S1,B,1.0\n007,F1,S1,S,2.5\n"
    "000000000000000042,F2,S1,B,3.0\n000000253402300799,F2,S1,B,4.0\n",
    "19-digit timestamp": "0000000000000000001,F1,S1,B,1.0\n",
    "exponent values": "1,F1,S1,B,1e-05\n2,F1,S1,S,1e+16\n3,F1,S1,B,2.5E-3\n4,F1,S1,B,.5\n"
    "5,F1,S1,B,7.\n6,F1,S1,B,+3\n7,F1,S1,B,1e308\n",
    "17-digit reprs": "1,F1,S1,B,0.30000000000000004\n2,F1,S1,S,2455.3849750134502\n"
    "3,F1,S1,B,1.7976931348623157e+308\n4,F1,S1,B,9007199254740993\n",
    "subnormals": "1,F1,S1,B,5e-324\n2,F1,S1,S,2.225073858507201e-308\n"
    "3,F1,S1,B,4.9406564584124654e-324\n",
    "long and unicode ids": "1,firm-with-a-long-name,Société Générale,B,1.0\n2,F1,S1,S,2.0\n"
    "3,firm-with-a-long-name,S1,B,3.0\n4,,S1,B,4.0\n5,F 1 ,Société Générale,S,5.0\n",
    "8-byte ids": "1,FIRM-001,STOCK-01,B,1.0\n2,F1,S1,S,2.0\n3,FIRM-001,S1,B,3.0\n4,FIRM-002,STOCK-01,S,4.0\n",
    # Ids wider than 8 bytes first appear past the first 64-byte block, and
    # then wider still: each block that fills the id width is read again.
    "long ids in later blocks": "".join(f"{t},F{t % 3},S1,B,{t}.5\n" for t in range(1, 12))
    + "12,FIRM-NUMBER-9,S1,S,1.0\n13,F1,S1,B,2.0\n"
    + "".join(f"{t},F{t % 3},S2,S,{t}.25\n" for t in range(14, 24))
    + "24,F1,STOCK-WITH-A-LONGER-NAME,B,3.0\n25,FIRM-NUMBER-9,S1,S,4.0\n26,F2,S1,B,5.0\n",
}

FALLBACK_TAPES = {
    "quoted ids with commas": (
        HEADER + '1,"F,1",S1,B,1.0\n2,F2,"S ""1""",S,2.0\n',
        [[1, 2], ["F,1", "F2"], ["S1", 'S "1"'], [1, -1], [1.0, 2.0]],
    ),
    "quoted ids without commas": (
        HEADER + '1,"F1",S1,B,1.0\n',
        [[1], ["F1"], ["S1"], [1], [1.0]],
    ),
    "NUL in an id": (HEADER + "1,F\x001,S1,B,1.0\n", [[1], ["F\x001"], ["S1"], [1], [1.0]]),
    "CRLF line ends": (
        HEADER.replace("\n", "\r\n") + "1,F1,S1,B,1.0\r\n2,F2,S1,S,2.0\r\n",
        [[1, 2], ["F1", "F2"], ["S1", "S1"], [1, -1], [1.0, 2.0]],
    ),
    "no final newline": (
        HEADER + "1,F1,S1,B,1.0\n2,F2,S1,S,2.0",
        [[1, 2], ["F1", "F2"], ["S1", "S1"], [1, -1], [1.0, 2.0]],
    ),
    "header only": (HEADER, [[], [], [], [], []]),
    "spaces the row loop strips": (
        HEADER + " 1,F1,S1,B, 1.0\n1_000,F2,S1,S,2_0.5\n",
        [[1, 1000], ["F1", "F2"], ["S1", "S1"], [1, -1], [1.0, 20.5]],
    ),
    "0x1C in an id": (HEADER + "1,F\x1c1,S1,B,1.0\n", [[1], ["F\x1c1"], ["S1"], [1], [1.0]]),
}


@pytest.mark.parametrize("name", sorted(FAST_TAPES))
def test_block_parse_matches_row_loop(tmp_path, monkeypatch, name):
    path = tmp_path / "tape.csv"
    path.write_text(HEADER + FAST_TAPES[name], encoding="utf-8")
    loop = TradeTable._parse_rows(path)
    _assert_same_table(trades._parse_plain(path), loop)
    # The same tape cut into many small blocks interns ids across blocks.
    monkeypatch.setattr(trades, "_READ_BYTES", 64)
    _assert_same_table(trades._parse_plain(path), loop)
    _assert_same_table(TradeTable.from_csv(path), loop)


@pytest.mark.parametrize("name", sorted(FALLBACK_TAPES))
def test_other_dialects_take_the_row_loop(tmp_path, name):
    text, columns = FALLBACK_TAPES[name]
    path = tmp_path / "tape.csv"
    path.write_bytes(text.encode("utf-8"))
    assert trades._parse_plain(path) is None
    table = TradeTable.from_csv(path)
    assert [list(c) for c in _columns(table)] == columns
    _assert_same_table(table, TradeTable._parse_rows(path))


# Each bad cell lands on one line of a later block, past the first _READ_BYTES.
@pytest.mark.parametrize(
    "row,message",
    [
        ("7,F1,S1,B,inf", "value must be finite, got inf"),
        ("7,F1,S1,B,1e400", "value must be finite, got 1e400"),
        ("7,F1,S1,B,1e5e5", "bad value '1e5e5'"),
        ("7,F1,S1,B,-3", "value must be strictly positive, got -3"),
        ("7,F1,S1,B,0.0", "value must be strictly positive, got 0.0"),
        ("7,F1,S1,Q,1.0", "side must be B or S, got 'Q'"),
        ("-7,F1,S1,B,1.0", "negative timestamp -7"),
        ("7x,F1,S1,B,1.0", "bad timestamp '7x'"),
        ("7,F1,S1,B", "expected 5 fields, got 4"),
        ("7,F1,S1,B,1.0,", "expected 5 fields, got 6"),
        ("7,F\r1,S1,B,1.0", "expected 5 fields, got 2"),
        ("", "expected 5 fields, got 0"),
        ("300000000000,F1,S1,B,1.0", "timestamp 300000000000 is past 9999-12-31"),
        ("99999999999999999999,F1,S1,B,1.0", "timestamp 99999999999999999999 is past 9999-12-31"),
        ("7,F1,S1,B,1.0\x1c", "bad value '1.0\\x1c'"),
        ("7,F1,S1,B,\xa01.0", "not valid UTF-8 (byte 0xa0 at column 11)"),
    ],
)
def test_bad_row_in_a_later_block_names_its_line(tmp_path, row, message):
    lines = _tape_lines(40_000)
    bad_line = 35_000
    lines[bad_line - 2] = row + "\n"
    path = tmp_path / "tape.csv"
    # Latin-1 writes each character as one byte: \xa0 stays a lone byte.
    path.write_text(HEADER + "".join(lines), encoding="latin-1")
    assert sum(map(len, lines[: bad_line - 2])) > trades._READ_BYTES
    with pytest.raises(DataError, match=re.escape(f"{path}: line {bad_line}: {message}")):
        TradeTable.from_csv(path)


@pytest.mark.parametrize("row", ['7,F1,S1,B,"1.0"', "7,F1,S1,B,0x1", "7,F1,S1,B,1e5e5"])
def test_fast_path_fault_in_the_last_block_takes_the_row_loop(tmp_path, monkeypatch, row):
    # Every block but the last has filled its rows of the columns when the
    # last one fails a check; the row loop must parse the whole tape again.
    lines = _tape_lines(3_000)
    lines[-1] = row + "\n"
    path = tmp_path / "tape.csv"
    path.write_text(HEADER + "".join(lines))
    monkeypatch.setattr(trades, "_READ_BYTES", 4096)
    assert len(lines[-1]) < trades._READ_BYTES < sum(map(len, lines)) // 4
    assert trades._parse_plain(path) is None
    if row.endswith('"1.0"'):
        table = TradeTable.from_csv(path)
        _assert_same_table(table, TradeTable._parse_rows(path))
        assert table.values[-1] == 1.0 and len(table) == len(lines)
    else:
        with pytest.raises(DataError, match=f"line {len(lines) + 1}: bad value"):
            TradeTable.from_csv(path)


# Fuzzed tapes are built from these fields, each drawn from its odd cells
# one time in ten, and these bytes, put before, inside or after a field one
# time in ten: the cells and bytes that numpy's tokenizer and csv.reader
# with int() and float() might read apart.
FUZZ_FIELDS = {
    "timestamp": (
        [b"0", b"7", b"1577836800", b"253402300799", b"123456789012345678", b"0000000000000000042"],
        [b"", b"-1", b"253402300800", b"1234567890123456789", b"12345678901234567890"],
    ),
    "id": (
        [b"F1", b"S1", b"FIRM-008", b"FIRM-0009", "Société".encode()],
        [b"", b"FIRM-WITH-20-BYTES-X"],
    ),
    "side": ([b"B", b"S"], [b"", b"b", b"BB"]),
    "value": (
        [b"1.0", b"2.5", b".5", b"1e-05", b"5e-324"],
        [b"0", b"-3", b"nan", b"inf", b"1e400", b"0x1"],
    ),
}
FUZZ_BYTES = [
    b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x0c", b"\t", b" ", b"\x85", b"\xa0", b"\xc2\xa0", b"+", b"_",
]


def _fuzz_tape(rng):
    def cell(kind):
        good, odd = FUZZ_FIELDS[kind]
        pool = odd if rng.random() < 0.1 else good
        text = pool[rng.integers(len(pool))]
        if rng.random() < 0.1:
            at = rng.integers(len(text) + 1)
            text = text[:at] + FUZZ_BYTES[rng.integers(len(FUZZ_BYTES))] + text[at:]
        return text

    lines = []
    for _ in range(rng.integers(1, 5)):
        blank = rng.random() < 0.05
        lines.append(b"\n" if blank else b",".join(map(cell, ("timestamp", "id", "id", "side", "value"))) + b"\n")
    return b"".join(lines)


def _outcome(table_or_error):
    """A table's column bytes and ids, or a DataError's message, to compare parses by."""
    if isinstance(table_or_error, DataError):
        return str(table_or_error)
    return [getattr(table_or_error, name).tobytes() for name in COLUMNS], table_or_error.firms, table_or_error.stocks


def _parsed(parse, path):
    try:
        return parse(path)
    except DataError as exc:
        return exc


def test_fast_path_agrees_with_the_row_loop_on_fuzzed_tapes(tmp_path, monkeypatch):
    # The fast path declines, as a whole tape and block by block, whatever
    # it would read otherwise than the row loop.
    rng = np.random.default_rng(21)
    path = tmp_path / "tape.csv"
    accepted = 0
    for i in range(500):
        body = _fuzz_tape(rng)
        path.write_bytes(HEADER.encode() + body)
        monkeypatch.setattr(trades, "_READ_BYTES", 64 if i % 2 else 1 << 18)
        loop = _outcome(_parsed(TradeTable._parse_rows, path))
        assert _outcome(_parsed(TradeTable.from_csv, path)) == loop, body
        plain = trades._parse_plain(path)
        assert plain is None or _outcome(plain) == loop, body
        firms, stocks = trades._Interner(), trades._Interner()
        try:
            block = trades._parse_block(body, 8, firms, stocks)
        except ValueError:
            block = None
        if block is not None:
            assert _outcome(TradeTable(*block[0], firms.ids, stocks.ids)) == loop, body
        accepted += plain is not None
    # Enough tapes take the fast path for its agreement to mean something.
    assert accepted >= 50


def test_block_parse_memory_is_the_columns_and_a_few_blocks(tmp_path, monkeypatch):
    # The columns are allocated once and each block parses into its rows of
    # them, so the peak is the columns plus a bounded multiple of one block
    # (its temporaries come to ~10 times its size), however long the tape.
    monkeypatch.setattr(trades, "_READ_BYTES", 1 << 16)
    path = tmp_path / "tape.csv"
    path.write_text(HEADER + "".join(_tape_lines(120_000)))
    tracemalloc.start()
    try:
        table = TradeTable.from_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(getattr(table, name).nbytes for name in COLUMNS)
    assert columns > 2_500_000
    assert peak < columns + 24 * trades._READ_BYTES


def test_non_utf8_tape_names_file_and_line(tmp_path):
    path = tmp_path / "tape.csv"
    path.write_bytes(HEADER.encode() + b"1,F1,S1,B,1.0\n1,F\xff1,S1,B,1.0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 3: not valid UTF-8")):
        TradeTable.from_csv(path)


def _csv_writer_oracle(table, path):
    """The tape writer before block-wise formatting: csv.writer over whole columns."""
    side_of = {1: "B", -1: "S"}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(trades.TRADE_CSV_HEADER)
        writer.writerows(
            zip(
                table.timestamps.tolist(),
                [table.firms[c] for c in table.firm_codes.tolist()],
                [table.stocks[c] for c in table.stock_codes.tolist()],
                (side_of[s] for s in table.signs.tolist()),
                (repr(v) for v in table.values.tolist()),
            )
        )


QUOTED_ROWS = [
    (1, "F,1", "SAN", "B", 1.5),
    (2, 'say "hi"', "line\nbreak", "S", 2.0),
    (3, "", " lead", "B", 1e-300),
    (4, "Société", "tab\tid", "S", 5e-324),
    (5, "F,1", "'single'", "B", 1.7976931348623157e308),
]


# Whole cents below 1e13 are formatted from their cent count, everything
# else by repr: each side of that line, values repr prints in e-notation,
# and a double above 1e13 whose cent count, 58926249231888072, divides back
# to it while repr prints it as ...880.8.
EDGE_VALUES = [
    0.01, 0.1, 1.0, 0.5, 12.3, 99.99, 100.0, 100.05, 123456.7,
    9999999999999.99, 1e13, 10000000000000.01, 1.5e13, 589262492318880.8, 1e16, 1e22,
    0.125, 0.1 + 0.2, 0.005, 1e-4, 5e-324, 1e307, 1.7976931348623157e308,
]


@pytest.mark.parametrize("name", ["synthetic", "quoted ids", "cents and edge values"])
def test_to_csv_matches_csv_writer_oracle(tmp_path, monkeypatch, name):
    if name == "synthetic":
        table, _ = generate(small_preset())
    elif name == "quoted ids":
        table = make_table(QUOTED_ROWS)
    else:
        table = make_table([(t, "F1", "S1", "BS"[t % 2], v) for t, v in enumerate(EDGE_VALUES * 50)])
    monkeypatch.setattr(trades, "_WRITE_ROWS", 1000)
    path, oracle = tmp_path / "tape.csv", tmp_path / "oracle.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table.to_csv(path)
    _csv_writer_oracle(table, oracle)
    assert path.read_bytes() == oracle.read_bytes()
    assert _columns(TradeTable.from_csv(path)) == _columns(table)


def test_to_csv_refuses_a_negative_timestamp(tmp_path):
    # from_csv would reject the row; the writer formats non-negative digits only.
    with pytest.raises(ValueError, match="negative timestamp"):
        make_table([(-5, "F1", "S1", "B", 1.0)]).to_csv(tmp_path / "tape.csv")


def test_iter_series_signs_and_grouping():
    table = make_table(ROWS)
    series = {(s.firm_id, s.stock_id): s for s in table.iter_series()}
    assert set(series) == {("F1", "SAN"), ("F2", "SAN"), ("F1", "BBVA")}
    f1 = series[("F1", "SAN")]
    assert f1.timestamps.tolist() == [100, 200]
    assert f1.signed_values.tolist() == [50.0, -20.0]
    assert series[("F2", "SAN")].signed_values.tolist() == [75.5]


def test_iter_series_tie_preserves_input_order():
    rows = [
        (100, "F1", "SAN", "B", 1.0),
        (100, "F1", "SAN", "S", 2.0),
        (100, "F1", "SAN", "B", 3.0),
    ]
    (series,) = make_table(rows).iter_series()
    assert series.signed_values.tolist() == [1.0, -2.0, 3.0]


def test_iter_series_firm_filter():
    table = make_table(ROWS)
    only = list(table.iter_series({"F2"}))
    assert [(s.firm_id, s.stock_id) for s in only] == [("F2", "SAN")]


def test_series_columns_of_an_empty_table():
    columns = make_table([]).series_columns()
    assert columns.pairs == [] and columns.offsets.tolist() == [0]
    assert list(make_table(ROWS).iter_series(set())) == []


def test_series_arrays_read_only():
    (series,) = make_table(ROWS[:2]).iter_series({"F1"})
    with pytest.raises(ValueError):
        series.signed_values[0] = 0.0


def _active_rows(firm, year_start, n_days, trades_per_day, stock="SAN"):
    rows = []
    for day in range(n_days):
        for j in range(trades_per_day):
            rows.append((year_start + day * 86400 + j, firm, stock, "B", 1.0))
    return rows


def test_firm_activity_counts_days_and_trades():
    start_2020 = 1577836800  # 2020-01-01 UTC
    rows = _active_rows("F1", start_2020, 3, 4)
    activity = make_table(rows).activity()
    assert activity["F1"].trades_per_year == {2020: 12}
    assert activity["F1"].active_days_per_year == {2020: 3}


def _activity_oracle(rows):
    """Trades and distinct active days per firm and UTC year, by a loop over trades."""
    trades, days = {}, {}
    for t, firm, *_ in rows:
        year = datetime.fromtimestamp(t, timezone.utc).year
        trades.setdefault(firm, {}).setdefault(year, 0)
        trades[firm][year] += 1
        days.setdefault(firm, {}).setdefault(year, set()).add(t // 86400)
    return trades, {firm: {y: len(d) for y, d in by_year.items()} for firm, by_year in days.items()}


def _assert_activity_matches_the_loop():
    # Unsorted trades of firms first seen out of name order, over three
    # years, and a firm active in 2020 only.
    rng = np.random.default_rng(7)
    n = 2000
    timestamps = rng.integers(1546300800, 1609459200 + 86400 * 40, n)  # 2019-01-01 to early 2021
    firm_ids = [f"F{code}" for code in rng.integers(0, 12, n)]
    rows = [(int(t), f, "SAN", "B", 1.0) for t, f in zip(timestamps, firm_ids)]
    rows[::97] = [(1577836800 + 86400 * (i % 300) + i, "ONLY2020", "SAN", "S", 1.0) for i in range(len(rows[::97]))]
    counts, days = _activity_oracle(rows)
    assert set(counts["ONLY2020"]) == {2020} and len(counts) == 13
    activity = make_table(rows).activity()
    assert set(activity) == set(counts)
    for firm in counts:
        assert activity[firm].trades_per_year == counts[firm]
        assert activity[firm].active_days_per_year == days[firm]


def test_firm_activity_matches_a_loop_over_trades():
    _assert_activity_matches_the_loop()


def test_firm_activity_in_blocks_of_seven_rows_matches_the_loop(monkeypatch):
    # Each block's (firm, day) counts are merged into those of the blocks before.
    monkeypatch.setattr(trades, "_ACTIVITY_ROWS", 7)
    _assert_activity_matches_the_loop()


def _activity_peak(n):
    """Traced peak of activity() on a time-sorted n-trade tape of 20 firms over 400 days."""
    rng = np.random.default_rng(n)
    timestamps = np.sort(rng.integers(1577836800, 1577836800 + 400 * 86400, n))
    table = TradeTable(
        timestamps, rng.integers(0, 20, n).astype(np.int32), np.zeros(n, dtype=np.int32),
        np.ones(n, dtype=np.int8), np.ones(n), [f"F{i:02d}" for i in range(20)], ["SAN"],
    )
    tracemalloc.start()
    try:
        table.activity()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_activity_memory_does_not_grow_with_the_tape():
    # Four times the trades over the same firms and days: the same 8,000
    # (firm, day) counts, and blocks of the same size.
    short, long = _activity_peak(1 << 17), _activity_peak(1 << 19)
    assert long < short + (1 << 18)


def test_filter_active_firms_strict():
    start_2020 = 1577836800
    rows = _active_rows("BIG", start_2020, 250, 5) + _active_rows("SMALL", start_2020, 50, 5)
    qualified = filter_active_firms(make_table(rows), min_trades_per_year=1000, min_active_days=200)
    assert qualified == {"BIG"}


def test_filter_active_firms_prorated_scales_partial_years():
    # Dataset spans only the first quarter of 2020; firm is active almost daily.
    start_2020 = 1577836800
    rows = _active_rows("F1", start_2020, 85, 4)
    strict = filter_active_firms(make_table(rows), 1000, 200, mode="strict")
    prorated = filter_active_firms(make_table(rows), 1000, 200, mode="prorated")
    assert strict == set()
    assert prorated == {"F1"}


def test_filter_active_firms_requires_every_dataset_year():
    start_2020 = 1577836800
    start_2021 = 1609459200
    rows = _active_rows("F1", start_2020, 250, 5) + _active_rows("F2", start_2021, 250, 5)
    # Each firm is idle in one of the two dataset years, so neither qualifies.
    assert filter_active_firms(make_table(rows), 1000, 200) == set()


def test_filter_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        filter_active_firms(make_table(ROWS), mode="loose")


def test_span_and_empty_table():
    table = make_table(ROWS)
    assert table.span() == (100, 300)
    empty = make_table([])
    assert len(empty) == 0
    assert empty.activity() == {}
    with pytest.raises(DataError):
        empty.span()
