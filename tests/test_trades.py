"""Trade-CSV parsing, activity filtering, and signed-series construction."""

import csv
import re
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
    "000000000000000042,F2,S1,B,3.0\n999999999999999999,F2,S1,B,4.0\n",
    "exponent values": "1,F1,S1,B,1e-05\n2,F1,S1,S,1e+16\n3,F1,S1,B,2.5E-3\n4,F1,S1,B,.5\n"
    "5,F1,S1,B,7.\n6,F1,S1,B,+3\n7,F1,S1,B,1e308\n",
    "17-digit reprs": "1,F1,S1,B,0.30000000000000004\n2,F1,S1,S,2455.3849750134502\n"
    "3,F1,S1,B,1.7976931348623157e+308\n4,F1,S1,B,9007199254740993\n",
    "subnormals": "1,F1,S1,B,5e-324\n2,F1,S1,S,2.225073858507201e-308\n"
    "3,F1,S1,B,4.9406564584124654e-324\n",
    "long and unicode ids": "1,firm-with-a-long-name,Société Générale,B,1.0\n2,F1,S1,S,2.0\n"
    "3,firm-with-a-long-name,S1,B,3.0\n4,,S1,B,4.0\n5,F 1 ,Société Générale,S,5.0\n",
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
    "19-digit timestamp": (HEADER + "0000000000000000001,F1,S1,B,1.0\n", [[1], ["F1"], ["S1"], [1], [1.0]]),
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


# Each bad cell lands on one line of the second 1 MiB block.
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
    ],
)
def test_bad_row_in_a_later_block_names_its_line(tmp_path, row, message):
    lines = _tape_lines(40_000)
    bad_line = 35_000
    lines[bad_line - 2] = row + "\n"
    path = tmp_path / "tape.csv"
    path.write_text(HEADER + "".join(lines))
    assert sum(map(len, lines[: bad_line - 2])) > trades._READ_BYTES
    with pytest.raises(DataError, match=re.escape(f"{path}: line {bad_line}: {message}")):
        TradeTable.from_csv(path)


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


def test_firm_activity_matches_a_loop_over_trades():
    # Unsorted trades of firms first seen out of name order, over three years.
    rng = np.random.default_rng(7)
    n = 2000
    timestamps = rng.integers(1546300800, 1609459200 + 86400 * 40, n)  # 2019-01-01 to early 2021
    firm_ids = [f"F{code}" for code in rng.integers(0, 12, n)]
    table = make_table([(int(t), f, "SAN", "B", 1.0) for t, f in zip(timestamps, firm_ids)])
    trades, days = {}, {}
    for t, firm in zip(timestamps.tolist(), firm_ids):
        year = datetime.fromtimestamp(t, timezone.utc).year
        trades.setdefault(firm, {}).setdefault(year, 0)
        trades[firm][year] += 1
        days.setdefault(firm, {}).setdefault(year, set()).add(t // 86400)
    activity = table.activity()
    assert set(activity) == set(trades)
    for firm, counts in trades.items():
        assert activity[firm].trades_per_year == counts
        assert activity[firm].active_days_per_year == {y: len(d) for y, d in days[firm].items()}


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
