"""Trade-CSV parsing, activity filtering, and signed-series construction."""

import re

import pytest

from conftest import make_table
from patchscale.errors import DataError
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
