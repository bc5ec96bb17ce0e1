"""Staged pipeline artifacts, re-runnability, determinism, and failure handling."""

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import write_tape
from patchscale import allometry, patches, pipeline
from patchscale.errors import DataError
from patchscale.pipeline import (
    FAILURE_MARKER,
    STAGE_SETTINGS,
    RunConfig,
    analyze_stock,
    config_from_dict,
    emit_plot_data,
    parse_k_policy,
    read_patch_rows,
    run_analyze,
    run_ingest,
    run_pipeline,
    run_segment,
    run_synth,
)
from patchscale.synth import SynthConfig, small_preset
from patchscale.trades import TradeTable, filter_active_firms

EXPECTED_FILES = [
    "tape.csv",
    "ground_truth.json",
    "activity.json",
    "segmentations.json",
    "patches.csv",
    "analysis/stocks.json",
    "analysis/SYN/tails.json",
    "analysis/SYN/allometry.json",
    "analysis/SYN/lognormality.json",
    "analysis/SYN/lognormality.csv",
    "analysis/SYN/per_firm_exponents.csv",
    "analysis/SYN/summary.json",
    "plots/SYN/ccdf_T.csv",
    "plots/SYN/ccdf_N_m.csv",
    "plots/SYN/ccdf_V_m.csv",
    "plots/SYN/scatter_g1_N_m_vs_V_m.csv",
    "plots/SYN/axis_g1_N_m_vs_V_m.csv",
    "plots/SYN/scatter_g2_T_vs_V_m.csv",
    "plots/SYN/axis_g2_T_vs_V_m.csv",
    "plots/SYN/scatter_g3_N_m_vs_T.csv",
    "plots/SYN/axis_g3_N_m_vs_T.csv",
    "plots/SYN/hist_g1.csv",
    "plots/SYN/hist_g2.csv",
    "plots/SYN/hist_g3.csv",
    "report.json",
    "report_tails.csv",
    "report_allometry.csv",
    "report_lognormality.csv",
    "report_counts.csv",
]


def test_all_artifacts_written(small_run):
    config, _ = small_run
    out = config.out()
    for name in EXPECTED_FILES:
        assert (out / name).is_file(), f"missing {name}"
    assert not (out / FAILURE_MARKER).exists()


def test_report_shape(small_run):
    config, report = small_run
    on_disk = json.loads((config.out() / "report.json").read_text())
    assert on_disk == report
    assert report["schema_version"] == 1
    assert report["config"]["source"] == "synth"
    assert report["config"]["seed"] == 2001
    assert report["config"]["activity_mode"] == "strict"
    assert set(report["stocks"]) == {"SYN"}
    section = report["stocks"]["SYN"]
    for key in ("counts", "tails", "allometry", "lognormality", "per_firm_exponents"):
        assert key in section


def test_stage_settings_cover_every_run_setting(small_run):
    # Every setting but the inputs is recorded by one stage, checked by the
    # later ones and echoed by the report.
    config, report = small_run
    inputs = {"output_dir", "tape", "synth"}
    recorded = {name for names in STAGE_SETTINGS.values() for name in names}
    assert recorded | inputs == {field.name for field in fields(RunConfig)}
    assert not recorded & inputs
    assert set(report["config"]) == recorded | {"source"}
    for artifact, names in STAGE_SETTINGS.items():
        on_disk = json.loads((config.out() / artifact).read_text())
        assert {name: on_disk[name] for name in names} == {name: getattr(config, name) for name in names}


def test_counts_reconcile(small_run):
    _, report = small_run
    counts = report["stocks"]["SYN"]["counts"]
    assert counts["patches_total"] == (
        counts["patches_below_min_trades"]
        + counts["patches_non_directional"]
        + counts["patches_directional"]
    )
    assert 0.0 <= counts["non_directional_share"] <= 1.0
    totals = report["totals"]
    assert totals["patches_total"] == counts["patches_total"]
    assert totals["series"] > 0


def test_patches_csv_has_no_negative_zero(small_run):
    config, _ = small_run
    with open(config.out() / "patches.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert any(row[-1] == "0.0" for row in rows[1:])
    assert not [row for row in rows if "-0.0" in row]


def test_patch_rows_tile_each_series(small_run):
    config, _ = small_run
    segments = json.loads((config.out() / "segmentations.json").read_text())
    boundaries = {
        (entry["firm_id"], entry["stock_id"]): entry["boundaries"]
        for entry in segments["series"]
    }
    rows = read_patch_rows(config.out() / "patches.csv")
    by_series = {}
    for row in rows:
        by_series.setdefault((row.firm_id, row.stock_id), []).append(row)
    assert set(by_series) == set(boundaries)
    for key, series_rows in by_series.items():
        spans = [(row.start, row.end) for row in series_rows]
        bounds = boundaries[key]
        assert spans == list(zip(bounds, bounds[1:]))


def test_segmentation_counts_agree_with_boundaries(small_run):
    config, _ = small_run
    segments = json.loads((config.out() / "segmentations.json").read_text())
    counts = segments["counts"]
    bounds = [entry["boundaries"] for entry in segments["series"]]
    assert counts["cuts_accepted"] == sum(len(b) - 2 for b in bounds) > 0
    # A window is scanned once per accepted cut and once per final segment
    # of at least 4 rows, as perfbench/score.py derives it.
    final = sum(1 for b in bounds for lo, hi in zip(b, b[1:]) if hi - lo >= 4)
    assert counts["windows_scanned"] == counts["cuts_accepted"] + final
    rejected = counts["rejected_threshold"] + counts["rejected_neighbour"]
    assert counts["cuts_accepted"] + rejected == counts["windows_scanned"]
    routed = counts["windows_monte_carlo"] + counts["windows_closed_form"]
    assert routed == counts["windows_scanned"]
    assert counts["windows_monte_carlo"] > 0 and counts["rejected_neighbour"] > 0
    recorded = {key: segments[key] for key in ("threshold", "significance_mode", "mc_trials", "theta", "seed")}
    assert recorded == {
        "threshold": config.threshold,
        "significance_mode": config.significance_mode,
        "mc_trials": config.mc_trials,
        "theta": config.theta,
        "seed": config.seed,
    }


def test_directional_rows_have_full_variables(small_run):
    config, _ = small_run
    for row in read_patch_rows(config.out() / "patches.csv"):
        if row.direction in ("buy", "sell"):
            assert row.N_m is not None and row.N_m > 0
            assert row.V_m is not None and row.V_m > 0
        else:
            assert row.N_m is None and row.V_m is None
        assert row.T >= 0
        assert row.V_b >= 0 and row.V_s >= 0


def test_ccdf_plot_monotone(small_run):
    config, _ = small_run
    with open(config.out() / "plots/SYN/ccdf_V_m.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    ps = [float(row["p"]) for row in rows]
    xs = [float(row["x"]) for row in rows]
    assert ps[0] == 1.0
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert xs == sorted(xs)


def test_axis_passes_through_scatter_centroid(small_run):
    config, _ = small_run
    plots = config.out() / "plots/SYN"
    with open(plots / "scatter_g2_T_vs_V_m.csv", newline="") as handle:
        points = [(float(r["log_x"]), float(r["log_y"])) for r in csv.DictReader(handle)]
    with open(plots / "axis_g2_T_vs_V_m.csv", newline="") as handle:
        axis = [(float(r["log_x"]), float(r["log_y"])) for r in csv.DictReader(handle)]
    assert len(axis) == 3
    cx = float(np.mean([p[0] for p in points]))
    cy = float(np.mean([p[1] for p in points]))
    assert axis[1][0] == pytest.approx(cx, abs=1e-9)
    assert axis[1][1] == pytest.approx(cy, abs=1e-9)
    # The three rows are collinear with the fitted slope.
    slope = (axis[2][1] - axis[0][1]) / (axis[2][0] - axis[0][0])
    mid_slope = (axis[1][1] - axis[0][1]) / (axis[1][0] - axis[0][0])
    assert mid_slope == pytest.approx(slope, rel=1e-9)


def test_exponent_histograms_cover_all_firms(small_run):
    config, _ = small_run
    with open(config.out() / "analysis/SYN/per_firm_exponents.csv", newline="") as handle:
        n_firms = len(list(csv.DictReader(handle)))
    with open(config.out() / "plots/SYN/hist_g2.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 20
    assert sum(int(row["count"]) for row in rows) == n_firms


def test_lognormality_csv_schema(small_run):
    config, _ = small_run
    with open(config.out() / "analysis/SYN/lognormality.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == [
            "firm_id",
            "variable",
            "n",
            "jb_stat",
            "critical_value",
            "reject",
        ]
        rows = list(reader)
    assert rows
    assert {row["reject"] for row in rows} <= {"True", "False"}
    assert {row["variable"] for row in rows} <= {"T", "N_m", "V_m"}


def test_analyze_rerun_is_byte_stable(small_run):
    config, _ = small_run
    summary_path = config.out() / "analysis/SYN/summary.json"
    before = summary_path.read_bytes()
    run_analyze(config)
    assert summary_path.read_bytes() == before


def test_plot_rerun_is_byte_stable(small_run):
    config, _ = small_run
    scatter = config.out() / "plots/SYN/scatter_g1_N_m_vs_V_m.csv"
    before = scatter.read_bytes()
    emit_plot_data(config)
    assert scatter.read_bytes() == before


# One firm buys 30 trades, then sells 30: two directional patches.
_ONE_FLIP = [(100 + i, "F1", "SAN", "B" if i < 30 else "S", 10.0) for i in range(60)]


def test_failure_leaves_stage_marker(tmp_path):
    tape = tmp_path / "tape.csv"
    write_tape([(100, "F1", "SAN", "B", 50.0)], tape)
    config = RunConfig(
        output_dir=str(tmp_path / "out"),
        tape=str(tape),
        min_trades_per_year=0,
        min_active_days=0,
        bootstrap_samples=400,
    )
    tape.unlink()
    with pytest.raises(DataError):
        run_pipeline(config)
    marker = json.loads((config.out() / FAILURE_MARKER).read_text())
    assert marker["stage"] == "ingest"
    assert marker["error"]

    # Restoring the input clears the marker on the next successful run.
    write_tape(_ONE_FLIP, tape)
    run_pipeline(config)
    assert not (config.out() / FAILURE_MARKER).exists()


def test_insufficient_data_markers_instead_of_crash(tmp_path):
    # Two directional patches are far too few for tail or per-firm analysis;
    # every statistics section must degrade to an explicit marker.
    tape = tmp_path / "tape.csv"
    write_tape(_ONE_FLIP, tape)
    config = RunConfig(
        output_dir=str(tmp_path / "out"),
        tape=str(tape),
        min_trades_per_year=0,
        min_active_days=0,
        bootstrap_samples=400,
    )
    report = run_pipeline(config)
    section = report["stocks"]["SAN"]
    for variable in ("T", "N_m", "V_m"):
        assert section["tails"][variable]["status"] == "insufficient data"
        assert section["lognormality"]["per_firm"][variable]["status"] == "insufficient data"


def test_missing_artifact_points_to_producing_stage(tmp_path):
    config = RunConfig(output_dir=str(tmp_path / "empty"), bootstrap_samples=400)
    with pytest.raises(DataError, match="run the .* stage first"):
        run_analyze(config)


def test_segment_only_covers_qualified_firms(tmp_path):
    config = RunConfig(
        output_dir=str(tmp_path / "out"),
        synth=SynthConfig(n_firms=20, packages_per_firm_mean=6.0, seed=11),
        seed=11,
        min_trades_per_year=300,
        min_active_days=0,
        bootstrap_samples=400,
    )
    run_synth(config)
    table, qualified = run_ingest(config)
    assert 0 < len(qualified) < 20
    run_segment(config, table)
    segments = json.loads((config.out() / "segmentations.json").read_text())
    assert {entry["firm_id"] for entry in segments["series"]} == qualified


# Codes are first-seen (F2, F10; SAN, BBVA), names sort the other way, BBVA is
# first seen under the later firm, F10/SAN has ties at 100, and F3 trades once.
ONE_SORT_ROWS = [
    (500, "F2", "SAN", "B", 1.0),
    (100, "F10", "SAN", "S", 2.0),
    (100, "F10", "SAN", "B", 3.0),
    (50, "F2", "SAN", "S", 4.0),
    (300, "F10", "BBVA", "B", 5.0),
    (200, "F3", "SAN", "B", 7.0),
    (300, "F2", "BBVA", "S", 6.0),
    (100, "F10", "SAN", "B", 8.0),
]


def test_ingest_saves_the_series_iter_series_yields(tmp_path):
    tape = tmp_path / "tape.csv"
    write_tape(ONE_SORT_ROWS, tape)
    config = RunConfig(
        output_dir=str(tmp_path / "out"), tape=str(tape), min_trades_per_year=2, min_active_days=0
    )
    _, qualified = run_ingest(config)
    assert qualified == {"F2", "F10"}
    expected = list(TradeTable.from_csv(tape).iter_series(qualified))
    directory = config.out() / "ingested"
    offsets = np.load(directory / "offsets.npy")
    timestamps = np.load(directory / "timestamps.npy")
    signed_values = np.load(directory / "signed_values.npy")
    pairs = json.loads((directory / "series.json").read_text())
    assert (offsets.dtype, timestamps.dtype, signed_values.dtype) == (np.int64, np.int64, np.float64)
    assert [[s.firm_id, s.stock_id] for s in expected] == pairs
    assert pairs == [["F10", "BBVA"], ["F10", "SAN"], ["F2", "BBVA"], ["F2", "SAN"]]
    assert offsets.tolist() == [0, 1, 4, 5, 7] and len(timestamps) == len(signed_values) == 7
    for series, lo, hi in zip(expected, offsets[:-1], offsets[1:]):
        assert series.timestamps.tolist() == timestamps[lo:hi].tolist()
        assert series.signed_values.tolist() == signed_values[lo:hi].tolist()
    assert expected[1].signed_values.tolist() == [-2.0, 3.0, 8.0]
    assert expected[3].signed_values.tolist() == [-4.0, 1.0]
    activity = json.loads((config.out() / "activity.json").read_text())
    loaded = list(pipeline._load_ingested(config, activity))
    assert [(s.firm_id, s.stock_id) for s in loaded] == [(s.firm_id, s.stock_id) for s in expected]
    for series in loaded:
        assert not series.timestamps.flags.writeable
        assert not series.signed_values.flags.writeable


def test_ingest_reads_activity_once(tmp_path, monkeypatch):
    config = RunConfig(
        output_dir=str(tmp_path / "out"),
        synth=SynthConfig(n_firms=20, packages_per_firm_mean=6.0, seed=11),
        seed=11,
        min_trades_per_year=300,
        min_active_days=40,
        activity_mode="prorated",
        bootstrap_samples=400,
    )
    table, _ = run_synth(config)
    calls = []
    activity = TradeTable.activity
    monkeypatch.setattr(TradeTable, "activity", lambda self: calls.append(1) or activity(self))
    _, qualified = run_ingest(config, table)
    assert len(calls) == 1
    assert 0 < len(qualified) < 20
    assert qualified == filter_active_firms(
        table, min_trades_per_year=300, min_active_days=40, mode="prorated"
    )


def test_analyze_draws_one_resample_set_per_stock(small_run, monkeypatch):
    config, _ = small_run
    calls = []
    resample = allometry._resampled_covariances
    monkeypatch.setattr(allometry, "_resampled_covariances", lambda *args: calls.append(1) or resample(*args))
    rows = read_patch_rows(config.out() / "patches.csv")
    fits = analyze_stock(rows, config, bootstrap_seed=5)["allometry"]
    assert len(calls) == 1
    # The shared draw is the one each fit makes alone.
    points, _ = allometry.log_points(patches.select_directional(rows, config.min_patch_trades))
    for mode, fit in (("trivariate", allometry.trivariate_fit), ("bivariate", allometry.bivariate_fit)):
        alone = fit(points, config.bootstrap_samples, 5)
        assert fits[mode]["ci95s"] == {name: list(ci) for name, ci in alone.ci95s.items()}


def test_parse_k_policy():
    assert parse_k_policy("auto") == ("auto", None)
    assert parse_k_policy("fraction:0.2") == ("fraction", 0.2)
    assert parse_k_policy("fixed:500") == ("fixed", 500)
    for bad in ("fraction:2", "fixed:0", "knee", "fraction:x"):
        with pytest.raises(ValueError):
            parse_k_policy(bad)


def test_run_config_validation(tmp_path):
    tape = tmp_path / "tape.csv"
    write_tape([(100, "F1", "SAN", "B", 50.0)], tape)
    with pytest.raises(ValueError, match="mutually exclusive"):
        RunConfig(output_dir="x", tape=str(tape), synth=small_preset())
    with pytest.raises(ValueError, match="threshold"):
        RunConfig(output_dir="x", threshold=1.5)
    with pytest.raises(ValueError, match="theta"):
        RunConfig(output_dir="x", theta=0.4)
    with pytest.raises(ValueError, match="bootstrap"):
        RunConfig(output_dir="x", bootstrap_samples=50)
    with pytest.raises(ValueError, match="not found"):
        RunConfig(output_dir="x", tape=str(tmp_path / "absent.csv"))


def test_config_from_dict_builds_nested_synth():
    config = config_from_dict(
        {
            "output_dir": "out",
            "synth": {"n_firms": 10, "seed": 3},
            "threshold": 0.95,
        }
    )
    assert isinstance(config.synth, SynthConfig)
    assert config.synth.n_firms == 10
    assert config.threshold == 0.95
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"output_dir": "out", "ratio": 1.0})
