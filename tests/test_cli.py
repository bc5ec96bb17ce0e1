"""Command-line interface: argument handling, stage commands, and exit codes."""

import csv
import json
import re
from pathlib import Path

import pytest

from conftest import write_tape
from patchscale import pipeline
from patchscale.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main, make_run_config
from patchscale.errors import NumericalError

TINY_SYNTH = {"n_firms": 12, "packages_per_firm_mean": 6.0, "seed": 5}


def _write_synth_json(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(TINY_SYNTH))
    return str(path)


def _parse(argv):
    return make_run_config(build_parser().parse_args(argv))


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_synth_requires_a_source(tmp_path, capsys):
    assert main(["synth", "--output-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--preset" in err


def test_preset_and_synth_config_conflict(tmp_path, capsys):
    path = _write_synth_json(tmp_path)
    code = main(
        ["synth", "--preset", "small", "--synth-config", path, "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE


def test_unknown_preset_is_usage_error(tmp_path):
    assert main(["synth", "--preset", "huge", "--output-dir", str(tmp_path)]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(tmp_path, capsys):
    path = _write_synth_json(tmp_path)
    code = main(
        [
            "all",
            "--synth-config",
            path,
            "--output-dir",
            str(tmp_path / "out"),
            "--threshold",
            "1.5",
        ]
    )
    assert code == EXIT_USAGE
    assert "threshold" in capsys.readouterr().err


def test_missing_tape_is_usage_error(tmp_path, capsys):
    code = main(
        ["all", "--tape", str(tmp_path / "no.csv"), "--output-dir", str(tmp_path / "out")]
    )
    assert code == EXIT_USAGE


def test_missing_config_file_is_usage_error(tmp_path):
    code = main(
        ["all", "--config", str(tmp_path / "absent.json"), "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE


def test_invalid_config_json_is_data_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["all", "--config", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA


def test_malformed_tape_is_data_error(tmp_path, capsys):
    tape = tmp_path / "tape.csv"
    tape.write_text("time,who\n1,x\n")
    code = main(["ingest", "--tape", str(tape), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_non_utf8_tape_is_data_error(tmp_path, capsys):
    tape = tmp_path / "tape.csv"
    tape.write_bytes(b"timestamp,firm_id,stock_id,side,value\n1,F\xff1,S1,B,1.0\n")
    code = main(["ingest", "--tape", str(tape), "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert f"{tape}: line 2: not valid UTF-8" in capsys.readouterr().err


def test_non_utf8_patches_csv_is_data_error(small_run, tmp_path, capsys):
    config, _ = small_run
    lines = (config.out() / "patches.csv").read_bytes().split(b"\n")
    lines[3] = b"F\xff" + lines[3]
    out = tmp_path / "out"
    out.mkdir()
    (out / "patches.csv").write_bytes(b"\n".join(lines))
    assert main(["analyze", "--output-dir", str(out)]) == EXIT_DATA
    assert f"{out / 'patches.csv'}: line 4: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_overflowing_patch_value_is_data_error(tmp_path, capsys):
    # Thirty buys of 1e307 sum past the largest float inside one patch.
    tape = tmp_path / "tape.csv"
    write_tape([(t, "F1", "S1", "B", 1e307 if t < 30 else 1.0) for t in range(60)], tape)
    argv = ["all", "--tape", str(tape), "--output-dir", str(tmp_path / "out")]
    code = main([*argv, "--min-trades-per-year", "0", "--min-active-days", "0"])
    assert code == EXIT_DATA
    assert "firm 'F1', stock 'S1': patch" in capsys.readouterr().err


def test_analyze_without_artifacts_is_data_error(tmp_path):
    assert main(["analyze", "--output-dir", str(tmp_path / "empty")]) == EXIT_DATA


def test_numerical_error_maps_to_exit_code(tmp_path, monkeypatch):
    def boom(config):
        raise NumericalError("degenerate input")

    monkeypatch.setattr(pipeline, "run_report", boom)
    assert main(["report", "--output-dir", str(tmp_path)]) == EXIT_NUMERICAL


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "synth" in capsys.readouterr().out


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _assert_staged_tree_matches_all(tmp_path, shared):
    staged, combined = tmp_path / "staged", tmp_path / "combined"
    for command in ("synth", "ingest", "segment", "analyze", "report"):
        assert main([command, *shared, "--output-dir", str(staged)]) == EXIT_OK, command
    assert main(["all", *shared, "--output-dir", str(combined)]) == EXIT_OK
    assert _files(staged) == _files(combined)


def test_stagewise_run_matches_all(tmp_path):
    # Stage commands each read the run settings afresh, so a shared config
    # file is what keeps a staged run consistent end to end.
    overlay = tmp_path / "run.json"
    overlay.write_text(json.dumps({"synth": TINY_SYNTH, "bootstrap_samples": 400}))
    _assert_staged_tree_matches_all(tmp_path, ["--config", str(overlay)])


def test_every_stage_takes_the_flags_of_all(tmp_path):
    # The same non-default flags given to each stage: segment, analyze and
    # report must all apply min-patch-trades and theta as `all` does.
    flags = ["--preset", "small", "--min-patch-trades", "20", "--theta", "0.8", "--bootstrap-samples", "400"]
    _assert_staged_tree_matches_all(tmp_path, flags)


def test_all_reruns_from_existing_tape(tmp_path):
    path = _write_synth_json(tmp_path)
    out = str(tmp_path / "out")
    assert main(["all", "--synth-config", path, "--bootstrap-samples", "400", "--output-dir", out]) == EXIT_OK
    # Without a source the command reuses the tape already in the output.
    assert main(["all", "--bootstrap-samples", "400", "--output-dir", out]) == EXIT_OK
    # A fresh directory with no tape cannot run.
    assert main(["all", "--bootstrap-samples", "400", "--output-dir", str(tmp_path / "new")]) == EXIT_USAGE


def test_flag_overrides_config_file(tmp_path):
    tape = tmp_path / "tape.csv"
    write_tape([(100, "F1", "SAN", "B", 50.0)], tape)
    overlay = tmp_path / "run.json"
    overlay.write_text(json.dumps({"threshold": 0.95, "tape": str(tape), "mc_trials": 300}))
    config = _parse(
        [
            "segment",
            "--config",
            str(overlay),
            "--threshold",
            "0.97",
            "--output-dir",
            "out",
        ]
    )
    assert config.threshold == 0.97  # explicit flag wins
    assert config.mc_trials == 300  # overlay value survives
    assert config.tape == str(tape)


def test_synth_source_relaxes_activity_thresholds(tmp_path):
    config = _parse(["all", "--preset", "small", "--output-dir", "out"])
    assert config.min_trades_per_year == 0
    assert config.min_active_days == 0
    explicit = _parse(
        [
            "all",
            "--preset",
            "small",
            "--min-trades-per-year",
            "5",
            "--output-dir",
            "out",
        ]
    )
    assert explicit.min_trades_per_year == 5


def test_preset_small_runs_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["all", "--preset", "small", "--bootstrap-samples", "400", "--output-dir", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["stocks"]["SYN"]["counts"]["patches_directional"] > 100


@pytest.mark.parametrize(
    "direction,column,value",
    [
        ("buy", "direction", "hold"),
        ("buy", "direction", "none"),
        ("buy", "N_m", ""),
        ("sell", "V_m", ""),
        ("none", "N_m", "7"),
        ("none", "direction", "sell"),
    ],
)
def test_inconsistent_patch_row_is_data_error(small_run, tmp_path, capsys, direction, column, value):
    config, _ = small_run
    with open(config.out() / "patches.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    index = next(i for i, row in enumerate(rows) if row[header.index("direction")] == direction)
    rows[index][header.index(column)] = value
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "patches.csv", "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert main(["analyze", "--output-dir", str(out)]) == EXIT_DATA
    assert f"patches.csv: line {index + 1}:" in capsys.readouterr().err


# Every flag of the README's Key settings table: (value given, RunConfig field, parsed value).
KEY_SETTINGS = {
    "--threshold": ("0.95", "threshold", 0.95),
    "--theta": ("0.8", "theta", 0.8),
    "--min-patch-trades": ("12", "min_patch_trades", 12),
    "--k-policy": ("fraction:0.2", "k_policy", "fraction:0.2"),
    "--bootstrap-samples": ("500", "bootstrap_samples", 500),
    "--min-trades-per-year": ("50", "min_trades_per_year", 50),
    "--min-active-days": ("20", "min_active_days", 20),
    "--activity-mode": ("prorated", "activity_mode", "prorated"),
    "--seed": ("7", "seed", 7),
}


def test_readme_key_settings_parse_with_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Key settings", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", table)) == set(KEY_SETTINGS)
    argv = ["all", "--preset", "small", "--output-dir", "out"]
    for flag, (text, _, _) in KEY_SETTINGS.items():
        argv += [flag, text]
    config = _parse(argv)
    for flag, (_, field, expected) in KEY_SETTINGS.items():
        assert getattr(config, field) == expected, flag


def test_k_prefix_still_selects_k_policy():
    config = _parse(["all", "--preset", "small", "--k", "fixed:50", "--output-dir", "out"])
    assert config.k_policy == "fixed:50"
