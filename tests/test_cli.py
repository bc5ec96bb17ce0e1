"""Command-line interface: argument handling, stage commands, and exit codes."""

import argparse
import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import write_tape
from patchscale import pipeline
from patchscale.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main, make_run_config
from patchscale.errors import NumericalError

TINY_SYNTH = {"n_firms": 12, "packages_per_firm_mean": 6.0, "seed": 5}


def _write_synth_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"synth": TINY_SYNTH}))
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


def test_unknown_preset_is_usage_error(tmp_path):
    assert main(["synth", "--preset", "huge", "--output-dir", str(tmp_path)]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(tmp_path, capsys):
    path = _write_synth_config(tmp_path)
    code = main(
        [
            "all",
            "--config",
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


@pytest.mark.parametrize(
    "setting,fault",
    [
        ({"seed": "abc"}, "config key seed must be an integer, got 'abc'"),
        ({"bootstrap_samples": 400.5}, "config key bootstrap_samples must be an integer, got 400.5"),
        ({"threshold": "0.9"}, "config key threshold must be a number, got '0.9'"),
        ({"min_active_days": True}, "config key min_active_days must be an integer, got True"),
        ({"synth": {**TINY_SYNTH, "n_firms": 12.5}}, "config key synth.n_firms must be an integer, got 12.5"),
    ],
)
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, setting, fault):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"synth": TINY_SYNTH, **setting}))
    assert main(["all", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert fault in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_number_fields_take_integers(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"synth": TINY_SYNTH, "theta": 1, "seed": 3}))
    config = _parse(["all", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert (config.theta, config.seed) == (1, 3)


def test_non_utf8_config_is_data_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert main(["all", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert f"{path}: not valid UTF-8" in capsys.readouterr().err


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
    stages = ("ingest", "segment", "analyze", "report")
    for command in stages if "--tape" in shared else ("synth", *stages):
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


def test_stagewise_run_on_a_tape_matches_all(small_run, tmp_path):
    # Activity filters that drop firms: the one path where ingest leaves rows
    # of the tape out of ingested/.
    config, _ = small_run
    tape = config.out() / "tape.csv"
    flags = ["--tape", str(tape), "--min-trades-per-year", "1000", "--min-active-days", "0"]
    _assert_staged_tree_matches_all(tmp_path, [*flags, "--bootstrap-samples", "400"])
    activity = json.loads((tmp_path / "staged" / "activity.json").read_text())
    assert 0 < len(activity["qualified_firms"]) < activity["n_firms"]


def test_later_stage_refuses_settings_that_contradict_an_earlier_one(tmp_path, capsys):
    out = ["--output-dir", str(tmp_path / "out")]
    for command in ("synth", "ingest", "segment"):
        assert main([command, "--preset", "small", *out]) == EXIT_OK, command
    analyze = ["analyze", "--preset", "small", "--min-patch-trades", "40", "--bootstrap-samples", "400"]
    assert main([*analyze, *out]) == EXIT_OK
    stocks = json.loads((tmp_path / "out" / "analysis" / "stocks.json").read_text())
    assert (stocks["min_patch_trades"], stocks["bootstrap_samples"]) == (40, 400)
    capsys.readouterr()
    # report with the defaults would describe 40-trade patches as 10-trade ones.
    assert main(["report", "--preset", "small", *out]) == EXIT_DATA
    assert "min_patch_trades = 40, but this run has min_patch_trades = 10" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    # analyze, too, refuses to contradict what segment used.
    assert main([*analyze, "--theta", "0.8", *out]) == EXIT_DATA
    assert "theta = 0.75, but this run has theta = 0.8" in capsys.readouterr().err
    assert main(["report", "--preset", "small", "--min-patch-trades", "40", "--bootstrap-samples", "400", *out]) == EXIT_OK
    # segment and report, too, refuse to contradict the activity filters ingest selected firms with.
    tape_run = ["--tape", str(tmp_path / "out" / "tape.csv"), "--output-dir", str(tmp_path / "tape_out")]
    filters = ["--min-trades-per-year", "0", "--min-active-days", "0"]
    assert main(["ingest", *tape_run, *filters]) == EXIT_OK
    capsys.readouterr()
    assert main(["segment", *tape_run]) == EXIT_DATA
    assert "min_trades_per_year = 0, but this run has min_trades_per_year = 1000" in capsys.readouterr().err
    assert main(["segment", *tape_run, *filters]) == EXIT_OK
    assert main(["analyze", *tape_run, *filters, "--bootstrap-samples", "400"]) == EXIT_OK
    assert main(["report", *tape_run, "--bootstrap-samples", "400"]) == EXIT_DATA
    assert "min_trades_per_year = 0, but this run has min_trades_per_year = 1000" in capsys.readouterr().err
    assert not (tmp_path / "tape_out" / "report.json").exists()
    # segment, too, refuses a tape other than the one ingest read.
    seeded = {seed: tmp_path / f"seed{seed}" for seed in (1, 2)}
    for seed, out_dir in seeded.items():
        assert main(["synth", "--preset", "small", "--seed", str(seed), "--output-dir", str(out_dir)]) == EXIT_OK
    mixed = ["--output-dir", str(tmp_path / "mixed"), *filters]
    assert main(["ingest", "--tape", str(seeded[1] / "tape.csv"), *mixed]) == EXIT_OK
    capsys.readouterr()
    assert main(["segment", "--tape", str(seeded[2] / "tape.csv"), *mixed]) == EXIT_DATA
    recorded = json.loads((tmp_path / "mixed" / "activity.json").read_text())
    err = capsys.readouterr().err
    assert f"was written for {recorded['n_trades']} trades spanning {recorded['span']}" in err
    assert not (tmp_path / "mixed" / "segmentations.json").exists()


def test_all_reruns_from_existing_tape(tmp_path):
    path = _write_synth_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["all", "--config", path, "--bootstrap-samples", "400", "--output-dir", out]) == EXIT_OK
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


@pytest.mark.parametrize(
    "direction,changes",
    [
        ("buy", {"V_m": "nan", "V_b": "inf"}),
        ("buy", {"V_m": "inf", "V_b": "inf"}),
        ("sell", {"V_m": "-2.5", "V_s": "-2.5"}),
        ("none", {"V_b": "nan"}),
        ("none", {"V_s": "-1.0"}),
        ("buy", {"T": "-1"}),
        ("sell", {"start": "end"}),
        ("buy", {"V_m": "V_s"}),
        ("sell", {"V_m": "V_b"}),
    ],
)
def test_meaningless_patch_row_is_data_error(small_run, tmp_path, capsys, direction, changes):
    # A value naming another column copies that column's cell.
    config, _ = small_run
    with open(config.out() / "patches.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    index = next(i for i, row in enumerate(rows) if row[header.index("direction")] == direction)
    row = dict(zip(header, rows[index]))
    for column, value in changes.items():
        rows[index][header.index(column)] = row.get(value, value)
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "patches.csv", "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert main(["analyze", "--output-dir", str(out)]) == EXIT_DATA
    assert f"patches.csv: line {index + 1}: malformed patch row:" in capsys.readouterr().err


# The settings of the small_run fixture that differ from the defaults.
SMALL_RUN_FLAGS = ["--min-trades-per-year", "0", "--min-active-days", "0", "--bootstrap-samples", "400"]


def test_corrupt_stage_record_is_data_error(small_run, tmp_path, capsys):
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    (out / "segmentations.json").write_text('{"broken')
    assert main(["report", "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    assert f"{out / 'segmentations.json'}: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact,text,command",
    [
        ("segmentations.json", "[]", "report"),
        ("segmentations.json", '{"series": 5}', "report"),
        ("analysis/stocks.json", "[]", "report"),
        ("activity.json", "[]", "segment"),
    ],
)
def test_stage_record_of_the_wrong_shape_is_data_error(small_run, tmp_path, capsys, artifact, text, command):
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    (out / artifact).write_text(text)
    assert main([command, "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    assert f"{out / artifact}: " in capsys.readouterr().err


def test_segment_refuses_another_tape_of_the_same_count_and_span(small_run, tmp_path, capsys):
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    tape = out / "tape.csv"
    lines = tape.read_text().splitlines(keepends=True)
    cells = lines[100].split(",")
    cells[3] = "S" if cells[3] == "B" else "B"  # one trade's side: same rows, same span
    lines[100] = ",".join(cells)
    tape.write_text("".join(lines))
    segmentations = (out / "segmentations.json").read_bytes()
    assert main(["segment", "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    recorded = json.loads((out / "activity.json").read_text())
    err = capsys.readouterr().err
    assert f"was written for {recorded['n_trades']} trades spanning {recorded['span']}" in err
    assert "run ingest on this tape first" in err
    assert (out / "segmentations.json").read_bytes() == segmentations


def _unlink(path):
    path.unlink()


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _shift(path):
    np.save(path, np.load(path) + 1)


def _swap_pairs(path):
    pairs = json.loads(path.read_text())
    assert pairs[0] != pairs[1]
    pairs[0], pairs[1] = pairs[1], pairs[0]
    path.write_text(json.dumps(pairs, separators=(",", ":")) + "\n")


def _triple(path):
    # Still finite and of the right shape: only the recorded digest tells.
    np.save(path, np.load(path) * 3)


@pytest.mark.parametrize(
    "name,damage",
    [
        ("signed_values.npy", _unlink),
        ("timestamps.npy", _truncate),
        ("offsets.npy", _shift),
        ("series.json", _swap_pairs),
        ("signed_values.npy", _triple),
    ],
)
def test_bad_ingested_column_is_data_error(small_run, tmp_path, capsys, name, damage):
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    damage(out / "ingested" / name)
    assert main(["segment", "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(out / "ingested") in err and "run ingest" in err


def test_ingested_columns_of_an_older_layout_are_data_error(small_run, tmp_path, capsys):
    # A tree ingested when ingested/ held the tape's five columns and ids.json.
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    path = out / "activity.json"
    activity = json.loads(path.read_text())
    old = ("timestamps.npy", "firm_codes.npy", "stock_codes.npy", "signs.npy", "values.npy", "ids.json")
    activity["ingested_sha256"] = dict.fromkeys(old, "0" * 64)
    path.write_text(json.dumps(activity))
    assert main(["segment", "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(out / "ingested") in err and "run ingest" in err


def test_staged_run_that_qualifies_no_firm_segments_nothing(small_run, tmp_path):
    config, _ = small_run
    tape = ["--tape", str(config.out() / "tape.csv"), "--min-trades-per-year", "100000"]
    out = tmp_path / "out"
    for command in ("ingest", "segment", "analyze", "report"):
        assert main([command, *tape, "--output-dir", str(out)]) == EXIT_OK, command
    assert json.loads((out / "activity.json").read_text())["qualified_firms"] == []
    assert json.loads((out / "segmentations.json").read_text())["series"] == []
    assert json.loads((out / "ingested" / "series.json").read_text()) == []


@pytest.mark.parametrize(
    "value,fault",
    [
        ("abc", "g2 must be a finite number, got 'abc'"),
        ("nan", "g2 must be a finite number, got 'nan'"),
        ("", "g2 must be a finite number, got ''"),
        ("\udcff", "not valid UTF-8"),  # the byte 0xff
    ],
)
def test_corrupt_per_firm_exponents_is_data_error(small_run, tmp_path, capsys, value, fault):
    config, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(config.out(), out)
    path = out / "analysis" / "SYN" / "per_firm_exponents.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = value
    lines[2] = ",".join(cells)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert main(["report", "--output-dir", str(out), *SMALL_RUN_FLAGS]) == EXIT_DATA
    assert f"{path}: line 3: {fault}" in capsys.readouterr().err


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
    "--significance-mode": ("monte-carlo", "significance_mode", "monte-carlo"),
    "--mc-trials": ("500", "mc_trials", 500),
    "--min-firm-patches": ("12", "min_firm_patches", 12),
    "--seed": ("7", "seed", 7),
}


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_key_settings_parse_with_all():
    table = _readme().split("## Key settings", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", table)) == set(KEY_SETTINGS)
    argv = ["all", "--preset", "small", "--output-dir", "out"]
    for flag, (text, _, _) in KEY_SETTINGS.items():
        argv += [flag, text]
    config = _parse(argv)
    for flag, (_, field, expected) in KEY_SETTINGS.items():
        assert getattr(config, field) == expected, flag


def test_readme_names_every_flag():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert "--threshold" in flags
    assert flags - set(re.findall(r"--[a-z][a-z-]*", _readme())) == set()


def test_k_prefix_still_selects_k_policy():
    config = _parse(["all", "--preset", "small", "--k", "fixed:50", "--output-dir", "out"])
    assert config.k_policy == "fixed:50"
