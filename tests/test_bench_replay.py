"""The benchmark's traced replay (perfbench/tracer.py) still runs against the package.

The replay calls each stage's layer functions by name and checks its results
against the artifacts of a CLI run; a refactor that drops or renames one of
those names fails here rather than only inside the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from patchscale.cli import EXIT_OK, main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(tracer, argv, stage_dir, replay_dir, staged):
    argv = [*argv, "--output-dir", str(replay_dir)]
    return tracer.replay(tracer.Spans("test"), argv, stage_dir, staged)["mismatches"]


def test_replay_matches_an_all_run(tracer, tmp_path):
    argv = ["all", "--preset", "small", "--bootstrap-samples", "400"]
    stage_dir = tmp_path / "stage"
    assert main([*argv, "--output-dir", str(stage_dir)]) == EXIT_OK
    assert _mismatches(tracer, argv, stage_dir, tmp_path / "replay", staged=False) == []


def test_replay_matches_a_staged_tape_run(tracer, tmp_path):
    source = tmp_path / "source"
    assert main(["synth", "--preset", "small", "--output-dir", str(source)]) == EXIT_OK
    settings = [
        "--tape", str(source / "tape.csv"),
        "--bootstrap-samples", "400",
        "--min-trades-per-year", "0",
        "--min-active-days", "0",
    ]
    stage_dir = tmp_path / "stage"
    for command in ("ingest", "segment", "analyze", "report"):
        assert main([command, *settings, "--output-dir", str(stage_dir)]) == EXIT_OK, command
    assert _mismatches(tracer, ["all", *settings], stage_dir, tmp_path / "replay", staged=True) == []
