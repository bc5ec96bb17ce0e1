"""Command-line entry point: stage subcommands over one shared run config."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import pipeline
from .errors import DataError, NumericalError
from .synth import paper_like, small_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_PRESETS = {"paper-like": paper_like, "small": small_preset}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str):  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _add_flags(parser: argparse.ArgumentParser) -> None:
    """The run settings; every stage takes all of them, so a staged run can repeat one argv."""
    parser.add_argument("--output-dir", required=True, help="artifact directory for this run")
    parser.add_argument("--config", metavar="JSON", help="run-config JSON file; explicit flags win")
    parser.add_argument("--seed", type=int, help="top-level seed; stage seeds derive from it")
    parser.add_argument("--tape", help="trade-CSV input path")
    parser.add_argument("--preset", choices=sorted(_PRESETS), help="built-in generator preset")
    parser.add_argument("--min-trades-per-year", type=int, help="activity filter: trades per year")
    parser.add_argument("--min-active-days", type=int, help="activity filter: active days per year")
    parser.add_argument(
        "--activity-mode",
        choices=("strict", "prorated"),
        help="activity thresholds as given, or scaled to the part of each year the tape spans",
    )
    parser.add_argument("--threshold", type=float, help="significance required to accept a cut")
    parser.add_argument(
        "--significance-mode",
        choices=("closed-form", "monte-carlo"),
        help="how cut significance is computed",
    )
    parser.add_argument("--mc-trials", type=int, help="Monte Carlo trials for the null table")
    parser.add_argument("--theta", type=float, help="dominant-side value share for buy/sell")
    parser.add_argument("--min-patch-trades", type=int, help="minimum trades for an analyzed patch")
    parser.add_argument("--k-policy", help="tail cutoff policy: auto, fraction:<f>, or fixed:<k>")
    parser.add_argument("--bootstrap-samples", type=int, help="bootstrap resamples for CIs")
    parser.add_argument("--min-firm-patches", type=int, help="patches required to test a firm")


_COMMANDS = {
    "synth": "generate a synthetic tape with ground truth",
    "ingest": "validate a tape and compute firm activity",
    "segment": "detect patches in every qualifying series",
    "analyze": "tail, allometric, and lognormality statistics",
    "report": "compose the report and plot data from artifacts",
    "all": "run every stage end to end",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="patchscale", description="Patch detection and scaling-law analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=summary))
    return parser


def _load_json_file(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def make_run_config(args: argparse.Namespace) -> pipeline.RunConfig:
    """Merge defaults, the optional config file, and explicit flags."""
    settings = _load_json_file(args.config) if args.config else {}
    # Each flag's destination is the RunConfig field it sets (--output-dir too).
    for field in fields(pipeline.RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            settings[field.name] = value
    if args.preset:
        settings["synth"] = _PRESETS[args.preset]()

    if settings.get("synth") is not None:
        if settings.get("tape"):
            raise UsageError("give either a tape or generator settings, not both")
        settings.pop("tape", None)
        # Synthetic tapes cover short spans; activity filters are opt-in there.
        settings.setdefault("min_trades_per_year", 0)
        settings.setdefault("min_active_days", 0)
    elif args.command == "synth":
        raise UsageError("synth needs --preset or generator settings under synth in --config")
    elif args.command == "all" and "tape" not in settings:
        # Without any source, `all` can still rerun on a tape generated here.
        if not (Path(args.output_dir) / "tape.csv").is_file():
            raise UsageError("no input: give --tape, --preset, or --config with synth settings")

    try:
        return pipeline.config_from_dict(settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = make_run_config(args)
        if args.command == "synth":
            pipeline.run_synth(config)
        elif args.command == "ingest":
            pipeline.run_ingest(config)
        elif args.command == "segment":
            pipeline.run_segment(config)
        elif args.command == "analyze":
            pipeline.run_analyze(config)
        elif args.command == "report":
            pipeline.run_report(config)
        else:
            pipeline.run_pipeline(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
