"""File-artifact pipeline: synth/ingest -> segment -> analyze -> report.

Each stage reads and writes artifacts under one output directory so stages
can be re-run independently:

    tape.csv, ground_truth.json        synth
    activity.json, ingested/           ingest
    segmentations.json, patches.csv    segment
    analysis/<stock>/, plots/<stock>/  analyze
    report.json, report_*.csv          report

ingest sorts the qualifying firms' trades into (firm, stock) series once;
ingested/ holds them laid end to end, and segment cuts them from there
without the tape.  `all` hands ingest's series to segment in memory.

Every stage is deterministic given the run config and seed at one BLAS
thread count; at another, the bootstrap's moment sums may round differently.
Derived seeds feed the generator ([seed, 0] and [seed, 1, firm]), the Monte
Carlo significance null ([seed, 2]) and the bootstrap ([seed, 3]).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import shutil
from dataclasses import asdict, astuple, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import allometry, lognormal, patches, segmentation, tails
from .errors import DataError, NumericalError, utf8_lines
from .synth import GroundTruth, SynthConfig, generate
from .trades import SeriesColumns, TradeTable, qualified_firms
from .patches import NON_DIRECTIONAL, VARIABLES, PatchRecord

REPORT_SCHEMA_VERSION = 1
FAILURE_MARKER = "FAILED.json"

PATCH_CSV_HEADER = tuple(f.name for f in fields(PatchRecord))
_patch_csv_row = attrgetter(*PATCH_CSV_HEADER)
# The RunConfig fields each stage records in its artifact, in stage order.  A
# later stage checks every record that exists and refuses to run with other
# values; the report echoes them all.
STAGE_SETTINGS = {
    "activity.json": ("min_trades_per_year", "min_active_days", "activity_mode"),
    "segmentations.json": ("threshold", "significance_mode", "mc_trials", "theta", "seed"),
    "analysis/stocks.json": ("min_patch_trades", "k_policy", "bootstrap_samples", "min_firm_patches", "seed"),
}
# The SeriesColumns arrays ingest saves under ingested/, beside series.json.
INGESTED_ARRAYS = ("signed_values", "timestamps", "offsets")
# Every file under ingested/.
INGESTED_FILES = (*(f"{name}.npy" for name in INGESTED_ARRAYS), "series.json")
# Every file analyze writes under analysis/<stock dir>/.
ANALYSIS_FILES = ("summary.json", "lognormality.csv", "per_firm_exponents.csv")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Everything one pipeline run depends on.

    The input comes from tape (a trade-CSV path) or synth (a generator
    config), never both; stages that only read artifacts from output_dir can
    run with neither.  All estimator knobs mirror the CLI flags.
    """

    output_dir: str
    tape: str | None = None
    synth: SynthConfig | None = None
    seed: int = 2001
    threshold: float = segmentation.DEFAULT_THRESHOLD
    significance_mode: str = "closed-form"
    mc_trials: int = segmentation.DEFAULT_MC_TRIALS
    theta: float = patches.DEFAULT_THETA
    min_patch_trades: int = patches.DEFAULT_MIN_TRADES
    k_policy: str = "auto"
    bootstrap_samples: int = allometry.DEFAULT_BOOTSTRAP_SAMPLES
    min_firm_patches: int = patches.DEFAULT_MIN_FIRM_PATCHES
    min_trades_per_year: int = 1000
    min_active_days: int = 200
    activity_mode: str = "strict"

    def __post_init__(self) -> None:
        if self.tape is not None and self.synth is not None:
            raise ValueError("tape and synth are mutually exclusive inputs")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.significance_mode not in ("closed-form", "monte-carlo"):
            raise ValueError(
                f"significance-mode must be closed-form or monte-carlo, got {self.significance_mode!r}"
            )
        if self.mc_trials < 100:
            raise ValueError(f"mc-trials must be >= 100, got {self.mc_trials}")
        if not 0.5 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0.5, 1], got {self.theta}")
        if self.min_patch_trades < 1:
            raise ValueError(f"min-patch-trades must be >= 1, got {self.min_patch_trades}")
        parse_k_policy(self.k_policy)
        if self.bootstrap_samples < 200:
            raise ValueError(f"bootstrap-samples must be >= 200, got {self.bootstrap_samples}")
        if self.min_firm_patches < 8:
            raise ValueError(f"min-firm-patches must be >= 8, got {self.min_firm_patches}")
        if self.min_trades_per_year < 0 or self.min_active_days < 0:
            raise ValueError("activity thresholds must be >= 0")
        if self.activity_mode not in ("strict", "prorated"):
            raise ValueError(f"activity mode must be strict or prorated, got {self.activity_mode!r}")
        if self.tape is not None and not Path(self.tape).is_file():
            raise ValueError(f"tape path not found: {self.tape}")

    def out(self) -> Path:
        return Path(self.output_dir)


def parse_k_policy(text: str) -> tuple[str, float | int | None]:
    """Parse a tail-cutoff policy: auto, fraction:<f>, or fixed:<k>."""
    if text == "auto":
        return ("auto", None)
    if match := re.fullmatch(r"fraction:([0-9.eE+-]+)", text):
        fraction = float(match.group(1))
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"k fraction must be in (0, 1), got {fraction}")
        return ("fraction", fraction)
    if match := re.fullmatch(r"fixed:(\d+)", text):
        k = int(match.group(1))
        if k < 1:
            raise ValueError(f"fixed k must be >= 1, got {k}")
        return ("fixed", k)
    raise ValueError(f"k policy must be auto, fraction:<f>, or fixed:<k>, got {text!r}")


# The JSON values a config field takes, by its annotation; a bool is none of them.
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def _check_types(cls, data: dict, prefix: str = "") -> None:
    """ValueError naming a key of data whose value is not of its cls field's JSON type."""
    annotations = {f.name: f.type for f in fields(cls)}
    for name, value in data.items():
        if name in annotations:  # unknown keys are refused by the caller
            types, kind = _JSON_TYPES[annotations[name]]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config key {prefix}{name} must be {kind}, got {value!r}")


def config_from_dict(payload: dict) -> RunConfig:
    """Build a RunConfig from a plain JSON-style dict; ValueError naming a key
    of the wrong type."""
    data = dict(payload)
    synth_payload = data.pop("synth", None)
    synth_config = None
    if isinstance(synth_payload, SynthConfig):
        synth_config = synth_payload
    elif synth_payload is not None:
        if not isinstance(synth_payload, dict):
            raise ValueError("synth must be an object of generator settings")
        _check_types(SynthConfig, synth_payload, "synth.")
        try:
            synth_config = SynthConfig(**synth_payload)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad generator settings: {exc}") from None
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    _check_types(RunConfig, data)
    return RunConfig(synth=synth_config, **data)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_json(path: Path):
    if not path.is_file():
        raise DataError(f"missing artifact {path}; run the producing stage first")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise DataError(f"{path}: not valid JSON: {exc}") from None


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _safe_name(name: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9._-]", "_", name) or "_"
    candidate = base
    suffix = 2
    while candidate in taken:
        candidate = f"{base}__{suffix}"
        suffix += 1
    taken.add(candidate)
    return candidate


def stock_dir_names(stock_ids: list[str]) -> dict[str, str]:
    """Deterministic filesystem-safe directory name per stock id.

    No stock is named ., .. or stocks.json: under analysis/ those would be
    analysis/ itself, the output directory and analyze's record."""
    taken = {".", "..", "stocks.json"}
    return {stock_id: _safe_name(stock_id, taken) for stock_id in sorted(stock_ids)}


def _write_record(config: RunConfig, artifact: str, payload: dict) -> None:
    """Write a stage's artifact with the settings it records as top-level keys."""
    settings = {name: getattr(config, name) for name in STAGE_SETTINGS[artifact]}
    _write_json(config.out() / artifact, {**settings, **payload})


def _is_str(value) -> bool:
    return isinstance(value, str)


def _str_values(value) -> bool:
    return isinstance(value, dict) and all(map(_is_str, value.values()))


# Per recorded artifact, the stage that writes it and the keys later stages
# index, each with a test of its value.  Every record also holds files: the
# sha256 of each file its stage read or wrote, keyed by the file's path in the
# output directory, or "tape" for the tape.
_RECORD_KEYS = {
    "activity.json": ("ingest", {
        "n_trades": lambda v: isinstance(v, int),
        "span": lambda v: v is None or isinstance(v, list),
        "qualified_firms": lambda v: isinstance(v, list) and all(map(_is_str, v)),
    }),
    "segmentations.json": ("segment", {}),
    "analysis/stocks.json": ("analyze", {
        # Each stock's directory is the one analyze names it, inside analysis/.
        "stocks": lambda v: _str_values(v) and v == stock_dir_names(list(v)),
    }),
}


def _read_records(
    config: RunConfig, before: str | None = None, required: tuple = (), reads: tuple = ()
) -> tuple[dict, dict[str, str]]:
    """Read and check, by artifact, the records of the stages that run before
    the one writing before (of every stage when None): those that exist and
    the required ones.  DataError unless each is an object holding the keys
    later stages index, config agrees with every setting it holds, and each
    record read and each file of reads is there with the sha256 that every
    record read naming it holds.  Returns the records and, by path, the sha256
    of each file so checked."""
    out = config.out()
    records, digests = {}, {}
    for artifact in STAGE_SETTINGS:
        path = out / artifact
        if artifact == before:
            break
        if artifact not in required and not path.is_file():
            continue
        recorded = _read_json(path)
        stage, keys = _RECORD_KEYS[artifact]
        if not isinstance(recorded, dict):
            raise DataError(f"{path}: expected a JSON object; run {stage} again")
        for key, valid in {**keys, "files": _str_values}.items():
            if key not in recorded or not valid(recorded[key]):
                raise DataError(f"{path}: {key} is missing or malformed; run {stage} again")
        for name in STAGE_SETTINGS[artifact]:
            if name in recorded and recorded[name] != getattr(config, name):
                raise DataError(
                    f"{path} was written with {name} = {recorded[name]!r}, but this run has "
                    f"{name} = {getattr(config, name)!r}; give every stage the same settings"
                )
        records[artifact] = recorded
    for name in (*records, *reads):
        if naming := {artifact: record for artifact, record in records.items() if name in record["files"]}:
            digests.update(_check_files(config, naming, [name]))
    return records, digests


def _tape_path(config: RunConfig) -> Path:
    path = Path(config.tape) if config.tape is not None else config.out() / "tape.csv"
    if not path.is_file():
        raise DataError(f"missing artifact {path}; run the synth stage or provide a tape")
    return path


def _sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _check_files(config: RunConfig, records: dict, names) -> dict[str, str]:
    """The sha256 of each named file of the output directory, by name;
    DataError, saying to run that record's stage again, unless it is the one
    that each of records, by artifact in stage order, holds for it under files."""
    digests = {}
    for name in names:
        path = config.out() / name
        try:
            digest = _sha256(path)
        except OSError as exc:
            stage = _RECORD_KEYS[next(iter(records))][0]  # records come in stage order
            raise DataError(f"{path}: cannot read it ({exc}); run {stage} again") from None
        for artifact, record in records.items():
            # A record of an older layout does not name the file.
            expected = record["files"].get(name)
            if digest != expected:
                raise DataError(
                    f"{path} has sha256 {digest}, but {config.out() / artifact} records {expected}; "
                    f"run {_RECORD_KEYS[artifact][0]} again"
                )
        digests[name] = digest
    return digests


def run_synth(config: RunConfig) -> tuple[TradeTable, GroundTruth]:
    """Generate the synthetic tape and ground truth artifacts."""
    if config.synth is None:
        raise DataError("run config has no generator settings; provide a tape instead")
    synth_config = replace(config.synth, seed=config.seed)
    table, truth = generate(synth_config)
    out = config.out()
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "tape.csv")
    # Compact: an indented dump takes json's pure-Python encoder, ~3x slower.
    compact = json.dumps(truth.to_json_dict(), sort_keys=True, separators=(",", ":"))
    (out / "ground_truth.json").write_text(compact + "\n", encoding="utf-8")
    return table, truth


def _write_ingested(config: RunConfig, series: SeriesColumns) -> dict[str, str]:
    """Save the series under ingested/ and return each file's sha256, by path."""
    out = config.out() / "ingested"
    out.mkdir(parents=True, exist_ok=True)
    for name in INGESTED_ARRAYS:
        # np.save, not savez: a zip member would carry the time it was written.
        np.save(out / f"{name}.npy", getattr(series, name))
    pairs = json.dumps([list(pair) for pair in series.pairs], separators=(",", ":"))
    (out / "series.json").write_text(pairs + "\n", encoding="utf-8")
    return {f"ingested/{name}": _sha256(out / name) for name in INGESTED_FILES}


def _load_ingested(config: RunConfig, activity: dict) -> SeriesColumns:
    """The series ingest saved, once the tape is shown to be the one it read
    and every ingested/ file the one it wrote.

    DataError, saying to run ingest, on another tape or on a missing or
    altered file.
    """
    tape = _tape_path(config)
    digest, recorded = _sha256(tape), activity["files"].get("tape")
    if digest != recorded:
        raise DataError(
            f"{tape} has sha256 {digest}, but {config.out() / 'activity.json'} was written for "
            f"{activity['n_trades']} trades spanning {activity['span']} of a tape with sha256 "
            f"{recorded}; run ingest on this tape first"
        )
    _check_files(config, {"activity.json": activity}, [f"ingested/{name}" for name in INGESTED_FILES])
    directory = config.out() / "ingested"
    # Each file is the one ingest wrote from a validated table.
    arrays = {name: np.load(directory / f"{name}.npy", allow_pickle=False) for name in INGESTED_ARRAYS}
    pairs = [tuple(pair) for pair in json.loads((directory / "series.json").read_text(encoding="utf-8"))]
    return SeriesColumns(pairs, **arrays)


def run_ingest(config: RunConfig, table: TradeTable | None = None) -> tuple[SeriesColumns, set[str]]:
    """Validate the tape, compute per-firm activity, select qualifying firms.

    Sorts the qualified firms' trades into the series segment reads, saves
    them under ingested/, and records the sha256 of the tape and of every
    ingested/ file in activity.json.  Returns the series and the qualified
    firms; the table is not kept.
    """
    tape = _tape_path(config)
    if table is None:
        table = TradeTable.from_csv(tape)
    span = list(table.span()) if len(table) else None
    activity = table.activity()
    qualified = qualified_firms(
        activity,
        span,
        min_trades_per_year=config.min_trades_per_year,
        min_active_days=config.min_active_days,
        mode=config.activity_mode,
    )
    series = table.series_columns(qualified)
    payload = {
        "n_trades": len(table),
        "span": span,
        "files": {"tape": _sha256(tape), **_write_ingested(config, series)},
        "n_firms": len(table.firms),
        "n_stocks": len(table.stocks),
        "qualified_firms": sorted(qualified),
        # json writes the int years as strings, in the order sort_keys gives.
        "firms": activity,
    }
    _write_record(config, "activity.json", payload)
    return series, qualified


def run_segment(config: RunConfig, series: SeriesColumns | None = None) -> Path:
    """Segment every qualifying series and export segmentations plus patches.

    Without series, segment loads the ones ingest saved, after checking that
    the tape is the one ingest read and every ingested/ file the one it
    wrote; series, when given, are the ones run_ingest returned.  The patch
    CSV holds every cut segment; non-directional rows leave N_m and V_m
    empty because no side dominates.
    """
    activity = _read_records(config, "segmentations.json", required=("activity.json",))[0]["activity.json"]
    if series is None:
        series = _load_ingested(config, activity)
    policy = segmentation.SignificancePolicy(
        mode=config.significance_mode,
        mc_trials=config.mc_trials,
        seed=int(np.random.SeedSequence([config.seed, 2]).generate_state(1)[0]),
    )
    exports = []
    records = []
    counts: dict[str, int] = {}
    segmented = segmentation.segment_many(series, config.threshold, policy=policy, counts=counts)
    for one, seg in zip(series, segmented):
        exports.append(
            {
                "firm_id": one.firm_id,
                "stock_id": one.stock_id,
                "boundaries": list(seg.boundaries),
            }
        )
        records.extend(patches.cut_patches(one, seg, config.theta))
    path = config.out() / "patches.csv"
    # csv writes None as an empty field and a float as its repr.
    _write_csv(path, PATCH_CSV_HEADER, map(_patch_csv_row, records))
    files = {name: _sha256(config.out() / name) for name in ("activity.json", "patches.csv")}
    _write_record(config, "segmentations.json", {"counts": counts, "series": exports, "files": files})
    return path


def read_patch_rows(path: Path) -> list[PatchRecord]:
    """The records of patches.csv; a malformed row raises DataError with its line."""
    if not path.is_file():
        raise DataError(f"missing artifact {path}; run the segment stage first")
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(utf8_lines(path, handle))
        header = next(reader, None)
        if header is None or tuple(header) != PATCH_CSV_HEADER:
            raise DataError(f"{path}: bad patch CSV header {header!r}")
        for line_no, cells in enumerate(reader, start=2):
            if len(cells) != len(PATCH_CSV_HEADER):
                raise DataError(f"{path}: line {line_no}: expected {len(PATCH_CSV_HEADER)} fields")
            try:
                rows.append(
                    PatchRecord(
                        firm_id=cells[0],
                        stock_id=cells[1],
                        start=int(cells[2]),
                        end=int(cells[3]),
                        direction=cells[4],
                        T=int(cells[5]),
                        N_m=int(cells[6]) if cells[6] else None,
                        V_m=float(cells[7]) if cells[7] else None,
                        V_b=float(cells[8]),
                        V_s=float(cells[9]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: malformed patch row: {exc}") from None
    return rows


def _tail_section(values: np.ndarray, variable: str, config: RunConfig) -> dict:
    kind, parameter = parse_k_policy(config.k_policy)
    positive = values[values > 0]
    used = config.k_policy
    try:
        if kind == "fixed":
            k = int(parameter)  # type: ignore[arg-type]
        elif kind == "fraction":
            k = tails.choose_k(positive, strategy="fraction", fraction=float(parameter))  # type: ignore[arg-type]
        else:
            try:
                k = tails.choose_k(positive)
            except NumericalError:
                # Too few points for the KS scan; fall back to the 10% rule.
                k = tails.choose_k(positive, strategy="fraction", fraction=0.1)
                used = "fraction:0.1"
        fit = tails.hill(positive, k, variable=variable)
    except NumericalError as exc:
        return {"status": "insufficient data", "reason": str(exc), "n": int(len(positive))}
    return {**asdict(fit), "convention": tails.TAIL_CONVENTION, "k_policy": used}


def _lognormality_sections(
    directional: list[PatchRecord], config: RunConfig
) -> tuple[dict, dict, list[lognormal.LognormalityResult]]:
    per_firm: dict = {}
    pooled: dict = {}
    results: list[lognormal.LognormalityResult] = []
    for variable in VARIABLES:
        try:
            summary = lognormal.per_firm_lognormality(
                directional, variable, config.min_firm_patches
            )
            per_firm[variable] = {
                "percent": summary.percent,
                "passed": summary.passed,
                "tested": summary.tested,
            }
            results.extend(summary.results)
        except NumericalError as exc:
            per_firm[variable] = {"status": "insufficient data", "reason": str(exc)}
        try:
            stat, reject = lognormal.pooled_lognormality(directional, variable)
            pooled[variable] = {"jb_stat": stat, "reject": reject}
        except NumericalError as exc:
            pooled[variable] = {"status": "insufficient data", "reason": str(exc)}
    return per_firm, pooled, results


def _dispersion(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    array = np.asarray(values)
    return {
        "n": int(len(array)),
        "mean": float(array.mean()),
        "sd": float(array.std(ddof=1)) if len(array) > 1 else 0.0,
        "median": float(np.median(array)),
    }


def analyze_stock(
    rows: list[PatchRecord], config: RunConfig, bootstrap_seed: int
) -> tuple[dict, list, dict[str, allometry.FirmExponents], dict[str, np.ndarray], np.ndarray]:
    """All per-stock statistics from that stock's patch rows: the summary, the
    rows of lognormality.csv, each firm's exponents, and the variables and log
    points of the directional rows, which the plots draw."""
    total = len(rows)
    big_enough = [row for row in rows if row.end - row.start >= config.min_patch_trades]
    below_min = total - len(big_enough)
    non_directional = sum(1 for row in big_enough if row.direction == NON_DIRECTIONAL)
    directional = patches.select_directional(rows, config.min_patch_trades)
    counts = {
        "series": len({row.firm_id for row in rows}),
        "patches_total": total,
        "patches_below_min_trades": below_min,
        "patches_non_directional": non_directional,
        "patches_directional": len(directional),
        "non_directional_share": (
            non_directional / len(big_enough) if big_enough else None
        ),
    }

    values = patches.variables(directional)
    tail_fits = {
        variable: _tail_section(values[variable], variable, config)
        for variable in VARIABLES
    }

    points, skipped_log = allometry.log_points(directional)
    counts["patches_zero_duration"] = skipped_log
    allo: dict = {}
    # Both fits take their CIs from one set of resamples: the second finds the first's memoized.
    for mode, fit in (("trivariate", allometry.trivariate_fit), ("bivariate", allometry.bivariate_fit)):
        try:
            allo[mode] = asdict(fit(points, config.bootstrap_samples, bootstrap_seed))
        except (NumericalError, ValueError) as exc:
            allo[mode] = {"status": "insufficient data", "reason": str(exc)}

    per_firm, pooled, jb_rows = _lognormality_sections(directional, config)

    firm_fits = allometry.per_firm_exponents(directional, config.min_firm_patches)
    exponents = {
        "n_firms": len(firm_fits),
        "g1": _dispersion([f.g1 for f in firm_fits.values()]),
        "g2": _dispersion([f.g2 for f in firm_fits.values()]),
        "g3": _dispersion([f.g3 for f in firm_fits.values()]),
    }

    summary = {
        "counts": counts,
        "tails": tail_fits,
        "allometry": allo,
        "lognormality": {"per_firm": per_firm, "pooled": pooled},
        "per_firm_exponents": exponents,
    }
    jb_table = list(map(astuple, sorted(jb_rows, key=attrgetter("firm_id", "variable"))))
    return summary, jb_table, firm_fits, values, points


def _by_stock(rows: list[PatchRecord]) -> dict[str, list[PatchRecord]]:
    """The rows of each stock, in file order, by stock id in sorted order."""
    by_stock: dict[str, list[PatchRecord]] = {}
    for row in rows:
        by_stock.setdefault(row.stock_id, []).append(row)
    return dict(sorted(by_stock.items()))


def _axis_rows(pair_pts: np.ndarray, slope: float) -> list[tuple[float, float]]:
    centroid = pair_pts.mean(axis=0)
    lo = float(pair_pts[:, 0].min())
    hi = float(pair_pts[:, 0].max())
    cx, cy = float(centroid[0]), float(centroid[1])
    return [(lo, cy + slope * (lo - cx)), (cx, cy), (hi, cy + slope * (hi - cx))]


def _write_plots(stock_out: Path, values: dict, points: np.ndarray, firm_fits: dict, slopes: dict) -> None:
    """A stock's plot data under stock_out, from analyze_stock's values,
    points and firm_fits: the CCDF of each variable, each log-log scatter with
    its principal axis through the centroid (none when slopes, the summary's
    bivariate section, holds no fit), and a histogram of each per-firm
    exponent."""
    for variable in VARIABLES:
        positive = values[variable][values[variable] > 0]
        _write_csv(stock_out / f"ccdf_{variable}.csv", ("x", "p"), tails.ccdf(positive) if len(positive) else [])
    for name, columns in allometry.PAIRS.items():
        pair_pts = points[:, columns]
        x_name, y_name = (VARIABLES[c] for c in columns)
        label = f"{name}_{y_name}_vs_{x_name}"
        _write_csv(stock_out / f"scatter_{label}.csv", ("log_x", "log_y"), pair_pts.tolist())
        axis_rows = _axis_rows(pair_pts, slopes[name]) if len(pair_pts) and name in slopes else []
        _write_csv(stock_out / f"axis_{label}.csv", ("log_x", "log_y"), axis_rows)
    for name in ("g1", "g2", "g3"):
        hist_rows = []
        if firm_fits:
            counts, edges = np.histogram([getattr(fit, name) for fit in firm_fits.values()], bins=20)
            hist_rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
        _write_csv(stock_out / f"hist_{name}.csv", ("bin_lo", "bin_hi", "count"), hist_rows)


def run_analyze(config: RunConfig) -> dict[str, dict]:
    """Per-stock scaling statistics written under analysis/<stock>/, and their
    plot data under plots/<stock>/."""
    # patches.csv alone can be analyzed; the earlier stages' records that are there must agree.
    _, checked = _read_records(config, "analysis/stocks.json", reads=("patches.csv",))
    patches_path = config.out() / "patches.csv"
    by_stock = _by_stock(read_patch_rows(patches_path))
    # Every input is checked: a stock of an earlier run must not outlive it.
    for top in ("analysis", "plots"):
        if (config.out() / top).exists():
            shutil.rmtree(config.out() / top)
    bootstrap_seed = int(np.random.SeedSequence([config.seed, 3]).generate_state(1)[0])
    names = stock_dir_names(list(by_stock))
    analysis: dict[str, dict] = {}
    # A patches.csv no record names was not hashed by the check.
    files = {"patches.csv": checked.get("patches.csv") or _sha256(patches_path)}
    for stock_id, stock_rows in by_stock.items():
        summary, jb_table, firm_fits, values, points = analyze_stock(stock_rows, config, bootstrap_seed)
        stock_out = config.out() / "analysis" / names[stock_id]
        _write_json(stock_out / "summary.json", summary)
        # csv writes a float as its repr.
        _write_csv(stock_out / "lognormality.csv", [f.name for f in fields(lognormal.LognormalityResult)], jb_table)
        firm_table = map(astuple, firm_fits.values())
        _write_csv(stock_out / "per_firm_exponents.csv", [f.name for f in fields(allometry.FirmExponents)], firm_table)
        plots_out = config.out() / "plots" / names[stock_id]
        _write_plots(plots_out, values, points, firm_fits, summary["allometry"]["bivariate"])
        analysis[stock_id] = summary
        files.update({f"analysis/{names[stock_id]}/{name}": _sha256(stock_out / name) for name in ANALYSIS_FILES})
    _write_record(config, "analysis/stocks.json", {"stocks": names, "files": files})
    return analysis


def _read_analysis(config: RunConfig) -> dict[str, tuple[str, dict]]:
    """Each stock's analysis/ directory name and summary, by stock id in sorted
    order, once every record is read, patches.csv is shown to be the file
    analyze read, and every analysis file the one it wrote; DataError
    otherwise."""
    records, _ = _read_records(config, required=("analysis/stocks.json",), reads=("patches.csv",))
    record = records["analysis/stocks.json"]
    names = record["stocks"]
    files = [f"analysis/{names[stock_id]}/{name}" for stock_id in sorted(names) for name in ANALYSIS_FILES]
    _check_files(config, {"analysis/stocks.json": record}, files)
    return {
        stock_id: (name, json.loads((config.out() / "analysis" / name / "summary.json").read_text(encoding="utf-8")))
        for stock_id, name in sorted(names.items())
    }


def emit_plot_data(config: RunConfig) -> None:
    """Rewrite plots/ as analyze writes it, from patches.csv and analysis/,
    which must be the files analyze read and wrote.

    Only the benchmark's replay calls it, to time the plot writing on its
    own; it goes when the replay does (ROADMAP Open item 1, step c)."""
    analysis = _read_analysis(config)
    by_stock = _by_stock(read_patch_rows(config.out() / "patches.csv"))
    if (config.out() / "plots").exists():
        shutil.rmtree(config.out() / "plots")
    for stock_id, rows in by_stock.items():
        stock_dir, summary = analysis[stock_id]
        directional = patches.select_directional(rows, config.min_patch_trades)
        points, _ = allometry.log_points(directional)
        firm_fits = allometry.per_firm_exponents(directional, config.min_firm_patches)
        slopes = summary["allometry"]["bivariate"]
        _write_plots(config.out() / "plots" / stock_dir, patches.variables(directional), points, firm_fits, slopes)


def _report_tables(config: RunConfig, report: dict) -> None:
    tails_rows = []
    allo_rows = []
    logn_rows = []
    count_rows = []
    for stock_id, section in sorted(report["stocks"].items()):
        for variable in VARIABLES:
            fit = section["tails"][variable]
            if "zeta" in fit:
                tails_rows.append(
                    (stock_id, variable, fit["zeta"], *fit["ci95"], fit["k"], fit["x_k"], fit["n"])
                )
            else:
                tails_rows.append((stock_id, variable, "", "", "", "", "", fit.get("n", 0)))
        for mode in ("trivariate", "bivariate"):
            fit = section["allometry"][mode]
            if "g1" in fit:
                for name in ("g1", "g2", "g3"):
                    ci = fit["ci95s"][name]
                    allo_rows.append((stock_id, mode, name, fit[name], *ci, fit["n_points"]))
        for variable in VARIABLES:
            per_firm = section["lognormality"]["per_firm"][variable]
            pooled = section["lognormality"]["pooled"][variable]
            logn_rows.append(
                (
                    stock_id,
                    variable,
                    per_firm.get("percent", ""),
                    per_firm.get("passed", ""),
                    per_firm.get("tested", ""),
                    pooled.get("jb_stat", ""),
                    pooled.get("reject", ""),
                )
            )
        counts = section["counts"]
        count_rows.append(
            (
                stock_id,
                counts["series"],
                counts["patches_total"],
                counts["patches_below_min_trades"],
                counts["patches_non_directional"],
                counts["patches_directional"],
                counts["patches_zero_duration"],
            )
        )
    out = config.out()
    _write_csv(
        out / "report_tails.csv",
        ("stock_id", "variable", "zeta", "ci_lo", "ci_hi", "k", "x_k", "n"),
        tails_rows,
    )
    _write_csv(
        out / "report_allometry.csv",
        ("stock_id", "mode", "exponent", "value", "ci_lo", "ci_hi", "n_points"),
        allo_rows,
    )
    _write_csv(
        out / "report_lognormality.csv",
        ("stock_id", "variable", "percent", "passed", "tested", "pooled_jb", "pooled_reject"),
        logn_rows,
    )
    _write_csv(
        out / "report_counts.csv",
        (
            "stock_id",
            "series",
            "patches_total",
            "below_min_trades",
            "non_directional",
            "directional",
            "zero_duration",
        ),
        count_rows,
    )


def run_report(config: RunConfig) -> dict:
    """Compose report.json and its CSV tables from the stage records and the
    per-stock summaries.  patches.csv is checked by sha256, not read."""
    out = config.out()
    analysis = _read_analysis(config)
    stocks = {stock_id: summary for stock_id, (_, summary) in analysis.items()}

    config_echo = {name: getattr(config, name) for names in STAGE_SETTINGS.values() for name in names}
    config_echo["source"] = "synth" if config.synth is not None else ("tape" if config.tape else "artifacts")
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config_echo,
        "stocks": stocks,
        "totals": {
            "stocks": len(stocks),
            "series": sum(s["counts"]["series"] for s in stocks.values()),
            "patches_directional": sum(
                s["counts"]["patches_directional"] for s in stocks.values()
            ),
            "patches_total": sum(s["counts"]["patches_total"] for s in stocks.values()),
        },
    }
    _write_json(out / "report.json", report)
    _report_tables(config, report)
    # Every record passed its checks, so no stage's failure stands.
    (out / FAILURE_MARKER).unlink(missing_ok=True)
    return report


def run_pipeline(config: RunConfig) -> dict:
    """Run every stage in order; on failure leave a marker naming the stage."""
    out = config.out()
    out.mkdir(parents=True, exist_ok=True)
    table: TradeTable | None = None
    stage = "setup"
    try:
        if config.synth is not None:
            stage = "synth"
            table, _ = run_synth(config)
        stage = "ingest"
        series, _ = run_ingest(config, table)
        table = None
        stage = "segment"
        run_segment(config, series)
        series = None  # the later stages read artifacts only
        stage = "analyze"
        run_analyze(config)
        stage = "report"
        return run_report(config)
    except Exception as exc:
        _write_json(out / FAILURE_MARKER, {"stage": stage, "error": f"{type(exc).__name__}: {exc}"})
        raise
