"""Output checks and recovery scoring, computed from the artifacts alone.

Nothing here imports the program: every number is derived from the files a
run leaves behind (report.json, segmentations.json) and the planted truth the
generator or the benchmark set-up wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from pathlib import Path

# Detected and planted boundaries match when they are at most this many rows apart.
BOUNDARY_TOLERANCE = 2
# A trivariate fit derives g1, g2 and g3 from one eigenvector, so g1 = g2*g3.
TRIVARIATE_IDENTITY_TOL = 1e-9
VARIABLES = ("T", "N_m", "V_m")
# Planted tail exponent of each variable, as SynthConfig field names.
PLANTED_TAIL_FIELD = {
    "T": "duration_tail_exponent",
    "N_m": "trades_tail_exponent",
    "V_m": "value_tail_exponent",
}
EXPECTED_ARTIFACTS = (
    "activity.json",
    "segmentations.json",
    "patches.csv",
    "analysis/stocks.json",
    "report.json",
    "report_tails.csv",
    "report_allometry.csv",
    "report_lognormality.csv",
    "report_counts.csv",
)


def tree_digest(root: Path, names: tuple[str, ...] | None = None) -> tuple[str, int]:
    """sha256 over the relative path and bytes of every file (or of the named
    files that exist), and their total byte count."""
    paths = (root / n for n in names) if names else root.rglob("*")
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in paths if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def check_output(out: Path, synthetic: bool) -> list[str]:
    """Problems with one pipeline's output tree; an empty list means it passed."""
    expected = EXPECTED_ARTIFACTS + (("tape.csv", "ground_truth.json") if synthetic else ())
    problems = [f"missing artifact {name}" for name in expected if not (out / name).is_file()]
    if not (out / "plots").is_dir():
        problems.append("missing plots/")
    if problems:
        return problems
    report = json.loads((out / "report.json").read_text())
    if report.get("schema_version") != 1:
        problems.append(f"report schema {report.get('schema_version')!r}, expected 1")
    if not report.get("stocks"):
        problems.append("report has no stocks")
    for stock, section in sorted(report.get("stocks", {}).items()):
        for variable in VARIABLES:
            zeta = section["tails"][variable].get("zeta")
            if not _finite(zeta):
                problems.append(f"{stock}: zeta[{variable}] not finite: {zeta!r}")
        for mode in ("trivariate", "bivariate"):
            fit = section["allometry"][mode]
            if not all(_finite(fit.get(g)) for g in ("g1", "g2", "g3")):
                problems.append(f"{stock}: {mode} g not finite: {fit}")
        tri = section["allometry"]["trivariate"]
        if all(_finite(tri.get(g)) for g in ("g1", "g2", "g3")):
            gap = abs(tri["g1"] - tri["g2"] * tri["g3"])
            if gap > TRIVARIATE_IDENTITY_TOL:
                problems.append(f"{stock}: trivariate g1 - g2*g3 = {gap:.3g}")
    return problems


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def planted_edges(packages) -> dict[tuple[str, str], set[int]]:
    """Package start and end rows per (firm, stock) series."""
    edges: dict[tuple[str, str], set[int]] = {}
    for p in packages:
        series = edges.setdefault((p["firm_id"], p["stock_id"]), set())
        series.add(int(p["start"]))
        series.add(int(p["end"]))
    return edges


def _near(sorted_values: list[int], x: int, tolerance: int) -> bool:
    i = bisect_left(sorted_values, x - tolerance)
    return i < len(sorted_values) and sorted_values[i] <= x + tolerance


def score_segmentation(segmentations: dict, edges: dict[tuple[str, str], set[int]]) -> dict:
    """Boundary recovery against planted edges, plus counts derived from the boundaries.

    Interior boundaries exclude 0 and the series length on both sides; each
    detected one is an accepted cut.  A
    window is scanned once per accepted cut and once per final segment of at
    least 4 rows (segments shorter than that are never scanned).
    """
    planted = detected = recalled = precise = windows = 0
    for entry in segmentations["series"]:
        bounds = entry["boundaries"]
        n = bounds[-1]
        interior = bounds[1:-1]
        truth = sorted(e for e in edges.get((entry["firm_id"], entry["stock_id"]), ()) if 0 < e < n)
        planted += len(truth)
        detected += len(interior)
        recalled += sum(_near(interior, e, BOUNDARY_TOLERANCE) for e in truth)
        precise += sum(_near(truth, b, BOUNDARY_TOLERANCE) for b in interior)
        windows += len(interior) + sum(1 for a, b in zip(bounds, bounds[1:]) if b - a >= 4)
    return {
        "planted": planted,
        "detected": detected,
        "recalled": recalled,
        "precise": precise,
        "windows_scanned": windows,
    }


def zeta_errors(report: dict, planted: dict[str, dict[str, float]]) -> list[float]:
    """|zeta_hat - planted zeta| per stock and variable; planted maps stock -> variable -> zeta."""
    return [
        abs(section["tails"][variable]["zeta"] - planted[stock][variable])
        for stock, section in sorted(report["stocks"].items())
        for variable in VARIABLES
    ]


def planted_zetas(synth_fields: dict) -> dict[str, float]:
    """Planted tail exponent per variable: zipf_exponent times the configured exponent."""
    zipf = synth_fields["zipf_exponent"]
    return {v: zipf * synth_fields[field] for v, field in PLANTED_TAIL_FIELD.items()}
