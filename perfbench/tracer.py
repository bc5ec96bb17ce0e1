"""Traced runs: stage spans around the pipeline, and a replay of each layer's calls.

Usage:
    python3 perfbench/tracer.py stage  SPANS RUN_ID -- CLI_ARGV...
    python3 perfbench/tracer.py replay SPANS RUN_ID STAGE_DIR [--staged] -- CLI_ARGV...

`stage` does in one fresh process what the CLI process with the same argv
does, with a span around each pipeline.run_* call.  `replay` starts a fresh
process, builds the same RunConfig, and calls each stage's layer functions
with the same arguments the stage used, timing every call.  It checks that
its results equal the stage run's artifacts in STAGE_DIR and records every
difference in SPANS under "mismatches".

A span is (name, start, end, parent, run_id, pid).  Spans stay in memory and
are written when the process ends; perf_counter reads CLOCK_MONOTONIC, so
spans from different processes share one time base.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path


class Spans:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        self.records.append({})
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.records[index] = {
                "id": index,
                "name": name,
                "start": start,
                "end": time.perf_counter(),
                "parent": parent,
                "run_id": self.run_id,
                "pid": os.getpid(),
            }


def _config(argv: list[str]):
    from patchscale import cli

    return cli.make_run_config(cli.build_parser().parse_args(argv))


def stage(spans: Spans, argv: list[str]) -> dict:
    with spans.span("cli.import"):
        from patchscale import cli, pipeline  # noqa: F401  cli is what the CLI process imports
    config = _config(argv)
    command = argv[0]
    if command != "all":
        with spans.span(f"pipeline.{command}"):
            getattr(pipeline, f"run_{command}")(config)
        return {}
    # The order of pipeline.run_pipeline, one span per stage.
    table = None
    if config.synth is not None:
        with spans.span("pipeline.synth"):
            table, _ = pipeline.run_synth(config)
    with spans.span("pipeline.ingest"):
        table, _ = pipeline.run_ingest(config, table)
    with spans.span("pipeline.segment"):
        pipeline.run_segment(config, table)
    with spans.span("pipeline.analyze"):
        pipeline.run_analyze(config)
    with spans.span("pipeline.report"):
        pipeline.run_report(config)
    return {}


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _derived_seed(seed: int, stream: int) -> int:
    import numpy as np

    # The pipeline's documented derivation: [seed, 2] feeds the MC null, [seed, 3] the bootstrap.
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def replay(spans: Spans, argv: list[str], stage_dir: Path, staged: bool) -> dict:
    with spans.span("cli.import"):
        from patchscale import allometry, lognormal, patches, pipeline, segmentation, synth, tails, trades
        from patchscale import cli  # noqa: F401  what the CLI process imports
        from patchscale.errors import NumericalError
    config = _config(argv)
    out = config.out()
    out.mkdir(parents=True, exist_ok=True)
    mismatches: list[str] = []
    counts: dict[str, float] = {}

    def expect(what: str, replayed, artifact) -> None:
        same = (
            math.isclose(replayed, artifact, rel_tol=1e-12, abs_tol=0.0)
            if isinstance(replayed, float) and isinstance(artifact, float)
            else replayed == artifact
        )
        if not same:
            mismatches.append(f"{what}: replay {replayed!r} != artifact {artifact!r}")

    table = None
    if config.synth is not None:
        with spans.span("replay.synth"):
            with spans.span("synth.generate"):
                table, truth = synth.generate(replace(config.synth, seed=config.seed))
            with spans.span("trades.to_csv"):
                table.to_csv(out / "tape.csv")
        counts["synth.trades"] = len(table)
        counts["synth.packages"] = len(truth.packages)
        expect("tape.csv bytes", (out / "tape.csv").read_bytes() == (stage_dir / "tape.csv").read_bytes(), True)
        tape = out / "tape.csv"
    else:
        tape = Path(config.tape)
    counts["trades.tape_bytes"] = tape.stat().st_size

    activity = json.loads((stage_dir / "activity.json").read_text())
    with spans.span("replay.ingest"):
        if table is None:
            with spans.span("trades.from_csv"):
                table = trades.TradeTable.from_csv(tape)
        with spans.span("trades.filter_active_firms"):
            qualified = trades.filter_active_firms(
                table,
                min_trades_per_year=config.min_trades_per_year,
                min_active_days=config.min_active_days,
                mode=config.activity_mode,
            )
        with spans.span("trades.activity"):
            table.activity()
    expect("n_trades", len(table), activity["n_trades"])
    expect("qualified firms", sorted(qualified), activity["qualified_firms"])
    if not staged:
        # An in-memory pipeline never reads its tape; time the read on its own.
        with spans.span("trades.from_csv"):
            trades.TradeTable.from_csv(tape)

    segmentations = json.loads((stage_dir / "segmentations.json").read_text())["series"]
    policy = segmentation.SignificancePolicy(
        mode=config.significance_mode, mc_trials=config.mc_trials, seed=_derived_seed(config.seed, 2)
    )

    def fill_null_tables() -> None:
        for n in range(4, policy.small_n_mc):
            segmentation.significance_mc(0.0, n, policy.mc_trials, policy.seed)

    directional: dict[str, list] = {}
    total_patches = series_trades = 0
    with spans.span("replay.segment"):
        if staged:
            with spans.span("trades.from_csv"):
                table = trades.TradeTable.from_csv(tape)
        with spans.span("segmentation.mc_null_cold"):
            fill_null_tables()
        with spans.span("trades.iter_series"):
            series_list = list(
                table.iter_series(qualified if len(qualified) < len(table.firms) else None)
            )
        boundaries = []
        for series in series_list:
            with spans.span("segmentation.segment"):
                seg = segmentation.segment(series, config.threshold, policy=policy)
            with spans.span("patches.cut_classify"):
                cut = patches.cut_patches(series, seg)
                directions = [patches.classify(p, config.theta) for p in cut]
            boundaries.append([series.firm_id, series.stock_id, list(seg.boundaries)])
            total_patches += len(cut)
            series_trades += len(series)
            directional.setdefault(series.stock_id, []).extend(
                patches.as_directional(p, d)
                for p, d in zip(cut, directions)
                if d != patches.NON_DIRECTIONAL and p.end - p.start >= config.min_patch_trades
            )
    with spans.span("segmentation.mc_null_warm"):
        fill_null_tables()
    expect(
        "boundaries per series",
        boundaries,
        [[s["firm_id"], s["stock_id"], s["boundaries"]] for s in segmentations],
    )
    with open(stage_dir / "patches.csv", encoding="utf-8") as handle:
        expect("patch rows", total_patches, sum(1 for _ in handle) - 1)
    counts["segmentation.series_trades"] = series_trades
    counts["patches.total"] = total_patches

    report = json.loads((stage_dir / "report.json").read_text())["stocks"]
    bootstrap_seed = _derived_seed(config.seed, 3)
    positives: dict[tuple[str, str], object] = {}
    points_total = cells = 0
    jb_sizes: set[int] = set()
    with spans.span("replay.analyze"):
        with spans.span("pipeline.read_patch_rows"):
            pipeline.read_patch_rows(stage_dir / "patches.csv")
        for stock in sorted(directional):
            chosen = directional[stock]
            section = report[stock]
            expect(f"{stock} directional patches", len(chosen), section["counts"]["patches_directional"])
            values = patches.variables(chosen)
            for variable in lognormal.VARIABLES:
                positive = values[variable][values[variable] > 0]
                positives[(stock, variable)] = positive
                with spans.span("tails.choose_k"):
                    try:
                        k = tails.choose_k(positive)
                    except NumericalError:
                        k = tails.choose_k(positive, strategy="fraction", fraction=0.1)
                with spans.span("tails.hill"):
                    fit = tails.hill(positive, k, variable=variable)
                expect(f"{stock} zeta[{variable}]", fit.zeta, section["tails"][variable]["zeta"])
            points, _ = allometry.log_points(chosen)
            points_total += len(points)
            cells += 6 * config.bootstrap_samples * len(points)
            with spans.span("allometry.trivariate_fit"):
                tri = allometry.trivariate_fit(points, config.bootstrap_samples, bootstrap_seed)
            with spans.span("allometry.bivariate_fit"):
                bi = allometry.bivariate_fit(points, config.bootstrap_samples, bootstrap_seed)
            for mode, fit in (("trivariate", tri), ("bivariate", bi)):
                for g in ("g1", "g2", "g3"):
                    expect(f"{stock} {mode} {g}", getattr(fit, g), section["allometry"][mode][g])
                    expect(
                        f"{stock} {mode} {g} ci95",
                        list(fit.ci95s[g]),
                        section["allometry"][mode]["ci95s"][g],
                    )
            with spans.span("lognormal.per_firm_cold"):
                summaries = [
                    lognormal.per_firm_lognormality(chosen, v, config.min_firm_patches)
                    for v in lognormal.VARIABLES
                ]
            for summary in summaries:
                expect(
                    f"{stock} JB percent[{summary.variable}]",
                    summary.percent,
                    section["lognormality"]["per_firm"][summary.variable]["percent"],
                )
                jb_sizes.update(r.n for r in summary.results if r.n < lognormal.ASYMPTOTIC_MIN_N)
            with spans.span("lognormal.pooled"):
                for v in lognormal.VARIABLES:
                    lognormal.pooled_lognormality(chosen, v)
            with spans.span("allometry.per_firm_exponents"):
                firm_fits = allometry.per_firm_exponents(chosen, config.min_firm_patches)
            expect(f"{stock} firms with exponents", len(firm_fits), section["per_firm_exponents"]["n_firms"])
    with spans.span("lognormal.per_firm_warm"):
        for stock in sorted(directional):
            for v in lognormal.VARIABLES:
                lognormal.per_firm_lognormality(directional[stock], v, config.min_firm_patches)
    counts["allometry.points"] = points_total
    counts["allometry.bootstrap_cells"] = cells
    counts["lognormal.mc_sizes"] = len(jb_sizes)

    with spans.span("tails.ccdf"):
        for positive in positives.values():
            tails.ccdf(positive)
    # emit_plot_data reads patches.csv and the analysis tree from its output dir.
    shutil.copy(stage_dir / "patches.csv", out / "patches.csv")
    shutil.copytree(stage_dir / "analysis", out / "analysis", dirs_exist_ok=True)
    with spans.span("replay.report"):
        with spans.span("pipeline.emit_plot_data"):
            pipeline.emit_plot_data(config)
    plots = {base: _files(base / "plots") for base in (out, stage_dir)}
    expect("plot files", sorted(plots[out]), sorted(plots[stage_dir]))
    for rel, data in plots[out].items():
        if data != plots[stage_dir].get(rel):
            mismatches.append(f"plot data differs: {rel}")
    return {"counts": counts, "mismatches": mismatches}


def main() -> int:
    split = sys.argv.index("--")
    mode, spans_path, run_id, *rest = sys.argv[1:split]
    argv = sys.argv[split + 1 :]
    spans = Spans(run_id)
    if mode == "stage":
        result = stage(spans, argv)
    else:
        result = replay(spans, argv, Path(rest[0]), staged="--staged" in rest[1:])
    result["spans"] = spans.records
    Path(spans_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
