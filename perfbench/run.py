"""Benchmark of the trade-tape-to-report path: closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under src/ is run as a user runs it: one fresh `patchscale`
CLI process per invocation (``python3 -m patchscale.cli`` with src/ on the
path), one after another, never two at once.  Each run

1. sets the workload up SETUP_REPEATS times from scratch, each time in a
   fresh interpreter (perfbench/setup_inputs.py), and reports the median as
   setup_s;
2. runs the workload's pipeline again and again for about --seconds (at
   least once), and checks every iteration's output: exit codes, the
   expected artifacts, the report schema, finite exponents, the trivariate
   identity g1 = g2*g3, and a byte-identical output tree across iterations
   and across runs at one seed;
3. scores boundary recovery against the planted packages (perfbench/score.py);
4. with --trace 1, stops after one untraced iteration, runs the pipeline
   again under perfbench/tracer.py (stage spans, then a replay of every
   layer call in a fresh process) and reports the per-layer metrics instead
   of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.  Work
files live under .bench_run/ in the repository root and are removed at the
end of the run; a short record of each run is kept in .bench_run/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from score import check_output, planted_edges, score_segmentation, tree_digest, zeta_errors
from workloads import WORKLOADS, Pipeline

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 3
# A run must end within 180 s: no new iteration starts once one more would
# pass RUN_BUDGET_S, and any process still running at RUN_LIMIT_S is killed.
RUN_BUDGET_S = 165.0
RUN_LIMIT_S = 175.0
# Set-up files that must come out byte-identical on every repetition.
SETUP_INPUTS = ("planted.json", "run.json", "tape.csv", "truth.json")
STAGES = ("synth", "ingest", "segment", "analyze", "report")


@dataclass
class Proc:
    code: int
    start: float
    end: float
    cpu_s: float
    maxrss_mb: float


@dataclass
class PipelineRun:
    procs: list[Proc]
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    tree_bytes: int = 0

    @property
    def wall(self) -> float:
        return self.procs[-1].end - self.procs[0].start


def child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_child(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run one process to completion; its rusage comes from wait4."""
    with open(log, "ab") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    return Proc(proc.returncode, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli(argv: list[str], out: Path) -> list[str]:
    return [sys.executable, "-m", "patchscale.cli", *argv, "--output-dir", str(out)]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_LIMIT_S
        self.dir = WORK / "run"
        self.logs = self.dir / "logs"
        self.problems: list[str] = []
        self.recovery: dict[str, int] = {}
        self.zeta_err_max: float | None = None
        self.attempted = 0
        self.failed = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> tuple[Path, list[float]]:
        times, digests = [], []
        for rep in range(SETUP_REPEATS):
            target = self.dir / f"setup-{rep}"
            argv = [sys.executable, str(BENCH / "setup_inputs.py"), self.workload.name, str(self.seed), str(target)]
            proc = run_child(argv, self.logs / "setup.log", self.deadline)
            if proc.code != 0:
                raise SystemExit(f"set-up failed with exit code {proc.code}; see {self.logs / 'setup.log'}")
            times.append(proc.end - proc.start)
            digests.append(tree_digest(target, SETUP_INPUTS)[0])
            if rep:
                shutil.rmtree(target)
        if len(set(digests)) != 1:
            self.problems.append("set-up inputs differ between repetitions at one seed")
        return self.dir / "setup-0", times

    # -- timed pipelines ------------------------------------------------
    def run_pipeline(self, p: Pipeline, out: Path) -> PipelineRun:
        procs: list[Proc] = []
        problems: list[str] = []
        for argv in p.stages:
            proc = run_child(cli(argv, out), self.logs / f"{out.name}.log", self.deadline)
            procs.append(proc)
            if proc.code != 0:
                problems.append(f"`{argv[0]}` exited with {proc.code}")
                break
        if not problems:
            problems = check_output(out, p.synthetic)
        digest, size = tree_digest(out) if out.is_dir() else ("", 0)
        return PipelineRun(procs, problems, digest, size)

    def known_digests(self, inputs: Path) -> tuple[dict, str]:
        store = WORK / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{self.workload.name}:{self.seed}:{tree_digest(inputs, SETUP_INPUTS)[0]}"
        return known, key

    def timed_loop(self, inputs: Path, pipeline: Pipeline) -> list[PipelineRun]:
        known, key = self.known_digests(inputs)
        runs: list[PipelineRun] = []
        loop_start = time.perf_counter()
        while True:
            it = len(runs)
            run = self.run_pipeline(pipeline, self.dir / f"it{it}")
            self.attempted += 1
            expected = runs[0].digest if it else known.get(key)
            if not run.problems and expected and run.digest != expected:
                run.problems.append("output tree differs from an earlier run at this seed")
            if run.problems:
                self.failed += 1
                self.problems.extend(f"iteration {it}: {msg}" for msg in run.problems)
            if it:
                shutil.rmtree(self.dir / f"it{it}", ignore_errors=True)
            else:
                self.score(inputs, pipeline)
            runs.append(run)
            # A new iteration starts while it would end less than half its
            # length past --seconds, so a run measures for about --seconds.
            # The traced pass needs only one untraced iteration to compare with.
            now = time.perf_counter()
            reserve = 2 * run.wall if self.trace else 0.0
            done = self.trace or now - loop_start + run.wall / 2 >= self.seconds
            if done or now - self.started + run.wall + reserve > RUN_BUDGET_S:
                break
        if not runs[0].problems:
            known[key] = runs[0].digest
            (WORK / "digests.json").write_text(json.dumps(known, indent=1, sort_keys=True))
        return runs

    # -- recovery -------------------------------------------------------
    def score(self, inputs: Path, pipeline: Pipeline) -> None:
        out = self.dir / "it0"
        if not (out / "report.json").is_file():
            return
        truth_path = out / "ground_truth.json" if pipeline.synthetic else inputs / "truth.json"
        edges = planted_edges(json.loads(truth_path.read_text())["packages"])
        self.recovery = score_segmentation(json.loads((out / "segmentations.json").read_text()), edges)
        planted = json.loads((inputs / "planted.json").read_text())
        self.zeta_err_max = max(zeta_errors(json.loads((out / "report.json").read_text()), planted))

    # -- traced pass ----------------------------------------------------
    def traced(self, inputs: Path, p: Pipeline, cli_digest: str, untraced_wall: float) -> dict:
        run_id = f"{self.workload.name}-{self.seed}-{os.getpid()}"
        out = self.dir / "traced"
        tracer = [sys.executable, str(BENCH / "tracer.py")]
        stage_files, procs = [], []
        for k, argv in enumerate(p.stages):
            spans = self.dir / f"stage-{k}.json"
            cmd = [*tracer, "stage", str(spans), run_id, "--", *argv, "--output-dir", str(out)]
            proc = run_child(cmd, self.logs / "traced.log", self.deadline)
            procs.append(proc)
            if proc.code != 0:
                raise TraceFailure(f"traced `{argv[0]}` exited with {proc.code}")
            stage_files.append(spans)
        if tree_digest(out)[0] != cli_digest:
            raise TraceFailure("traced output tree differs from the CLI output tree")
        replay_file = self.dir / "replay.json"
        # Staged: each stage process reads its inputs from files.
        cmd = [*tracer, "replay", str(replay_file), run_id, str(out), *(["--staged"] if len(p.stages) > 1 else [])]
        cmd += ["--", *p.replay, "--output-dir", str(self.dir / "replay")]
        proc = run_child(cmd, self.logs / "traced.log", self.deadline)
        if proc.code != 0:
            raise TraceFailure(f"replay exited with {proc.code}")
        replayed = json.loads(replay_file.read_text())
        if replayed["mismatches"]:
            raise TraceFailure("replay differs from the stage artifacts: " + "; ".join(replayed["mismatches"][:5]))
        stage_spans = [s for f in stage_files for s in json.loads(f.read_text())["spans"]]
        spans = stage_spans + replayed["spans"]
        report = json.loads((out / "report.json").read_text())
        segmented = score_segmentation(json.loads((out / "segmentations.json").read_text()), {})
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        (WORK / "results" / f"trace-{self.workload.name}-{self.seed}.json").write_text(json.dumps(spans))
        return layer_metrics(
            stage_spans,
            replayed,
            traced_wall=procs[-1].end - procs[0].start,
            untraced_wall=untraced_wall,
            directional=sum(s["counts"]["patches_directional"] for s in report["stocks"].values()),
            segmented=segmented,
            setup_layers=json.loads((inputs / "layers.json").read_text()),
        )


class TraceFailure(Exception):
    pass


def ratio(part, whole) -> float | None:
    return part / whole if part is not None and whole else None


def _sum(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(
    stage_spans: list[dict],
    replayed: dict,
    *,
    traced_wall: float,
    untraced_wall: float,
    directional: int,
    segmented: dict,
    setup_layers: dict,
) -> dict[str, float]:
    """Per-layer numbers from the stage spans and the replay.

    A stage's self time is its span minus the replayed layer calls of that
    stage (the children of replay.<stage>): the time the stage spends outside
    the layer functions, in per-row Python and file I/O.  It is reported as
    measured, so it can dip below 0 when the stage's own share is smaller
    than the run-to-run noise of its layer calls.  The tape workload has no
    synth stage; its synth numbers come from the set-up, which does that
    stage's work for three markets.
    """
    spans = replayed["spans"]
    counts = replayed["counts"]
    by_id = {s["id"]: s for s in spans}
    m: dict[str, float] = {}
    imports = [s["end"] - s["start"] for s in stage_spans if s["name"] == "cli.import"]
    m["cli.import_s"] = statistics.median(imports)
    synthetic = "synth.trades" in counts
    for stage in STAGES:
        total = _sum(stage_spans, f"pipeline.{stage}")
        children = sum(
            s["end"] - s["start"]
            for s in spans
            if s["parent"] is not None and by_id[s["parent"]]["name"] == f"replay.{stage}"
        )
        if stage == "synth" and not synthetic:
            total = setup_layers["pipeline.synth_s"]
            children = setup_layers["synth.generate_s"] + setup_layers["trades.to_csv_s"]
        m[f"pipeline.{stage}_s"] = total
        m[f"pipeline.{stage}_self_s"] = total - children
    m["synth.generate_s"] = _sum(spans, "synth.generate") if synthetic else setup_layers["synth.generate_s"]
    m["synth.trades"] = counts["synth.trades"] if synthetic else setup_layers["synth.trades"]
    m["synth.packages"] = counts["synth.packages"] if synthetic else setup_layers["synth.packages"]
    m["trades.to_csv_s"] = _sum(spans, "trades.to_csv") if synthetic else setup_layers["trades.to_csv_s"]
    tape_mb = counts["trades.tape_bytes"] / 1e6
    reads = [s for s in spans if s["name"] == "trades.from_csv"]
    m["trades.to_csv_mb_per_s"] = tape_mb / m["trades.to_csv_s"]
    m["trades.from_csv_s"] = _sum(spans, "trades.from_csv") / len(reads)
    m["trades.from_csv_mb_per_s"] = tape_mb / m["trades.from_csv_s"]
    m["trades.iter_series_s"] = _sum(spans, "trades.iter_series")
    m["trades.activity_s"] = _sum(spans, "trades.activity")
    m["trades.tape_bytes"] = counts["trades.tape_bytes"]
    m["segmentation.segment_s"] = _sum(spans, "segmentation.segment")
    m["segmentation.segment_ns_per_trade"] = 1e9 * m["segmentation.segment_s"] / counts["segmentation.series_trades"]
    m["segmentation.cuts"] = segmented["detected"]
    m["segmentation.windows_scanned"] = segmented["windows_scanned"]
    m["segmentation.cut_accept_ratio"] = segmented["detected"] / segmented["windows_scanned"]
    m["segmentation.mc_null_cold_s"] = _sum(spans, "segmentation.mc_null_cold")
    m["segmentation.mc_null_warm_s"] = _sum(spans, "segmentation.mc_null_warm")
    m["patches.cut_classify_s"] = _sum(spans, "patches.cut_classify")
    m["patches.total"] = counts["patches.total"]
    m["patches.directional"] = directional
    for name in ("tails.choose_k", "tails.hill", "tails.ccdf"):
        m[f"{name}_s"] = _sum(spans, name)
    for name in ("trivariate_fit", "bivariate_fit", "per_firm_exponents"):
        m[f"allometry.{name}_s"] = _sum(spans, f"allometry.{name}")
    m["allometry.points"] = counts["allometry.points"]
    m["allometry.bootstrap_ns_per_cell"] = (
        1e9 * (m["allometry.trivariate_fit_s"] + m["allometry.bivariate_fit_s"]) / counts["allometry.bootstrap_cells"]
    )
    m["lognormal.per_firm_cold_s"] = _sum(spans, "lognormal.per_firm_cold")
    m["lognormal.per_firm_warm_s"] = _sum(spans, "lognormal.per_firm_warm")
    m["lognormal.mc_sizes"] = counts["lognormal.mc_sizes"]
    m["lognormal.pooled_s"] = _sum(spans, "lognormal.pooled")
    m["pipeline.read_patch_rows_s"] = _sum(spans, "pipeline.read_patch_rows")
    m["pipeline.emit_plot_data_s"] = _sum(spans, "pipeline.emit_plot_data")
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = len(stage_spans) + len(spans)
    return m


def provenance(seed: int, workload, inputs: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    libs = json.loads((inputs / "provenance.json").read_text())
    return {
        "workload": workload.name,
        "rationale": workload.rationale,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **libs,
        "git_commit": commit,
        "src_digest": tree_digest(ROOT / "src" / "patchscale")[0] if commit is None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "patchscale" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'patchscale'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.dir, ignore_errors=True)
    run.logs.mkdir(parents=True)
    inputs, setup_times = run.setup()
    os.sync()  # the set-up's writes reach the disk before the clock starts
    pipeline = run.workload.pipeline(args.seed, inputs)
    runs = run.timed_loop(inputs, pipeline)

    walls = [r.wall for r in runs]
    wall = statistics.median(walls)
    cpu = statistics.median(sum(p.cpu_s for p in r.procs) for r in runs)
    rec = run.recovery
    values: dict[str, float] = {
        "wall_s": wall,
        "peak_rss_mb": statistics.median(max(p.maxrss_mb for p in r.procs) for r in runs),
        "setup_s": statistics.median(setup_times),
        "boundary_recall": ratio(rec.get("recalled"), rec.get("planted")),
        "boundary_precision": ratio(rec.get("precise"), rec.get("detected")),
    }
    if args.trace:
        run.attempted += 1
        try:
            values = run.traced(inputs, pipeline, runs[0].digest, wall)
        except TraceFailure as exc:
            run.failed += 1
            run.problems.append(str(exc))
            values = {}
        values.update(
            {
                "cli.processes": len(pipeline.stages),
                "cli.cpu_s": cpu,
                "cli.cpu_util": cpu / wall,
                "pipeline.artifact_bytes": runs[0].tree_bytes,
                "zeta_err_max": run.zeta_err_max,
            }
        )

    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            run.problems.append(f"metric {metric['name']} not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not run.problems
    record = {
        "provenance": provenance(args.seed, run.workload, inputs),
        "iterations": len(runs),
        "iteration_walls_s": walls,
        "iteration_cpu_s": [sum(p.cpu_s for p in r.procs) for r in runs],
        "process_walls_s": [[p.end - p.start for p in r.procs] for r in runs],
        "setup_times_s": setup_times,
        "recovery": rec,
        "problems": run.problems,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    shutil.rmtree(run.dir, ignore_errors=True)

    print(json.dumps(record))
    table = dict(metrics)
    if not args.trace:
        # Bounded metrics must never read 0 and must hold still between seeds;
        # these two do neither, so they are printed here and not bounded.
        table["error_rate"] = {"value": run.failed / run.attempted, "unit": "ratio"}
        table["zeta_err_max"] = {"value": run.zeta_err_max, "unit": "abs_err"}
    for metric, entry in table.items():
        value = entry["value"]
        shown = f"{value:>16.6g}" if value is not None else f"{'n/a':>16s}"
        print(f"{metric:40s} {shown} {entry['unit']}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
