"""The benchmark's workloads: what each one runs, on which inputs, and why.

One iteration of a workload is one pipeline: the CLI processes that together
turn one input into one report, run one after the other.  Every argv below is
completed with ``--output-dir`` at run time, and uses only default flags plus
--seed, --tape, --config and --output-dir, so that removing any other knob
cannot break the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The paper-like generator with 150 firms instead of 1,500, which take ~100 s
# per run.  Per-firm JB tests below n = 50 use Monte Carlo critical values,
# one table per distinct n, each ~10% of an iteration, so the JB cost swings
# with the number of distinct n tested.  Firms of 45+ patches are tested, and
# ~60 packages per firm put the bulk of the firms' patch counts near [45, 50):
# with 150 firms every n in that range occurred on ten of ten seeds tried,
# while with 100 firms one n or two were missing on half of them.  Trade
# counts get the tape workload's lighter tail: with the paper's (1.8) the
# tape's size swings by ~18% between seeds.
PAPER_SYNTH = {"n_firms": 150, "packages_per_firm_mean": 60.0, "trades_tail_exponent": 6.0}
PAPER_RUN_CONFIG = {"synth": PAPER_SYNTH, "min_firm_patches": 45}
# One market of the tape workload.  Recovery differs a lot from firm to firm
# (per-firm recall runs from under 0.1 to 0.8), so the workload needs many
# firms for its scores to hold still across seeds; with the paper's
# trade-count tail (1.8) the tape's size would swing by ~15% between seeds,
# so trade counts get a lighter tail while T and V_m keep the paper's.
# ~160 packages per firm keep every stock above ~1,650 directional patches:
# the bootstrap's resample arrays (1000 x m x 3 doubles) then stay above
# glibc's 32 MiB mmap ceiling and are returned to the system when freed.
# Were some stocks below it, a small stock analyzed before a large one would
# leave ~35 MB of heap behind, and peak RSS would jump by ~20% on some seeds
# and not on others.
TAPE_MARKETS = 3
TAPE_MARKET_SYNTH = {"n_firms": 20, "packages_per_firm_mean": 160.0, "trades_tail_exponent": 6.0}
# Firms with fewer patches are not tested, so the per-firm JB tests use the
# asymptotic critical value and no Monte Carlo table is built.
TAPE_RUN_CONFIG = {"min_trades_per_year": 0, "min_active_days": 0, "min_firm_patches": 50}


@dataclass(frozen=True)
class Pipeline:
    stages: list[list[str]]  # one argv per CLI process
    replay: list[str]  # the same settings as one `all` argv, for the traced replay
    synthetic: bool  # the pipeline generates its own tape and ground truth


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rationale: str

    def pipeline(self, seed: int, inputs: Path) -> Pipeline:
        common = ["--config", str(inputs / "run.json"), "--seed", str(seed)]
        if self.name == "paper-all":
            argv = ["all", *common]
            return Pipeline([argv], argv, synthetic=True)
        tape = ["--tape", str(inputs / "tape.csv")]
        stages = [
            ["ingest", *common, *tape],
            ["segment", *common, *tape],
            ["analyze", *common],
            ["report", *common],
        ]
        return Pipeline(stages, ["all", *common, *tape], synthetic=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-all",
            "documented quick start at paper-like firm shape: JB Monte Carlo, bootstrap, synth and tape writes",
            "One `patchscale all` process on the paper-like generator settings with 150 firms "
            "of ~60 packages each (~430k trades), firms of 45+ patches tested.  About half of the "
            "per-firm JB tests fall at n < 50 and so use the Monte Carlo critical values, which "
            "every process builds anew.  It also writes the tape.  Heavy on lognormal (JB MC), "
            "allometry (bootstrap), synth and trades writes; reading the tape costs it nothing.",
        ),
        Workload(
            "tape-staged",
            "real-tape path stage by stage: four processes, tape parsed twice, long series, light JB",
            "The real-tape path run stage by stage as the README prescribes.  Set-up builds one "
            "CSV tape from three seeded markets with distinct stock ids and shared firm ids, "
            "20 firms of ~160 packages each per market (~460k trades), and a shared run.json with "
            "the activity filters at 0 and min_firm_patches at 50.  The timed run is four "
            "processes: ingest, segment, analyze and report; ingest and segment each parse the "
            "tape, and each process pays the imports again.  Heavy on trades reads, per-process "
            "imports, segmentation (longer series than paper-all's) and allometry.  Only "
            "firms with >= 50 patches are JB-tested, so lognormal is light.  The tape is not "
            "written in the timed run.",
        ),
    )
}
