"""Build one workload's inputs in a fresh interpreter: the benchmark's set-up step.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED OUT_DIR

Every set-up imports the program once, which warms the page cache and the
bytecode cache for the timed processes, and writes into OUT_DIR:

    planted.json      planted tail exponent per stock and variable
    provenance.json   library versions and BLAS threads seen by the program
    layers.json       timings of the layer calls made here

The tape workload also writes tape.csv (three seeded markets merged into one
tape), truth.json (the planted packages of every market) and run.json (the
shared stage config).  The workload constants live in workloads.py.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from score import planted_zetas
from workloads import PAPER_RUN_CONFIG, PAPER_SYNTH, TAPE_MARKET_SYNTH, TAPE_MARKETS, TAPE_RUN_CONFIG


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _blas_threads() -> str:
    """Thread count the bundled OpenBLAS reports, or the environment's setting."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if name in os.environ:
            return f"{name}={os.environ[name]}"
    return "library default"


def market_seed(seed: int, market: int) -> int:
    return int(np.random.SeedSequence([seed, market]).generate_state(1)[0])


def build_tape(seed: int, out: Path, synth, trades, layers: dict) -> dict[str, dict]:
    """Merge seeded markets (one stock each, shared firm ids) into one tape.

    This is the synth stage's work, done for three markets: generate, write
    the tape, write the truth.
    """
    build_start = time.perf_counter()
    tables, planted, packages = [], {}, []
    for m in range(TAPE_MARKETS):
        config = replace(
            synth.SynthConfig(**TAPE_MARKET_SYNTH), stock_id=f"S{m + 1}", seed=market_seed(seed, m)
        )
        start = time.perf_counter()
        table, truth = synth.generate(config)
        layers["synth.generate_s"] += time.perf_counter() - start
        layers["synth.trades"] += len(table)
        layers["synth.packages"] += len(truth.packages)
        tables.append(table)
        planted[config.stock_id] = planted_zetas(asdict(config))
        packages.extend(truth.to_json_dict()["packages"])

    firms = tables[0].firms
    if any(t.firms != firms for t in tables):
        raise SystemExit("markets disagree on firm ids")
    timestamps = np.concatenate([t.timestamps for t in tables])
    # Stable order keeps each series' tie order, so planted rows stay valid.
    order = np.argsort(timestamps, kind="stable")
    merged = trades.TradeTable(
        timestamps[order],
        np.concatenate([t.firm_codes for t in tables])[order],
        np.concatenate([np.full(len(t), m, dtype=np.int32) for m, t in enumerate(tables)])[order],
        np.concatenate([t.signs for t in tables])[order],
        np.concatenate([t.values for t in tables])[order],
        list(firms),
        [f"S{m + 1}" for m in range(TAPE_MARKETS)],
    )
    start = time.perf_counter()
    merged.to_csv(out / "tape.csv")
    layers["trades.to_csv_s"] += time.perf_counter() - start
    _write(out / "truth.json", {"packages": packages})
    layers["pipeline.synth_s"] += time.perf_counter() - build_start
    _write(out / "run.json", TAPE_RUN_CONFIG)
    return planted


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    import patchscale.cli  # noqa: F401  the import every CLI process pays
    from patchscale import synth, trades

    if not Path(patchscale.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"patchscale imported from {patchscale.cli.__file__}, not {root / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    layers = dict.fromkeys(
        ("synth.generate_s", "synth.trades", "synth.packages", "trades.to_csv_s", "pipeline.synth_s"), 0
    )
    if workload == "paper-all":
        _write(out / "run.json", PAPER_RUN_CONFIG)
        planted = {"SYN": planted_zetas(asdict(synth.SynthConfig(**PAPER_SYNTH)))}
    elif workload == "tape-staged":
        planted = build_tape(seed, out, synth, trades, layers)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    _write(out / "planted.json", planted)
    _write(out / "layers.json", layers)
    _write(
        out / "provenance.json",
        {"numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": _blas_threads()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
