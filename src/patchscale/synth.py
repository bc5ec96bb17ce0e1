"""Synthetic trade-tape generator with planted directional packages.

The generator plants, per firm, a sequence of one-sided trade packages whose
size scales with a heavy-tailed firm size: a firm of log-size L trades
packages with ln V ~ mu_V + L / zeta_V + noise, and likewise for trade count
and duration.  Exponentiating an exponential log-size yields Pareto tails
with the configured exponents, while each firm's own packages stay lognormal
around its size level.  Packages are contaminated with a bounded fraction of
opposite-side value and optionally separated by short mixed-side churn, so a
detector has realistic work to do.  Trades are in whole cents, like the
currency amounts of a real tape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .patches import DIRECTION_BUY, DIRECTION_SELL
from .trades import TradeTable

DEFAULT_STOCK_ID = "SYN"


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Generator knobs; the defaults reproduce a market-like mid-size tape.

    Tail exponents are attained exactly when zipf_exponent is 1; in general
    the realized exponent of each variable is zipf_exponent times the
    configured one.  noise_fraction is the opposite-side value planted into
    every package as a fraction of the dominant-side value, and must keep
    the dominant share above theta_target.  Every trade value is a whole
    number of cents, rounded to the nearest and never below one cent.
    """

    n_firms: int = 1500
    zipf_exponent: float = 1.0
    packages_per_firm_mean: float = 30.0
    value_mu0: float = 10.82
    value_sigma: float = 0.5
    value_tail_exponent: float = 2.0
    trades_mu0: float = 3.4
    trades_sigma: float = 0.2
    trades_tail_exponent: float = 1.8
    trades_value_coupling: float = 1.1
    duration_mu0: float = 7.6
    duration_sigma: float = 0.432
    duration_tail_exponent: float = 1.3
    duration_value_coupling: float = 1.9
    child_value_sigma: float = 0.25
    noise_fraction: float = 0.10
    direction_flip_prob: float = 0.95
    gap_mean: float = 5000.0
    churn_prob: float = 0.10
    churn_trades_mean: float = 6.0
    churn_value_mu: float = 6.2
    churn_value_sigma: float = 0.5
    stock_id: str = DEFAULT_STOCK_ID
    theta_target: float = 0.75
    seed: int = 2001
    start_time: int = 1_577_836_800

    def __post_init__(self) -> None:
        if self.n_firms < 1:
            raise ValueError(f"n_firms must be >= 1, got {self.n_firms}")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if self.packages_per_firm_mean <= 0:
            raise ValueError("packages_per_firm_mean must be positive")
        for name in ("value_tail_exponent", "trades_tail_exponent", "duration_tail_exponent"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("value_sigma", "trades_sigma", "duration_sigma", "child_value_sigma", "churn_value_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.5 < self.theta_target <= 1.0:
            raise ValueError(f"theta_target must be in (0.5, 1], got {self.theta_target}")
        if self.noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        if self.noise_fraction >= 1.0 - self.theta_target:
            raise ValueError(
                f"noise_fraction must stay below 1 - theta_target = "
                f"{1.0 - self.theta_target:.3f} so planted packages classify "
                f"directional by construction, got {self.noise_fraction}"
            )
        for name in ("direction_flip_prob", "churn_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.gap_mean <= 0:
            raise ValueError("gap_mean must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")


@dataclass(frozen=True, slots=True)
class PlantedPackage:
    """Ground truth for one planted package, indexed into its firm's series.

    start and end are the [start, end) row range of the package inside the
    time-ordered (firm, stock) signed series, counting both dominant and
    planted opposite-side trades.  N_m and V_m cover the dominant side only.
    """

    firm_id: str
    stock_id: str
    start: int
    end: int
    direction: str
    T: int
    N_m: int
    V_m: float


@dataclass(frozen=True, slots=True)
class GroundTruth:
    packages: tuple[PlantedPackage, ...]
    firm_sizes: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "firm_sizes": {k: float(v) for k, v in sorted(self.firm_sizes.items())},
            "packages": [
                {
                    "firm_id": p.firm_id,
                    "stock_id": p.stock_id,
                    "start": p.start,
                    "end": p.end,
                    "direction": p.direction,
                    "T": p.T,
                    "N_m": p.N_m,
                    "V_m": p.V_m,
                }
                for p in self.packages
            ],
        }


def paper_like(seed: int = 2001) -> SynthConfig:
    """The default preset: 1500 heavy-tailed firms, ~45k packages, one stock."""
    return SynthConfig(seed=seed)


def small_preset(seed: int = 2001) -> SynthConfig:
    """A fast small tape for smoke runs; same mechanism, fewer firms."""
    return replace(SynthConfig(), n_firms=60, packages_per_firm_mean=15.0, seed=seed)


def gen_firm_sizes(
    n_firms: int,
    zipf_exponent: float = 1.0,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Heavy-tailed firm sizes >= 1 with P(S > s) = s**(-zipf_exponent)."""
    if n_firms < 1:
        raise ValueError(f"n_firms must be >= 1, got {n_firms}")
    if zipf_exponent <= 0:
        raise ValueError("zipf_exponent must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.pareto(zipf_exponent, n_firms) + 1.0


def _package_stats(
    log_sizes: np.ndarray, config: SynthConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant value, trade count, and duration for one firm's packages.

    All three share the value shock e1 scaled by the coupling weights, which
    is what makes the within-firm log-log relations line up across firms.
    """
    n = len(log_sizes)
    e1 = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    e3 = rng.standard_normal(n)
    a = config.zipf_exponent
    ln_v = config.value_mu0 + log_sizes * (a / config.value_tail_exponent) + config.value_sigma * e1
    ln_n = (
        config.trades_mu0
        + log_sizes * (a / config.trades_tail_exponent)
        + config.trades_value_coupling * config.value_sigma * e1
        + config.trades_sigma * e2
    )
    ln_t = (
        config.duration_mu0
        + log_sizes * (a / config.duration_tail_exponent)
        + config.duration_value_coupling * config.value_sigma * e1
        + config.duration_sigma * e3
    )
    values = np.exp(ln_v)
    counts = np.maximum(np.round(np.exp(ln_n)), 2.0).astype(np.int64)
    durations = np.maximum(np.round(np.exp(ln_t)), 1.0).astype(np.int64)
    return values, counts, durations


def _cents(values: np.ndarray) -> np.ndarray:
    """Values as whole numbers of cents, never below one: a value of 0 has no side."""
    return np.maximum(np.round(100.0 * values), 1.0)


def _split_cents(
    totals: np.ndarray, parts: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Each total split into parts[j] lognormal shares, in cents, laid out total by total.

    Every part count is >= 1, or all are 0.
    """
    weights = rng.lognormal(0.0, sigma, int(parts.sum()))
    if not len(weights):
        return weights
    sums = np.add.reduceat(weights, np.cumsum(parts) - parts)
    return _cents(weights * np.repeat(totals / sums, parts))


def _emit_firm(
    firm_id: str,
    log_size: float,
    config: SynthConfig,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[PlantedPackage]]:
    """One firm's (timestamps, signs, values) columns, and its packages.

    Each kind of draw is made for all of the firm's packages at once, and the
    rows are laid out by kind: dominant trades package by package (first,
    interior, last), then noise package by package, then churn.  Package j
    spans [starts[j], ends[j]], and the churn after it lies strictly between
    ends[j] and starts[j + 1], so a stable sort by timestamp makes every
    package and burst contiguous, in order, with the layout order on ties.
    """
    # The firm's package schedule: count, start, sizes, directions, then gaps.
    n_packages = max(1, int(rng.poisson(config.packages_per_firm_mean)))
    start_time = config.start_time + int(rng.integers(0, 30 * 86400))
    values, counts, durations = _package_stats(np.full(n_packages, log_size), config, rng)
    first_sign = 1 if rng.random() < 0.5 else -1
    flips = np.cumsum(rng.random(n_packages - 1) < config.direction_flip_prob)
    signs = np.where(np.concatenate(([0], flips)) % 2 == 0, first_sign, -first_sign).astype(np.int8)
    gaps = 1 + rng.exponential(config.gap_mean, n_packages - 1).astype(np.int64)
    churned = rng.random(n_packages - 1) < config.churn_prob
    gaps[churned] = np.maximum(gaps[churned], 20)
    starts = start_time + np.concatenate(([0], np.cumsum(durations[:-1] + gaps)))
    ends = starts + durations

    # Dominant trades: the first at the start, the last at the end, the rest in between.
    dominant_cents = _split_cents(values, counts, config.child_value_sigma, rng)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    dominant_ts = rng.integers(np.repeat(starts, counts), np.repeat(ends + 1, counts))
    dominant_ts[first] = starts
    dominant_ts[last] = ends

    # Opposite-side noise worth noise_fraction of each package's value.
    n_noise = np.maximum(
        np.round(config.noise_fraction * counts), 1 if config.noise_fraction > 0 else 0
    ).astype(np.int64)
    noise_cents = _split_cents(
        config.noise_fraction * values, n_noise, config.child_value_sigma, rng
    )
    noise_ts = rng.integers(np.repeat(starts, n_noise), np.repeat(ends + 1, n_noise))

    # Mixed-side churn in the churned gaps; n_churn[j] trades follow package j.
    n_churn = np.zeros(n_packages, dtype=np.int64)
    bursts = rng.poisson(config.churn_trades_mean, int(churned.sum()))
    n_churn[:-1][churned] = 2 + np.minimum(bursts, 7)
    gap_churn = n_churn[:-1]
    churn_ts = rng.integers(np.repeat(ends[:-1] + 1, gap_churn), np.repeat(starts[1:], gap_churn))
    churn_signs = (rng.integers(0, 2, len(churn_ts)) * 2 - 1).astype(np.int8)
    churn_cents = _cents(
        rng.lognormal(config.churn_value_mu, config.churn_value_sigma, len(churn_ts))
    )

    columns = (
        np.concatenate((dominant_ts, noise_ts, churn_ts)),
        np.concatenate((np.repeat(signs, counts), np.repeat(-signs, n_noise), churn_signs)),
        np.concatenate((dominant_cents, noise_cents, churn_cents)) / 100,
    )
    package_rows = counts + n_noise
    row_starts = np.cumsum(package_rows + n_churn) - package_rows - n_churn
    planted = list(
        map(
            PlantedPackage,
            itertools.repeat(firm_id),
            itertools.repeat(config.stock_id),
            row_starts.tolist(),
            (row_starts + package_rows).tolist(),
            [DIRECTION_BUY if sign == 1 else DIRECTION_SELL for sign in signs.tolist()],
            durations.tolist(),
            counts.tolist(),
            (np.add.reduceat(dominant_cents, first) / 100).tolist(),
        )
    )
    return columns, planted


def generate(config: SynthConfig) -> tuple[TradeTable, GroundTruth]:
    """Build the full tape and its ground truth, bit-identical for a given config.

    Firms draw from independent child streams of the configured seed, so the
    output does not depend on emission order.  The tape is time-ordered with
    each firm's row layout order preserved on timestamp ties.
    """
    master = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    sizes = gen_firm_sizes(config.n_firms, config.zipf_exponent, master)

    width = len(str(config.n_firms - 1))
    firm_ids = [f"F{i:0{width}d}" for i in range(config.n_firms)]

    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    codes: list[np.ndarray] = []
    packages: list[PlantedPackage] = []
    for i in range(config.n_firms):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, i]))
        firm_columns, planted = _emit_firm(firm_ids[i], float(math.log(sizes[i])), config, rng)
        columns.append(firm_columns)
        codes.append(np.full(len(firm_columns[0]), i, dtype=np.int32))
        packages.extend(planted)

    timestamps, signs, values = (np.concatenate(c) for c in zip(*columns))
    firm_codes = np.concatenate(codes)
    order = np.argsort(timestamps, kind="stable")

    table = TradeTable(
        timestamps[order],
        firm_codes[order],
        np.zeros(len(values), dtype=np.int32),
        signs[order],
        values[order],
        firm_ids,
        [config.stock_id],
    )
    truth = GroundTruth(
        packages=tuple(packages),
        firm_sizes={firm_ids[i]: float(sizes[i]) for i in range(config.n_firms)},
    )
    return table, truth
