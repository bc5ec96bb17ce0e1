"""Synthetic trade-tape generator with planted directional packages.

The generator plants, per firm, a sequence of one-sided trade packages whose
size scales with a heavy-tailed firm size: a firm of log-size L trades
packages with ln V ~ mu_V + L / zeta_V + noise, and likewise for trade count
and duration.  Exponentiating an exponential log-size yields Pareto tails
with the configured exponents, while each firm's own packages stay lognormal
around its size level.  Packages are contaminated with a bounded fraction of
opposite-side value and optionally separated by short mixed-side churn, so a
detector has realistic work to do.
"""

from __future__ import annotations

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
    the dominant share above theta_target.
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

    def by_firm(self) -> dict[str, list[PlantedPackage]]:
        grouped: dict[str, list[PlantedPackage]] = {}
        for package in self.packages:
            grouped.setdefault(package.firm_id, []).append(package)
        return grouped

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


def _split_value(total: float, parts: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    weights = rng.lognormal(0.0, sigma, parts)
    return total * weights / weights.sum()


class _FirmEmitter:
    """Accumulates one firm's trades in chronological order."""

    __slots__ = ("timestamps", "signs", "values", "count")

    def __init__(self) -> None:
        self.timestamps: list[np.ndarray] = []
        self.signs: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.count = 0

    def append(self, ts: np.ndarray, signs: np.ndarray, values: np.ndarray) -> None:
        self.timestamps.append(ts)
        self.signs.append(signs)
        self.values.append(values)
        self.count += len(ts)


def _emit_firm(
    firm_id: str,
    log_size: float,
    config: SynthConfig,
    rng: np.random.Generator,
) -> tuple[_FirmEmitter, list[PlantedPackage]]:
    # The firm's package schedule: count, start, sizes, then directions.
    n_packages = max(1, int(rng.poisson(config.packages_per_firm_mean)))
    start_time = config.start_time + int(rng.integers(0, 30 * 86400))
    values, counts, durations = _package_stats(np.full(n_packages, log_size), config, rng)
    first_buy = rng.random() < 0.5
    flips = rng.random(n_packages - 1) < config.direction_flip_prob if n_packages > 1 else np.array([])
    signs = np.empty(n_packages, dtype=np.int8)
    signs[0] = 1 if first_buy else -1
    for j in range(1, n_packages):
        signs[j] = -signs[j - 1] if flips[j - 1] else signs[j - 1]
    emitter = _FirmEmitter()
    planted: list[PlantedPackage] = []
    t0 = start_time
    for j in range(n_packages):
        n_dom = int(counts[j])
        duration = int(durations[j])
        dominant_value = float(values[j])
        sign = int(signs[j])

        child_values = _split_value(dominant_value, n_dom, config.child_value_sigma, rng)
        if n_dom > 2:
            interior = np.sort(rng.integers(t0, t0 + duration + 1, n_dom - 2))
            dom_ts = np.concatenate(([t0], interior, [t0 + duration]))
        else:
            dom_ts = np.array([t0, t0 + duration], dtype=np.int64)

        n_noise = max(1, round(config.noise_fraction * n_dom)) if config.noise_fraction > 0 else 0
        if n_noise:
            noise_values = _split_value(
                config.noise_fraction * dominant_value, n_noise, config.child_value_sigma, rng
            )
            noise_ts = np.sort(rng.integers(t0, t0 + duration + 1, n_noise))
        else:
            noise_values = np.array([])
            noise_ts = np.array([], dtype=np.int64)

        package_ts = np.concatenate((dom_ts, noise_ts))
        package_signs = np.concatenate(
            (np.full(n_dom, sign, dtype=np.int8), np.full(n_noise, -sign, dtype=np.int8))
        )
        package_values = np.concatenate((child_values, noise_values))
        order = np.argsort(package_ts, kind="stable")

        planted.append(
            PlantedPackage(
                firm_id=firm_id,
                stock_id=config.stock_id,
                start=emitter.count,
                end=emitter.count + len(package_ts),
                direction=DIRECTION_BUY if sign == 1 else DIRECTION_SELL,
                T=duration,
                N_m=n_dom,
                V_m=float(child_values.sum()),
            )
        )
        emitter.append(package_ts[order], package_signs[order], package_values[order])

        if j == n_packages - 1:
            break
        gap = 1 + int(rng.exponential(config.gap_mean))
        if rng.random() < config.churn_prob:
            gap = max(gap, 20)
            next_start = t0 + duration + gap
            n_churn = 2 + min(int(rng.poisson(config.churn_trades_mean)), 7)
            churn_ts = np.sort(rng.integers(t0 + duration + 1, next_start, n_churn))
            churn_signs = (rng.integers(0, 2, n_churn) * 2 - 1).astype(np.int8)
            churn_values = rng.lognormal(
                config.churn_value_mu, config.churn_value_sigma, n_churn
            )
            emitter.append(churn_ts, churn_signs, churn_values)
            t0 = next_start
        else:
            t0 = t0 + duration + gap
    return emitter, planted


def generate(config: SynthConfig) -> tuple[TradeTable, GroundTruth]:
    """Build the full tape and its ground truth, bit-identical for a given config.

    Firms draw from independent child streams of the configured seed, so the
    output does not depend on emission order.  The tape is time-ordered with
    per-firm emission order preserved on timestamp ties.
    """
    master = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    sizes = gen_firm_sizes(config.n_firms, config.zipf_exponent, master)

    width = len(str(config.n_firms - 1))
    firm_ids = [f"F{i:0{width}d}" for i in range(config.n_firms)]

    all_ts: list[np.ndarray] = []
    all_signs: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    all_codes: list[np.ndarray] = []
    packages: list[PlantedPackage] = []
    for i in range(config.n_firms):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, i]))
        emitter, planted = _emit_firm(firm_ids[i], float(math.log(sizes[i])), config, rng)
        all_ts.extend(emitter.timestamps)
        all_signs.extend(emitter.signs)
        all_values.extend(emitter.values)
        all_codes.append(np.full(emitter.count, i, dtype=np.int32))
        packages.extend(planted)

    timestamps = np.concatenate(all_ts).astype(np.int64)
    signs = np.concatenate(all_signs).astype(np.int8)
    values = np.concatenate(all_values).astype(np.float64)
    firm_codes = np.concatenate(all_codes)
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
