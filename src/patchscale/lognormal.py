"""Jarque-Bera normality testing and the per-firm vs pooled lognormality split.

Lognormality of a positive variable is tested as normality of its natural
log.  For small samples (n < 50) the asymptotic chi-squared critical value
is badly anti-conservative, so seeded Monte Carlo critical values are used
there instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.stats import chi2

from .errors import NumericalError
from .patches import VARIABLES, PatchRecord

ASYMPTOTIC_MIN_N = 50
CHI2_CRITICAL_95 = float(chi2.ppf(0.95, 2))
DEFAULT_MIN_FIRM_PATCHES = 10
# Seed and trial count for the small-sample critical-value tables.
MC_CRITICAL_SEED = 161803
MC_CRITICAL_TRIALS = 200_000


@dataclass(frozen=True, slots=True)
class LognormalityResult:
    firm_id: str
    variable: str
    n: int
    jb_stat: float
    critical_value: float
    reject: bool


@dataclass(frozen=True, slots=True)
class LognormalitySummary:
    """Share of qualifying firms for which lognormality is not rejected."""

    variable: str
    percent: float
    passed: int
    tested: int
    results: tuple[LognormalityResult, ...]


def _jb_from_rows(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    centered = rows - rows.mean(axis=1, keepdims=True)
    m2 = (centered**2).mean(axis=1)
    m3 = (centered**3).mean(axis=1)
    m4 = (centered**4).mean(axis=1)
    skew = m3 / m2**1.5
    kurt = m4 / (m2 * m2)
    return n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)


def mc_critical_value(
    n: int,
    trials: int = MC_CRITICAL_TRIALS,
    seed: int = MC_CRITICAL_SEED,
) -> float:
    """Monte Carlo 95th percentile of the JB statistic under normality at size n."""
    return _mc_critical_value(n, trials, seed)


@functools.cache
def _mc_critical_value(n: int, trials: int, seed: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, trials]))
    chunk = max(1, 4_000_000 // max(n, 1))
    stats = []
    remaining = trials
    while remaining > 0:
        rows = rng.standard_normal((min(chunk, remaining), n))
        stats.append(_jb_from_rows(rows))
        remaining -= len(rows)
    return float(np.quantile(np.concatenate(stats), 0.95))


def critical_value(n: int) -> float:
    """95% JB critical value: asymptotic chi-squared(2) for n >= 50, Monte Carlo below."""
    if n >= ASYMPTOTIC_MIN_N:
        return CHI2_CRITICAL_95
    return mc_critical_value(n)


def jarque_bera(xs) -> tuple[float, bool]:
    """JB statistic of a sample and whether normality is rejected at 95%.

    JB = n/6 * (S^2 + (K - 3)^2 / 4) with biased-moment skewness S and raw
    kurtosis K; the (K - 3) term is the excess over the normal value.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {x.shape}")
    n = len(x)
    if n < 8:
        raise ValueError(f"need n >= 8 for stable moments, got {n}")
    if np.ptp(x) == 0.0:
        raise NumericalError("zero-variance sample: JB undefined")
    stat = float(_jb_from_rows(x[None, :])[0])
    return stat, stat > critical_value(n)


def per_firm_lognormality(
    records: Iterable[PatchRecord],
    variable: str,
    min_patches: int = DEFAULT_MIN_FIRM_PATCHES,
) -> LognormalitySummary:
    """JB test of ln(variable) per firm with at least min_patches usable patches.

    Usable means a positive variable value (T = 0 patches drop out).  Firms
    with zero spread in the variable cannot be tested and are excluded from
    the tested count.
    """
    if variable not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {variable!r}")
    if min_patches < 8:
        raise ValueError(f"min_patches must be >= 8 for a stable JB test, got {min_patches}")
    by_firm: dict[str, list[float]] = {}
    for r in records:
        value = getattr(r, variable)
        if value > 0:
            by_firm.setdefault(r.firm_id, []).append(float(value))
    results = []
    for firm_id in sorted(by_firm):
        values = by_firm[firm_id]
        if len(values) < min_patches:
            continue
        logs = np.log(values)
        try:
            stat, reject = jarque_bera(logs)
        except NumericalError:
            continue
        results.append(
            LognormalityResult(
                firm_id=firm_id,
                variable=variable,
                n=len(values),
                jb_stat=stat,
                critical_value=critical_value(len(values)),
                reject=reject,
            )
        )
    if not results:
        raise NumericalError(f"no firm has {min_patches}+ usable patches for {variable}")
    passed = sum(1 for r in results if not r.reject)
    return LognormalitySummary(
        variable=variable,
        percent=100.0 * passed / len(results),
        passed=passed,
        tested=len(results),
        results=tuple(results),
    )


def pooled_lognormality(records: Iterable[PatchRecord], variable: str) -> tuple[float, bool]:
    """JB test of ln(variable) pooled across all firms' patches."""
    if variable not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {variable!r}")
    values = [float(getattr(r, variable)) for r in records]
    values = [v for v in values if v > 0]
    if len(values) < 8:
        raise NumericalError(f"pooled sample too small for {variable}: {len(values)}")
    return jarque_bera(np.log(values))
