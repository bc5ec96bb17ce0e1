"""Jarque-Bera normality testing and the per-firm vs pooled lognormality split.

Lognormality of a positive variable is tested as normality of its natural
log.  For small samples (n < 50) the asymptotic chi-squared critical value
is badly anti-conservative, so critical values from a pinned table are used
there instead.  The table holds the 95th percentile of the statistic over
200,000 standard-normal samples per n, drawn with the fixed seed 161803;
the test oracle in tests/test_lognormal.py regenerates entries and checks
them for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError
from .patches import DEFAULT_MIN_FIRM_PATCHES, VARIABLES, PatchRecord

ASYMPTOTIC_MIN_N = 50
# scipy.stats.chi2.ppf(0.95, 2), every digit; tests/test_lognormal.py checks it.
CHI2_CRITICAL_95 = 5.991464547107979
MIN_JB_N = 8
# Monte Carlo 95% critical values for n = MIN_JB_N .. ASYMPTOTIC_MIN_N - 1.
# They carry sampling noise, so they are not monotone in n; keep every digit.
SMALL_N_CRITICAL_95 = (
    2.082147201844418,  # n = 8
    2.3106875000972575,  # n = 9
    2.515249287699109,  # n = 10
    2.7204023726379947,  # n = 11
    2.8788455305207683,  # n = 12
    3.0456460195039847,  # n = 13
    3.1906580961721693,  # n = 14
    3.2775741379440526,  # n = 15
    3.4271218606368103,  # n = 16
    3.5174550346757343,  # n = 17
    3.6031627092638416,  # n = 18
    3.7641569180407735,  # n = 19
    3.845360317188901,  # n = 20
    3.9061206167853983,  # n = 21
    3.9351343377324217,  # n = 22
    4.0175821338378865,  # n = 23
    4.11087272397911,  # n = 24
    4.124370210409376,  # n = 25
    4.1417755309158055,  # n = 26
    4.230569836235599,  # n = 27
    4.317424788024614,  # n = 28
    4.43720728680139,  # n = 29
    4.4000689183260775,  # n = 30
    4.480601256186538,  # n = 31
    4.526102678901707,  # n = 32
    4.5074274751833485,  # n = 33
    4.523057512382228,  # n = 34
    4.60660998242182,  # n = 35
    4.577942127790674,  # n = 36
    4.708297631228403,  # n = 37
    4.711342686268141,  # n = 38
    4.743635717482905,  # n = 39
    4.792959673584913,  # n = 40
    4.775275766727719,  # n = 41
    4.771271100163096,  # n = 42
    4.866779341839712,  # n = 43
    4.87173290864233,  # n = 44
    4.844258839061481,  # n = 45
    4.91344952157262,  # n = 46
    4.923971018356961,  # n = 47
    4.908791421542271,  # n = 48
    4.975564434510672,  # n = 49
)


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


def critical_value(n: int) -> float:
    """95% JB critical value: the pinned table for n < 50, asymptotic chi-squared(2) from 50 on."""
    if n < MIN_JB_N:
        raise ValueError(f"need n >= {MIN_JB_N} for stable moments, got {n}")
    if n >= ASYMPTOTIC_MIN_N:
        return CHI2_CRITICAL_95
    return SMALL_N_CRITICAL_95[n - MIN_JB_N]


def jarque_bera(xs) -> tuple[float, bool]:
    """JB statistic of a sample and whether normality is rejected at 95%.

    JB = n/6 * (S^2 + (K - 3)^2 / 4) with biased-moment skewness S and raw
    kurtosis K; the (K - 3) term is the excess over the normal value.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {x.shape}")
    n = len(x)
    if n < MIN_JB_N:
        raise ValueError(f"need n >= {MIN_JB_N} for stable moments, got {n}")
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
    if min_patches < MIN_JB_N:
        raise ValueError(f"min_patches must be >= {MIN_JB_N} for a stable JB test, got {min_patches}")
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
    if len(values) < MIN_JB_N:
        raise NumericalError(f"pooled sample too small for {variable}: {len(values)}")
    return jarque_bera(np.log(values))
