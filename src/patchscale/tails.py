"""Power-law tail estimation: Hill exponents, tail-cutoff selection, CCDF data.

Exponents follow the complementary-CDF convention: zeta is the decay
exponent of P(X >= x) ~ x^{-zeta}, so the density decays as x^{-(zeta+1)}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

TAIL_CONVENTION = "ccdf"
_KS_SCAN_MIN_K = 10
# Above this many candidates the KS scan decimates evenly; the optimum is
# flat enough near the minimum that coarse sampling of large k is safe.
_KS_DENSE_LIMIT = 2000


@dataclass(frozen=True, slots=True)
class TailFit:
    """Hill tail-exponent estimate with its asymptotic CI and cutoff."""

    variable: str
    zeta: float
    ci95: tuple[float, float]
    k: int
    x_k: float
    n: int


def _positive_sorted_desc(xs) -> np.ndarray:
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1:
        raise NumericalError(f"expected a 1-d sample, got shape {x.shape}")
    if len(x) == 0 or not (x > 0).all():
        raise NumericalError("sample must be non-empty with strictly positive entries")
    return np.sort(x)[::-1]


def hill(xs, k: int, variable: str = "") -> TailFit:
    """Hill estimate from the top k order statistics.

    zeta = k / sum_{i<=k} ln(x_(i) / x_(k+1)) over descending order
    statistics, with the asymptotic normal interval zeta * (1 -+ 1.96/sqrt(k)).
    """
    srt = _positive_sorted_desc(xs)
    n = len(srt)
    if not 1 <= k < n:
        raise NumericalError(f"k must be in [1, n-1], got k={k} with n={n}")
    tail = srt[: k + 1]
    log_sum = float(np.log(tail[:k] / tail[k]).sum())
    if log_sum <= 0.0:
        raise NumericalError("degenerate tail: top order statistics are all equal")
    zeta = k / log_sum
    half = 1.96 / np.sqrt(k)
    return TailFit(
        variable=variable,
        zeta=zeta,
        ci95=(zeta * (1.0 - half), zeta * (1.0 + half)),
        k=k,
        x_k=float(tail[k]),
        n=n,
    )


def _hill_all_k(srt: np.ndarray) -> np.ndarray:
    """Hill estimate for every k in [1, n-1]; index k-1 holds the k estimate."""
    logs = np.log(srt)
    cums = np.cumsum(logs)
    ks = np.arange(1, len(srt))
    with np.errstate(divide="ignore"):
        return ks / (cums[ks - 1] - ks * logs[ks])


def choose_k(xs, *, strategy: str = "ks", fraction: float = 0.1) -> int:
    """Tail cutoff k for the Hill estimator.

    The default strategy scans k in [10, n/2] and picks the k minimizing the
    Kolmogorov-Smirnov distance between the empirical tail beyond x_(k+1)
    and the fitted Pareto tail; candidate k above a density limit are
    decimated evenly.  strategy="fraction" returns floor(fraction * n).
    """
    srt = _positive_sorted_desc(xs)
    n = len(srt)
    if strategy == "fraction":
        k = int(fraction * n)
        if not 1 <= k < n:
            raise NumericalError(f"fraction {fraction} gives unusable k={k} for n={n}")
        return k
    if strategy != "ks":
        raise ValueError(f"strategy must be ks or fraction, got {strategy!r}")
    if n < 50:
        raise NumericalError(
            f"KS scan needs n >= 50, got {n}; use the fixed-fraction strategy"
        )
    k_max = n // 2
    if k_max - _KS_SCAN_MIN_K + 1 <= 2 * _KS_DENSE_LIMIT:
        candidates = np.arange(_KS_SCAN_MIN_K, k_max + 1)
    else:
        dense = np.arange(_KS_SCAN_MIN_K, _KS_DENSE_LIMIT + 1)
        sparse = np.linspace(_KS_DENSE_LIMIT + 1, k_max, _KS_DENSE_LIMIT).astype(np.int64)
        candidates = np.unique(np.concatenate((dense, sparse)))
    zetas = _hill_all_k(srt)
    best_k = int(candidates[0])
    best_d = np.inf
    for k in candidates.tolist():
        zeta = zetas[k - 1]
        if not np.isfinite(zeta) or zeta <= 0:
            continue
        tail = srt[:k][::-1]
        fitted = 1.0 - (tail / srt[k]) ** (-zeta)
        steps = np.arange(k, dtype=np.float64)
        distance = max(
            float((fitted - steps / k).max()),
            float(((steps + 1.0) / k - fitted).max()),
        )
        if distance < best_d:
            best_d = distance
            best_k = k
    return best_k


def ccdf(xs) -> list[tuple[float, float]]:
    """Empirical (x, P(X >= x)) over sorted unique values; the first point has P = 1."""
    x = np.asarray(xs, dtype=np.float64)
    if len(x) == 0:
        raise NumericalError("ccdf of an empty sample is undefined")
    values, counts = np.unique(x, return_counts=True)
    survivors = counts[::-1].cumsum()[::-1]
    n = len(x)
    return [(float(v), float(c) / n) for v, c in zip(values, survivors)]
