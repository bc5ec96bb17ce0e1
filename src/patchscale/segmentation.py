"""Recursive maximum-t segmentation of signed traded-value series.

A window is split at the position maximizing the two-sample t statistic,
provided the split's significance clears the acceptance threshold and the
newly created segments remain significantly distinct from their existing
neighbors.  Significance is the probability that an i.i.d. random sequence
of the same length produces a maximum t no larger than the observed one,
via either a closed-form approximation or a seeded Monte Carlo null.
"""

from __future__ import annotations

import functools
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trades import SignedSeries

DELTA = 0.40
DEFAULT_THRESHOLD = 0.99
DEFAULT_MC_TRIALS = 10_000
# Closed-form eta = 4.19 ln n - 11.54 is non-positive below n ~ 16, so the
# approximation saturates there; windows below this length use the Monte
# Carlo null unless the caller overrides.
SMALL_N_MC = 20
# Internal seed for Monte Carlo null tables; fixed so identical inputs give
# identical segmentations without caller-supplied seeds.
DEFAULT_MC_SEED = 271828


@dataclass(frozen=True, slots=True)
class CutCandidate:
    """Best split of a window: position and its t value."""

    position: int
    t_value: float


@dataclass(frozen=True, slots=True)
class Segmentation:
    """Strictly increasing boundary indices from 0 to series length."""

    boundaries: tuple[int, ...]
    threshold: float

    def segments(self) -> list[tuple[int, int]]:
        return list(zip(self.boundaries[:-1], self.boundaries[1:]))


def t_statistic(values: Sequence[float], split: int) -> float:
    """Pooled-variance two-sample t between values[:split] and values[split:].

    The direct form, kept as the oracle for the prefix-sum scan.  When the
    variance vanishes entirely, returns +inf for distinct means and 0.0 for
    equal means (a deterministic step is maximally significant).
    """
    x = np.asarray(values, dtype=np.float64)
    n_left = split
    n_right = len(x) - split
    if n_left < 2 or n_right < 2:
        raise ValueError(f"each side needs >= 2 points, got {n_left} and {n_right}")
    left = x[:split]
    right = x[split:]
    diff = abs(float(left.mean()) - float(right.mean()))
    pooled = (left.var(ddof=0) * n_left + right.var(ddof=0) * n_right) / (n_left + n_right - 2)
    denom_sq = pooled * (1.0 / n_left + 1.0 / n_right)
    if denom_sq <= 0.0:
        return float("inf") if diff > 0.0 else 0.0
    return diff / float(np.sqrt(denom_sq))


class _Prefix:
    """Prefix sums of a window's values and squares for O(1) range statistics."""

    __slots__ = ("sums", "sq_sums")

    def __init__(self, values: np.ndarray) -> None:
        self.sums = np.concatenate(([0.0], np.cumsum(values)))
        self.sq_sums = np.concatenate(([0.0], np.cumsum(values * values)))

    def range_t(self, lo: int, mid: int, hi: int) -> float:
        """t between [lo, mid) and [mid, hi)."""
        n_left = mid - lo
        n_right = hi - mid
        sum_left = self.sums[mid] - self.sums[lo]
        sum_right = self.sums[hi] - self.sums[mid]
        ss_left = max(self.sq_sums[mid] - self.sq_sums[lo] - sum_left * sum_left / n_left, 0.0)
        ss_right = max(
            self.sq_sums[hi] - self.sq_sums[mid] - sum_right * sum_right / n_right, 0.0
        )
        diff = abs(sum_left / n_left - sum_right / n_right)
        denom_sq = (ss_left + ss_right) / (n_left + n_right - 2) * (1.0 / n_left + 1.0 / n_right)
        if denom_sq <= 0.0:
            return float("inf") if diff > 0.0 else 0.0
        return diff / float(np.sqrt(denom_sq))

    def scan(self, lo: int, hi: int) -> tuple[int, float]:
        """Position and value of the maximum t over all admissible splits of [lo, hi)."""
        positions = np.arange(lo + 2, hi - 1)
        n_left = (positions - lo).astype(np.float64)
        n_right = (hi - positions).astype(np.float64)
        sum_left = self.sums[positions] - self.sums[lo]
        sum_right = (self.sums[hi] - self.sums[lo]) - sum_left
        ss_left = self.sq_sums[positions] - self.sq_sums[lo] - sum_left * sum_left / n_left
        ss_right = (
            (self.sq_sums[hi] - self.sq_sums[lo])
            - (self.sq_sums[positions] - self.sq_sums[lo])
            - sum_right * sum_right / n_right
        )
        np.maximum(ss_left, 0.0, out=ss_left)
        np.maximum(ss_right, 0.0, out=ss_right)
        diff = np.abs(sum_left / n_left - sum_right / n_right)
        denom_sq = (ss_left + ss_right) / (hi - lo - 2) * (1.0 / n_left + 1.0 / n_right)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = diff / np.sqrt(denom_sq)
        degenerate = denom_sq <= 0.0
        if degenerate.any():
            t[degenerate] = np.where(diff[degenerate] > 0.0, np.inf, 0.0)
        best = int(np.argmax(t))
        return int(positions[best]), float(t[best])


def max_t(values: Sequence[float]) -> CutCandidate | None:
    """Best split candidate of the whole sequence, or None if fewer than 4 points.

    Ties are broken toward the smallest position.
    """
    x = np.asarray(values, dtype=np.float64)
    if len(x) < 4:
        return None
    position, t_value = _Prefix(x).scan(0, len(x))
    return CutCandidate(position=position, t_value=t_value)


def significance(t_max: float, n: int) -> float:
    """Closed-form P(max t <= t_max) for an i.i.d. sequence of length n.

    Approximation {1 - I_x(delta*nu, delta)}^eta with x = nu/(nu + t^2),
    nu = n - 2, delta = 0.40, eta = 4.19 ln n - 11.54, clamped to [0, 1].
    For n below ~16, eta is non-positive and the value saturates at 1;
    prefer the Monte Carlo null for such short windows.
    """
    # Imported here so that only processes that score cuts load scipy.
    from scipy.special import betainc

    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    nu = n - 2
    eta = 4.19 * np.log(n) - 11.54
    if eta <= 0.0:
        return 1.0
    if np.isinf(t_max):
        return 1.0
    x = nu / (nu + t_max * t_max)
    p = (1.0 - float(betainc(DELTA * nu, DELTA, x))) ** eta
    return float(min(max(p, 0.0), 1.0))


def _max_t_rows(rows: np.ndarray) -> np.ndarray:
    """Maximum pooled t over all splits, one value per row."""
    n_rows, n = rows.shape
    cum = np.cumsum(rows, axis=1)
    cum_sq = np.cumsum(rows * rows, axis=1)
    total = cum[:, -1][:, None]
    total_sq = cum_sq[:, -1][:, None]
    split = np.arange(2, n - 1)
    n_left = split.astype(np.float64)[None, :]
    n_right = n - n_left
    sum_left = cum[:, split - 1]
    sq_left = cum_sq[:, split - 1]
    ss_left = sq_left - sum_left * sum_left / n_left
    ss_right = (total_sq - sq_left) - (total - sum_left) ** 2 / n_right
    diff = np.abs(sum_left / n_left - (total - sum_left) / n_right)
    denom_sq = (np.maximum(ss_left, 0.0) + np.maximum(ss_right, 0.0)) / (n - 2) * (
        1.0 / n_left + 1.0 / n_right
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(denom_sq)
    bad = denom_sq <= 0.0
    if bad.any():
        t[bad] = np.where(diff[bad] > 0.0, np.inf, 0.0)
    return t.max(axis=1)


@functools.cache
def _null_table(n: int, trials: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, trials]))
    chunk = max(1, min(trials, 2_000_000 // max(n, 1)))
    parts = []
    remaining = trials
    while remaining > 0:
        rows = rng.standard_normal((min(chunk, remaining), n))
        parts.append(_max_t_rows(rows))
        remaining -= len(rows)
    return np.sort(np.concatenate(parts))


def significance_mc(
    t_max: float,
    n: int,
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = DEFAULT_MC_SEED,
) -> float:
    """Monte Carlo P(max t <= t_max) over seeded standard-normal sequences.

    Deterministic for a fixed (n, trials, seed); tables are cached.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if np.isinf(t_max) and t_max > 0:
        return 1.0
    table = _null_table(n, trials, seed)
    return float(np.searchsorted(table, t_max, side="right")) / trials


@dataclass(frozen=True, slots=True)
class SignificancePolicy:
    """How (t, n) pairs are converted to significance during segmentation.

    mode "closed-form" uses the analytic approximation, except that windows
    shorter than small_n_mc fall back to the Monte Carlo null, where the
    approximation is unusable.  mode "monte-carlo" uses the null everywhere.
    """

    mode: str = "closed-form"
    mc_trials: int = DEFAULT_MC_TRIALS
    seed: int = DEFAULT_MC_SEED
    small_n_mc: int = SMALL_N_MC

    def __post_init__(self) -> None:
        if self.mode not in ("closed-form", "monte-carlo"):
            raise ValueError(f"unknown significance mode {self.mode!r}")

    def significance(self, t_value: float, n: int) -> float:
        if self.mode == "monte-carlo" or n < self.small_n_mc:
            return significance_mc(t_value, n, self.mc_trials, self.seed)
        return significance(t_value, n)


def segment(
    series: SignedSeries | Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: SignificancePolicy | None = None,
) -> Segmentation:
    """Recursively partition a series into homogeneous segments.

    Each window's best cut is accepted when its significance reaches the
    threshold and both new segments also differ significantly from their
    adjacent existing segments (evaluated at the combined length of the two
    segments compared; absent neighbors skip that side).  Windows shorter
    than 4 points are terminal.  Recursion proceeds depth-first, left first,
    which fixes the boundary set deterministically.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if policy is None:
        policy = SignificancePolicy()
    values = series.signed_values if isinstance(series, SignedSeries) else series
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 4:
        return Segmentation(boundaries=(0, n), threshold=threshold)

    # t is scale-invariant and scaling by a power of two is exact, so bring
    # max|x| into [0.5, 1): the squares in the prefix sums then cannot overflow.
    peak = float(np.abs(x).max())
    if peak > 0.0:
        x = np.ldexp(x, -np.frexp(peak)[1])
    prefix = _Prefix(x - x.mean())
    boundaries = [0, n]
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 4:
            continue
        position, t_value = prefix.scan(lo, hi)
        if policy.significance(t_value, hi - lo) < threshold:
            continue
        left_at = bisect_right(boundaries, lo) - 1
        if left_at > 0:
            prev = boundaries[left_at - 1]
            if lo - prev >= 2 and position - lo >= 2:
                t_neighbor = prefix.range_t(prev, lo, position)
                if policy.significance(t_neighbor, position - prev) < threshold:
                    continue
        right_at = bisect_right(boundaries, hi) - 1
        if right_at < len(boundaries) - 1:
            nxt = boundaries[right_at + 1]
            if nxt - hi >= 2 and hi - position >= 2:
                t_neighbor = prefix.range_t(position, hi, nxt)
                if policy.significance(t_neighbor, nxt - position) < threshold:
                    continue
        insort(boundaries, position)
        stack.append((position, hi))
        stack.append((lo, position))
    return Segmentation(boundaries=tuple(boundaries), threshold=threshold)
