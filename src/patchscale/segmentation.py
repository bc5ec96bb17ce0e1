"""Recursive maximum-t segmentation of signed traded-value series.

A window is split at the position maximizing the two-sample t statistic,
provided the split's significance clears the acceptance threshold and the
newly created segments remain significantly distinct from their existing
neighbors.  Significance is the probability that an i.i.d. random sequence
of the same length produces a maximum t no larger than the observed one,
via either a closed-form approximation or a seeded Monte Carlo null.

Series are segmented in lockstep: every series keeps its own recursion, and
each step scans the new windows of all series in one batch and scores their
cuts in one pass.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .trades import SignedSeries

DELTA = 0.40
DEFAULT_THRESHOLD = 0.99
DEFAULT_MC_TRIALS = 10_000
# Closed-form eta = 4.19 ln n - 11.54 is non-positive below n ~ 16, so the
# approximation saturates there; windows below this length use the Monte
# Carlo null.
SMALL_N_MC = 20
# Internal seed for Monte Carlo null tables; fixed so identical inputs give
# identical segmentations without caller-supplied seeds.
DEFAULT_MC_SEED = 271828
# segment_many holds series until their rows would pass this bound (a longer
# series forms a group alone); the group's prefix sums take 16 bytes a row.
_GROUP_ROWS = 1 << 18
# Splits scored per _pooled_t call, so that the kernel's temporaries stay in
# cache (a run of short windows may pass it by less than _LONG_SPLITS).
_SCAN_CHUNK = 1 << 14
# A window with more splits is scanned on its own, as a slice of the prefix
# sums; shorter ones are scanned together, at a higher cost per split that
# their shared fixed overhead more than repays.
_LONG_SPLITS = 1 << 11
# What segment_many tallies: every window scanned either becomes an accepted
# cut or is rejected by the threshold or by the neighbour test, and its max t
# is scored by the Monte Carlo null or by the closed form.
COUNT_KEYS = (
    "windows_scanned",
    "cuts_accepted",
    "rejected_threshold",
    "rejected_neighbour",
    "windows_monte_carlo",
    "windows_closed_form",
)


@dataclass(frozen=True, slots=True)
class Segmentation:
    """Strictly increasing boundary indices from 0 to series length."""

    boundaries: tuple[int, ...]


def _pooled_t(sum_left, sq_left, sum_right, sq_right, n_left, n_right, n):
    """Pooled-variance two-sample t from each side's sum, sum of squares and count.

    Elementwise over arrays; n is the window length n_left + n_right.
    Rounding can leave a side's sum of squared deviations slightly below
    zero; it counts as zero.  When the pooled variance vanishes, t is +inf
    for distinct means and 0.0 for equal means (a deterministic step is
    maximally significant).
    """
    ss_left = sq_left - sum_left * sum_left / n_left
    ss_right = sq_right - sum_right * sum_right / n_right
    diff = abs(sum_left / n_left - sum_right / n_right)
    # ss * (ss > 0.0) is max(ss, 0.0) up to the sign of a zero.
    denom_sq = (ss_left * (ss_left > 0.0) + ss_right * (ss_right > 0.0)) / (n - 2) * (
        1.0 / n_left + 1.0 / n_right
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(denom_sq)
    degenerate = denom_sq <= 0.0
    if degenerate.any():
        t[degenerate] = np.where(diff[degenerate] > 0.0, np.inf, 0.0)
    return t


def _scan_long(sums, sq_sums, lo: int, hi: int) -> tuple[int, float]:
    """Best split of one window, _SCAN_CHUNK positions at a time; ties go to the smallest."""
    sum_lo, sq_lo = sums[lo], sq_sums[lo]
    sum_all, sq_all = sums[hi] - sum_lo, sq_sums[hi] - sq_lo
    best_at, best_t = lo + 2, -1.0
    for a in range(lo + 2, hi - 1, _SCAN_CHUNK):
        b = min(a + _SCAN_CHUNK, hi - 1)
        n_left = np.arange(a - lo, b - lo, dtype=np.float64)
        sum_left = sums[a:b] - sum_lo
        sq_left = sq_sums[a:b] - sq_lo
        t = _pooled_t(
            sum_left, sq_left, sum_all - sum_left, sq_all - sq_left,
            n_left, hi - lo - n_left, hi - lo,
        )
        i = int(np.argmax(t))
        # Strictly greater: an earlier chunk keeps a tie.
        if t[i] > best_t:
            best_at, best_t = a + i, float(t[i])
    return best_at, best_t


def _scan_short(sums, sq_sums, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best split of each of many windows: their splits laid end to end, one _pooled_t call."""
    count = hi - lo - 3
    first = np.cumsum(count) - count
    w = np.repeat(np.arange(len(lo)), count)
    at = np.arange(len(w)) + np.repeat(lo + 2 - first, count)
    n_left = (at - lo[w]).astype(np.float64)
    n = (hi - lo).astype(np.float64)[w]
    sum_lo, sq_lo = sums[lo], sq_sums[lo]
    sum_left = sums[at] - sum_lo[w]
    sq_left = sq_sums[at] - sq_lo[w]
    t = _pooled_t(
        sum_left, sq_left, (sums[hi] - sum_lo)[w] - sum_left, (sq_sums[hi] - sq_lo)[w] - sq_left,
        n_left, n - n_left, n,
    )
    top = np.maximum.reduceat(t, first)
    # The first maximum of each window: ties go to the smallest position.
    hits = np.flatnonzero(t == np.repeat(top, count))
    return at[hits[np.searchsorted(hits, first)]], top


def _scan(sums, sq_sums, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and value of the maximum t over all admissible splits of each window.

    lo and hi are int64 arrays of windows [lo, hi) of the flat prefix sums,
    each at least 4 rows long.  A window of more than _LONG_SPLITS splits is
    scanned on its own, which needs no per-split window values; the others
    are scanned together in runs of about _SCAN_CHUNK splits.
    """
    cut = np.empty(len(lo), dtype=np.int64)
    t = np.empty(len(lo))
    count = hi - lo - 3
    alone = count > _LONG_SPLITS
    for i in np.flatnonzero(alone).tolist():
        cut[i], t[i] = _scan_long(sums, sq_sums, int(lo[i]), int(hi[i]))
    short = np.flatnonzero(~alone)
    if len(short):
        run = (np.cumsum(count[short]) - count[short]) // _SCAN_CHUNK
        for part in np.split(short, np.flatnonzero(np.diff(run)) + 1):
            cut[part], t[part] = _scan_short(sums, sq_sums, lo[part], hi[part])
    return cut, t


@functools.cache
def _betainc():
    # Imported on first use, once per process, so that only processes that
    # score cuts in closed form load scipy.
    from scipy.special import betainc

    return betainc


@functools.cache
def _eta(n: int):
    return 4.19 * np.log(n) - 11.54


def _power(i_value: float, eta) -> float:
    # Always a scalar power: a vectorized np.power can differ in the last bit.
    p = (1.0 - i_value) ** eta
    return float(min(max(p, 0.0), 1.0))


def significance(t_max: float, n: int) -> float:
    """Closed-form P(max t <= t_max) for an i.i.d. sequence of length n.

    Approximation {1 - I_x(delta*nu, delta)}^eta with x = nu/(nu + t^2),
    nu = n - 2, delta = 0.40, eta = 4.19 ln n - 11.54, clamped to [0, 1].
    For n below ~16, eta is non-positive and the value saturates at 1;
    prefer the Monte Carlo null for such short windows.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if not t_max >= 0:  # a NaN fails this too
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return float(_significance_closed_form(np.array([t_max], dtype=np.float64), np.array([n]))[0])


def _significance_closed_form(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Closed-form significance of each pair (t[i], n[i]), with one betainc call over the pairs."""
    p = np.ones(len(t))
    etas = [_eta(k) for k in n.tolist()]
    live = np.flatnonzero(np.isfinite(t) & (np.array(etas) > 0.0))
    if len(live):
        nu = n[live] - 2.0
        t_live = t[live]
        i_values = _betainc()(DELTA * nu, DELTA, nu / (nu + t_live * t_live))
        p[live] = [_power(i, etas[k]) for i, k in zip(i_values.tolist(), live.tolist())]
    return p


def _max_t_rows(rows: np.ndarray) -> np.ndarray:
    """Maximum pooled t over all splits, one value per row."""
    n = rows.shape[1]
    cum = np.cumsum(rows, axis=1)
    cum_sq = np.cumsum(rows * rows, axis=1)
    split = np.arange(2, n - 1)
    n_left = split.astype(np.float64)[None, :]
    sum_left = cum[:, split - 1]
    sq_left = cum_sq[:, split - 1]
    t = _pooled_t(
        sum_left, sq_left,
        cum[:, -1][:, None] - sum_left, cum_sq[:, -1][:, None] - sq_left,
        n_left, n - n_left, n,
    )
    return t.max(axis=1)


@functools.cache
def _null_table(n: int, trials: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, trials]))
    # About 100k draws per chunk: each of the kernel's temporaries stays below 1 MB.
    chunk = max(1, min(trials, 100_000 // max(n, 1)))
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
    if math.isnan(t_max):
        raise ValueError("t_max must not be NaN")
    return float(_significance_null(np.array([t_max], dtype=np.float64), np.array([n]), trials, seed)[0])


def _significance_null(t: np.ndarray, n: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo significance of each pair (t[i], n[i]), one table lookup per distinct n."""
    p = np.ones(len(t))
    finite = np.flatnonzero(t != np.inf)
    sizes = n[finite]
    for size in np.unique(sizes).tolist():
        at = finite[sizes == size]
        p[at] = np.searchsorted(_null_table(size, trials, seed), t[at], side="right") / trials
    return p


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
    small_n_mc: ClassVar[int] = SMALL_N_MC

    def __post_init__(self) -> None:
        if self.mode not in ("closed-form", "monte-carlo"):
            raise ValueError(f"unknown significance mode {self.mode!r}")

    def uses_null(self, n: np.ndarray) -> np.ndarray:
        """Which window lengths are scored by the Monte Carlo null."""
        if self.mode == "monte-carlo":
            return np.ones(len(n), dtype=bool)
        return n < self.small_n_mc

    def significance_many(self, t: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Significance of each pair (t[i], n[i]), n int64 and all >= 4, routed by uses_null."""
        p = np.empty(len(t))
        null = self.uses_null(n)
        if null.any():
            p[null] = _significance_null(t[null], n[null], self.mc_trials, self.seed)
        if not null.all():
            p[~null] = _significance_closed_form(t[~null], n[~null])
        return p


def _name(item, index: int) -> str:
    if isinstance(item, SignedSeries):
        return f"firm {item.firm_id!r}, stock {item.stock_id!r}"
    return f"series {index}"


def segment_many(
    series: Iterable[SignedSeries | Sequence[float]],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: SignificancePolicy | None = None,
    counts: dict[str, int] | None = None,
) -> Iterator[Segmentation]:
    """Recursively partition each series of a stream into homogeneous segments.

    Yields one Segmentation per series, in input order.  Each window's best
    cut is accepted when its significance reaches the threshold and both new
    segments also differ significantly from their adjacent existing segments
    (evaluated at the combined length of the two segments compared; absent
    neighbors skip that side).  Windows shorter than 4 points are terminal.
    Each series recurses depth-first, left first, which fixes its boundary
    set deterministically and independently of the other series.

    Series are read in groups of up to _GROUP_ROWS rows and segmented in
    lockstep.  A non-finite value raises ValueError naming the series and
    index.  When counts is given, the COUNT_KEYS tallies are added to it.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if policy is None:
        policy = SignificancePolicy()
    if counts is not None:
        for key in COUNT_KEYS:
            counts.setdefault(key, 0)
    return _segment_stream(series, threshold, policy, counts)


def _segment_stream(series, threshold, policy, counts) -> Iterator[Segmentation]:
    group: list[tuple[np.ndarray, str]] = []
    rows = 0
    for index, item in enumerate(series):
        values = item.signed_values if isinstance(item, SignedSeries) else item
        x = np.asarray(values, dtype=np.float64)
        if group and rows + len(x) > _GROUP_ROWS:
            yield from _segment_group(group, threshold, policy, counts)
            group, rows = [], 0
        group.append((x, _name(item, index)))
        rows += len(x)
    if group:
        yield from _segment_group(group, threshold, policy, counts)


def _prefix_sums(group: list[tuple[np.ndarray, str]]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Each series' offset into one flat pair of prefix-sum arrays, and the arrays.

    Series k takes n_k + 1 slots from its offset: a leading zero, then the
    running sums of its values and of their squares.  t is scale-invariant
    and scaling by a power of two is exact, so each series is first brought
    to max|x| in [0.5, 1), where the squares cannot overflow, then centred.
    """
    base = [0]
    for x, _ in group:
        base.append(base[-1] + len(x) + 1)
    sums = np.empty(base[-1])
    sq_sums = np.empty(base[-1])
    scratch = np.empty(max(len(x) for x, _ in group))
    for (x, name), offset in zip(group, base):
        n = len(x)
        sums[offset] = sq_sums[offset] = 0.0
        if n == 0:
            continue
        peak = float(np.abs(x).max())
        if not math.isfinite(peak):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise ValueError(f"{name}: value at index {bad} is not finite ({x[bad]!r})")
        centred = scratch[:n]
        if peak > 0.0:
            np.ldexp(x, -np.frexp(peak)[1], out=centred)
        else:
            centred[:] = x
        centred -= centred.mean()
        np.cumsum(centred, out=sums[offset + 1 : offset + 1 + n])
        np.multiply(centred, centred, out=centred)
        np.cumsum(centred, out=sq_sums[offset + 1 : offset + 1 + n])
    return base[:-1], sums, sq_sums


def _segment_group(group, threshold, policy, counts) -> list[Segmentation]:
    """The group's segmentations; its prefix sums are freed when this returns.

    Windows, cuts and boundaries are kept as indices into the flat prefix
    sums, so series k's row i is base[k] + i.
    """
    base, sums, sq_sums = _prefix_sums(group)
    boundaries = [[b, b + len(x)] for b, (x, _) in zip(base, group)]
    # Per series, the windows still to be popped: (lo, hi, best cut), each
    # already scanned and over the threshold.  A window under the threshold
    # or shorter than 4 rows would be popped without effect, so it is never
    # pushed, and each series' pops keep the order of the one-at-a-time
    # recursion.
    stacks: list[list[tuple[int, int, int]]] = [[] for _ in group]
    tally = dict.fromkeys(COUNT_KEYS, 0)
    fresh = [(k, lo, hi) for k, (lo, hi) in enumerate(boundaries) if hi - lo >= 4]
    live = [k for k, _, _ in fresh]
    while True:
        if fresh:
            windows = np.array([window[1:] for window in fresh], dtype=np.int64)
            lo, hi = windows[:, 0], windows[:, 1]
            cuts, t = _scan(sums, sq_sums, lo, hi)
            passed = policy.significance_many(t, hi - lo) >= threshold
            tally["windows_scanned"] += len(fresh)
            tally["windows_monte_carlo"] += int(policy.uses_null(hi - lo).sum())
            tally["rejected_threshold"] += len(fresh) - int(passed.sum())
            for (k, lo_k, hi_k), cut, ok in zip(fresh, cuts.tolist(), passed.tolist()):
                if ok:
                    stacks[k].append((lo_k, hi_k, cut))
        live = [k for k in live if stacks[k]]
        if not live:
            break
        popped = [(k, *stacks[k].pop()) for k in live]
        accepted = _neighbours_pass(popped, boundaries, sums, sq_sums, threshold, policy)
        tally["cuts_accepted"] += sum(accepted)
        tally["rejected_neighbour"] += len(popped) - sum(accepted)
        fresh = []
        for (k, lo_k, hi_k, cut), ok in zip(popped, accepted):
            if ok:
                insort(boundaries[k], cut)
                # Right child first, so the left one is popped first.
                if hi_k - cut >= 4:
                    fresh.append((k, cut, hi_k))
                if cut - lo_k >= 4:
                    fresh.append((k, lo_k, cut))
    tally["windows_closed_form"] = tally["windows_scanned"] - tally["windows_monte_carlo"]
    if counts is not None:
        for key, value in tally.items():
            counts[key] += value
    return [
        Segmentation(boundaries=tuple(b - bounds[0] for b in bounds)) for bounds in boundaries
    ]


def _neighbours_pass(popped, boundaries, sums, sq_sums, threshold, policy) -> list[bool]:
    """Whether each popped cut's new segments differ significantly from their neighbours.

    A cut is tested against the segment before its window and the one after
    it, where there is one, and is accepted iff every test it has passes.
    No test's outcome depends on another's, so all are scored in one batch.
    """
    tests = []
    for slot, (k, lo, hi, cut) in enumerate(popped):
        bounds = boundaries[k]
        at = bisect_right(bounds, lo) - 1
        if at > 0:
            prev = bounds[at - 1]
            if lo - prev >= 2 and cut - lo >= 2:
                tests.append((slot, prev, lo, cut))
        at = bisect_right(bounds, hi) - 1
        if at < len(bounds) - 1:
            nxt = bounds[at + 1]
            if nxt - hi >= 2 and hi - cut >= 2:
                tests.append((slot, cut, hi, nxt))
    accepted = [True] * len(popped)
    if tests:
        slot, lo, mid, hi = np.array(tests, dtype=np.int64).T
        sum_left, sq_left = sums[mid] - sums[lo], sq_sums[mid] - sq_sums[lo]
        sum_right, sq_right = sums[hi] - sums[mid], sq_sums[hi] - sq_sums[mid]
        t = _pooled_t(sum_left, sq_left, sum_right, sq_right, mid - lo, hi - mid, hi - lo)
        for rejected in slot[policy.significance_many(t, hi - lo) < threshold].tolist():
            accepted[rejected] = False
    return accepted


def segment(
    series: SignedSeries | Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: SignificancePolicy | None = None,
) -> Segmentation:
    """Recursively partition one series into homogeneous segments (see segment_many)."""
    return next(segment_many([series], threshold, policy=policy))
